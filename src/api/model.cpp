#include "api/model.h"

#include "nn/conv.h"

namespace mpipu {
namespace {

Tensor global_avg_pool(const Tensor& t) {
  Tensor out(t.c, 1, 1);
  for (int c = 0; c < t.c; ++c) {
    double s = 0.0;
    for (int y = 0; y < t.h; ++y) {
      for (int x = 0; x < t.w; ++x) s += t.at(c, y, x);
    }
    out.at(c, 0, 0) = s / (static_cast<double>(t.h) * t.w);
  }
  return out;
}

}  // namespace

Tensor apply_post_ops(Tensor t, bool relu_first, PoolOp pool) {
  if (relu_first) t = relu(t);
  switch (pool) {
    case PoolOp::kNone: break;
    case PoolOp::kMax2: t = maxpool2(t); break;
    case PoolOp::kGlobalAvg: t = global_avg_pool(t); break;
  }
  return t;
}

}  // namespace mpipu
