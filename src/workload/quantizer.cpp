#include "workload/quantizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mpipu {

QuantParams fit_symmetric(std::span<const double> values, int bits, bool is_unsigned) {
  assert(bits >= 2 && bits <= 16);
  QuantParams qp;
  qp.bits = bits;
  qp.is_unsigned = is_unsigned;
  double max_mag = 0.0;
  for (double v : values) max_mag = std::max(max_mag, std::fabs(v));
  if (max_mag == 0.0) max_mag = 1.0;
  qp.scale = max_mag / static_cast<double>(qp.qmax());
  return qp;
}

int32_t quantize_value(double v, const QuantParams& qp) {
  const double q = std::nearbyint(v / qp.scale);
  const double clamped =
      std::clamp(q, static_cast<double>(qp.qmin()), static_cast<double>(qp.qmax()));
  return static_cast<int32_t>(clamped);
}

std::vector<int32_t> quantize(std::span<const double> values, const QuantParams& qp) {
  std::vector<int32_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(quantize_value(v, qp));
  return out;
}

std::vector<double> dequantize(std::span<const int32_t> q, const QuantParams& qp) {
  std::vector<double> out;
  out.reserve(q.size());
  for (int32_t v : q) out.push_back(static_cast<double>(v) * qp.scale);
  return out;
}

double dequantize_accumulator(int64_t acc, const QuantParams& a, const QuantParams& b) {
  return static_cast<double>(acc) * a.scale * b.scale;
}

}  // namespace mpipu
