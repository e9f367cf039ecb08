#include "nn/elementwise.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mpipu {
namespace {

std::string shape_str(const Tensor& t) {
  return std::to_string(t.c) + "x" + std::to_string(t.h) + "x" +
         std::to_string(t.w);
}

}  // namespace

Tensor tensor_add(const std::vector<const Tensor*>& parts) {
  if (parts.size() < 2) {
    throw std::invalid_argument("tensor_add: needs at least two operands");
  }
  const Tensor& first = *parts.front();
  Tensor out = first;
  for (size_t i = 1; i < parts.size(); ++i) {
    const Tensor& p = *parts[i];
    if (p.c != first.c || p.h != first.h || p.w != first.w) {
      throw std::invalid_argument("tensor_add: operand " + std::to_string(i) +
                                  " is " + shape_str(p) + " but operand 0 is " +
                                  shape_str(first));
    }
    for (size_t e = 0; e < out.data.size(); ++e) out.data[e] += p.data[e];
  }
  return out;
}

Tensor tensor_add(const Tensor& a, const Tensor& b) {
  return tensor_add(std::vector<const Tensor*>{&a, &b});
}

Tensor channel_concat(const std::vector<const Tensor*>& parts) {
  if (parts.size() < 2) {
    throw std::invalid_argument("channel_concat: needs at least two operands");
  }
  const Tensor& first = *parts.front();
  int c_total = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const Tensor& p = *parts[i];
    if (p.h != first.h || p.w != first.w) {
      throw std::invalid_argument(
          "channel_concat: operand " + std::to_string(i) + " is " +
          shape_str(p) + " but operand 0 has spatial dims " +
          std::to_string(first.h) + "x" + std::to_string(first.w));
    }
    c_total += p.c;
  }
  Tensor out(c_total, first.h, first.w);
  size_t at = 0;
  for (const Tensor* p : parts) {
    std::copy(p->data.begin(), p->data.end(), out.data.begin() + static_cast<ptrdiff_t>(at));
    at += p->data.size();
  }
  return out;
}

}  // namespace mpipu
