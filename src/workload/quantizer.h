// Symmetric integer quantization (the INT4/INT8 software side of the
// mixed-precision story).  Converts real-valued tensors to the signed or
// unsigned integer grids the IPU's INT mode consumes, and back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mpipu {

struct QuantParams {
  double scale = 1.0;  ///< real value = scale * q
  int bits = 8;
  bool is_unsigned = false;

  int64_t qmin() const { return is_unsigned ? 0 : -(int64_t{1} << (bits - 1)); }
  int64_t qmax() const {
    return is_unsigned ? (int64_t{1} << bits) - 1 : (int64_t{1} << (bits - 1)) - 1;
  }
};

/// Fit symmetric quantization parameters to the data's max magnitude
/// (max-calibration, the standard post-training scheme).
QuantParams fit_symmetric(std::span<const double> values, int bits, bool is_unsigned = false);

/// Quantize one value with round-to-nearest and saturation.
int32_t quantize_value(double v, const QuantParams& qp);

/// Quantize with round-to-nearest and saturation (quantize_value per element).
std::vector<int32_t> quantize(std::span<const double> values, const QuantParams& qp);

/// Dequantize.
std::vector<double> dequantize(std::span<const int32_t> q, const QuantParams& qp);

/// Dequantize an integer inner-product result computed on quantized
/// operands: result_real = acc * scale_a * scale_b.
double dequantize_accumulator(int64_t acc, const QuantParams& a, const QuantParams& b);

}  // namespace mpipu
