// Convolution geometry, the exact host-double reference ("FP32 CPU") and
// the tensor helpers around it.  Convolutions on the datapath run through
// one path only: a compiled model (api/compiled_model.h) executing the
// plans of nn/conv_plan.h -- a single conv is a one-conv GraphModel.
#pragma once

#include <cstdint>

#include "nn/tensor.h"

namespace mpipu {

class ThreadPool;

/// Accumulation destination for the FP16 datapath convolution (§3.1).
enum class AccumKind { kFp16, kFp32 };

struct ConvSpec {
  int stride = 1;
  int pad = 0;

  /// stride >= 1 and pad >= 0; out_dim is defined only for valid specs.
  bool valid() const { return stride >= 1 && pad >= 0; }
  int out_dim(int in, int k) const { return (in + 2 * pad - k) / stride + 1; }
};

/// Exact reference convolution in host double ("FP32 CPU" stand-in; double
/// is a strict superset of FP32 for these magnitudes).
///
/// Sum-order contract: every output element is +0.0 plus the products
/// input * filter of its in-bounds window taps, added one at a time in
/// ci -> ky -> kx order.  The result is therefore a pure function of the
/// operands -- identical for any pool size and for both overloads -- and
/// byte-identical to the plain six-deep loop (tests/conv_oracle.h).
///
/// Throws std::invalid_argument on an invalid spec, on input.c !=
/// filters.cin, and when the output map would be empty.
Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec);
/// Same, split over (output pixel, block of output channels) on `pool`;
/// each slot writes only its own output elements.
Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec, ThreadPool& pool);

/// Elementwise ReLU.
Tensor relu(const Tensor& t);
/// 2x2 max pool, stride 2.
Tensor maxpool2(const Tensor& t);

/// Rotate a filter bank for the data-gradient (backward) convolution:
/// dL/dx = conv(dL/dy, W^T) with W spatially flipped and cin/cout swapped.
FilterBank transpose_for_dgrad(const FilterBank& f);

/// Exact data-gradient convolution (stride-1 layers): given the output
/// gradient, compute the input gradient -- the backward-path workload the
/// paper studies in §4.3 / Fig. 9(b).  It is the forward conv over
/// transpose_for_dgrad(filters) with pad k-1-fwd_pad, so shapes invert the
/// forward conv; the datapath version is that one layer compiled.
Tensor dgrad_reference(const Tensor& grad_out, const FilterBank& filters, int fwd_pad);

/// Output-agreement metrics between a datapath result and the reference.
struct AgreementStats {
  double max_abs_err = 0.0;
  double mean_abs_err = 0.0;
  double max_rel_err = 0.0;   ///< on elements with |ref| > 1e-6
  double snr_db = 0.0;        ///< signal-to-error ratio
  int64_t mismatched_fp16 = 0;  ///< elements whose FP16 rounding differs
  int64_t total = 0;
};

/// Throws std::invalid_argument when the two tensors differ in size.
AgreementStats compare_outputs(const Tensor& test, const Tensor& reference);

}  // namespace mpipu
