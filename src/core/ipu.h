// Mixed-precision inner product unit -- paper Sections 2 and 3.
//
// `Ipu` is a bit-accurate model of the proposed datapath (paper Fig. 1):
// an array of n 5b x 5b signed multipliers, per-multiplier local right-shift
// units (shift-and-truncate up to w bits), a w-bit adder tree, and the
// non-normalized accumulator of src/core/accumulator.h.  Wider operands are
// realized temporally as nibble iterations (src/core/nibble.h); FP alignment
// amounts come from the EHU (src/core/ehu.h).
//
// Two alignment regimes are modeled:
//
//  * Single-cycle IPU(w): every product is locally shifted by its full
//    alignment within the w-bit window; bits shifted past the window LSB are
//    truncated (two's complement arithmetic shift, i.e. floor).  The
//    effective "IPU precision" of Section 3.1 is w.  One cycle per nibble
//    iteration, always.
//
//  * Multi-cycle MC-IPU(w) (Section 3.2): products are partitioned by the
//    EHU into alignment bands of width sp = w - 9 (the safe precision of
//    Proposition 1).  Band c is served in cycle c: its products are locally
//    shifted by (alignment - c*sp) < sp -- which Proposition 1 guarantees is
//    exact -- and the band-base shift c*sp is applied to the adder-tree
//    output on its way into the accumulator, where the only loss is the
//    architectural truncation below the accumulator LSB.  A nibble iteration
//    therefore costs floor(d_max / sp) + 1 cycles.
//
// In both regimes the EHU masks products whose alignment exceeds the
// *software precision* (16 for FP16 accumulation, 28 for FP32 accumulation;
// Section 3.1) -- such products cannot affect the bits the accumulator keeps.
//
// INT mode (Section 2.1) runs the same multipliers and adder tree with zero
// local shift and significance shifts of 4*(i+j) at the accumulator; it is
// exact by construction and costs Ka*Kb single-cycle nibble iterations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/fixed_point.h"
#include "core/accumulator.h"
#include "core/band_schedule.h"
#include "core/datapath.h"
#include "core/ehu.h"
#include "core/nibble.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The temporal scheme: built from a kTemporal DatapathConfig.
class Ipu final : public Datapath {
 public:
  explicit Ipu(const DatapathConfig& cfg)
      : Datapath(cfg, DecompositionScheme::kTemporal) {}

  int multipliers() const override { return cfg_.n_inputs; }
  bool supports_int(int a_bits, int b_bits) const override {
    return a_bits >= 2 && b_bits >= 2 && a_bits <= 4 * kMaxNibbles &&
           b_bits <= 4 * kMaxNibbles;
  }

  /// Accumulate one FP inner product a.b into the accumulator.
  /// Returns the number of datapath cycles consumed.
  template <FpFormat F>
  int fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b);

  /// Prepared-operand fast path (core/prepared.h): operands were decoded
  /// and nibble-decomposed once, per tensor; per op only the EHU and the
  /// serve loop run, on reused scratch.  Bit- and cycle-identical to
  /// fp_accumulate<kFp16Format> over the same values.
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override;

  /// Prepared INT fast path: radix-16 digit planes were packed once, per
  /// tensor.  Bit- and cycle-identical to int_accumulate over the same
  /// values (signed operands; unsigned encodings prepare with
  /// PreparedInt::assign(..., is_unsigned=true)).
  int int_accumulate_prepared(const PreparedIntView& a,
                              const PreparedIntView& b, int a_bits,
                              int b_bits) override;

  /// Per-op INT oracle: accumulate one INT inner product; operands are
  /// already-quantized signed values that fit (a_bits, b_bits) two's
  /// complement (pass is_unsigned for unsigned encodings, which occupy
  /// ceil(bits/4) unsigned lanes).  Returns cycles consumed (= nibble-
  /// iteration count).  Hides Datapath::int_accumulate, which reaches
  /// int_accumulate_prepared with the same values and cycles.
  int int_accumulate(std::span<const int32_t> a, std::span<const int32_t> b,
                     int a_bits, int b_bits, bool a_unsigned = false,
                     bool b_unsigned = false);

  /// Hybrid mode (Appendix B): FP operand times quantized-integer operand.
  /// The integer operand behaves like an FP value with exponent 0 and a
  /// b_bits-wide magnitude; the result accumulates sum(a_i * q_i) exactly
  /// like FP mode (the caller applies the quantization scale afterwards).
  /// Costs fp_nibbles(F) x int_nibbles(b_bits) iterations, with the usual
  /// MC-IPU alignment cycling.
  template <FpFormat F>
  int fp_int_accumulate(std::span<const Soft<F>> a, std::span<const int32_t> b,
                        int b_bits, bool b_unsigned = false);

 private:
  /// One nibble iteration (i, j) of an FP(-or-hybrid) op: multiply, locally
  /// shift, add, and feed the accumulator; returns cycles consumed.
  /// `scale_bias` is the total fractional scaling of the operand magnitudes
  /// (2 * man_bits for FP x FP, man_bits for FP x INT).
  int run_fp_iteration(std::span<const NibbleOperand> na,
                       std::span<const NibbleOperand> nb, int i, int j,
                       const EhuResult& ehu, int scale_bias);

  /// True when every unmasked lane product of iteration (i, j) is zero --
  /// the dynamic-skip detector of the sparse extension.
  static bool iteration_is_zero(std::span<const NibbleOperand> na,
                                std::span<const NibbleOperand> nb, int i, int j,
                                const EhuResult& ehu) {
    for (size_t k = 0; k < na.size(); ++k) {
      if (ehu.masked[k]) continue;
      if (na[k].v[static_cast<size_t>(i)] != 0 && nb[k].v[static_cast<size_t>(j)] != 0) {
        return false;
      }
    }
    return true;
  }

  /// Serve loop of the prepared fast path; TreeInt is the adder-tree sum
  /// type (int64_t whenever the window bound fits, int128 otherwise).
  template <typename TreeInt>
  int run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b);

  /// Vectorized serve loop (core/simd): same outputs, stats and cycles as
  /// run_prepared_fp16, computed through the active kernel backend.
  /// kNarrow selects int32 vector accumulators (tree bound <= 31 bits).
  template <bool kNarrow>
  int run_prepared_fp16_simd(const PreparedFp16View& a,
                             const PreparedFp16View& b);

  /// Whole-op fused path: one EHU kernel call and one 3x3 band-sum kernel
  /// call per op (core/simd fused kernels).  Requires MC mode, a window
  /// guard the int16 lane bound covers, and at most kFusedLanes lanes;
  /// falls back to the scalar oracle when the EHU spread is too wide.
  int run_prepared_fp16_fused(const PreparedFp16View& a,
                              const PreparedFp16View& b);

  /// True when the fused kernels' int16 product bound holds: 0 <= guard <= 7
  /// (every MC window shift is an up-shift of at most guard).
  bool guard_in_fused_range() const {
    return cfg_.window_guard() >= 0 && cfg_.window_guard() <= 7;
  }

  // Scratch, sized n_inputs, reused across calls to avoid allocation.
  std::vector<Decoded> dec_a_, dec_b_;
  std::vector<NibbleOperand> nib_a_, nib_b_;
  // Prepared-path scratch (EHU output + serve schedule), reused per op.
  EhuResult ehu_;
  BandSchedule sched_;
  // Vectorized-path scratch: per-lane serve band and split window shifts.
  std::vector<int32_t> serve_band_, up_, down_;
  // Fused-path scratch: EHU align/band planes padded through kFusedLanes.
  std::vector<int32_t> falign_, fband_;
};

// ---------------------------------------------------------------------------
// Template implementation
// ---------------------------------------------------------------------------

template <FpFormat F>
int Ipu::fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();

  dec_a_.resize(n);
  dec_b_.resize(n);
  nib_a_.resize(n);
  nib_b_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    dec_a_[k] = a[k].decode();
    dec_b_[k] = b[k].decode();
    nib_a_[k] = decompose_fp<F>(dec_a_[k]);
    nib_b_[k] = decompose_fp<F>(dec_b_[k]);
  }

  const EhuResult ehu = run_ehu(dec_a_, dec_b_, cfg_.ehu_options());

  const int ka = fp_nibble_count(F);
  const int kb = fp_nibble_count(F);
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      if (cfg_.skip_zero_iterations && iteration_is_zero(nib_a_, nib_b_, i, j, ehu)) {
        ++stats_.skipped_iterations;
        continue;
      }
      cycles += run_fp_iteration(nib_a_, nib_b_, i, j, ehu, 2 * F.man_bits);
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  for (size_t k = 0; k < n; ++k) stats_.masked_products += ehu.masked[k] != 0;
  return cycles;
}

template <FpFormat F>
int Ipu::fp_int_accumulate(std::span<const Soft<F>> a, std::span<const int32_t> b,
                           int b_bits, bool b_unsigned) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();

  dec_a_.resize(n);
  dec_b_.resize(n);
  nib_a_.resize(n);
  nib_b_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    dec_a_[k] = a[k].decode();
    nib_a_[k] = decompose_fp<F>(dec_a_[k]);
    // The integer operand is an exponent-0 signed magnitude to the EHU.
    dec_b_[k] = Decoded{b[k] < 0, 0, b[k] < 0 ? -b[k] : b[k]};
    nib_b_[k] = b_unsigned ? decompose_int_unsigned(b[k], b_bits)
                           : decompose_int(b[k], b_bits);
  }

  const EhuResult ehu = run_ehu(dec_a_, dec_b_, cfg_.ehu_options());

  const int ka = fp_nibble_count(F);
  const int kb = int_nibble_count(b_bits);
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      cycles += run_fp_iteration(nib_a_, nib_b_, i, j, ehu, F.man_bits);
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  return cycles;
}

}  // namespace mpipu
