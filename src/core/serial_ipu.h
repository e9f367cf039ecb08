// Bit-serial inner product unit -- the MC-SER design of Table 1 (§4.5).
//
// Modeled after Stripes (Judd et al. 2016): each lane multiplies a full
// 12-bit signed multiplicand by ONE bit of the weight per cycle (12x1
// multipliers are AND gates feeding the adder tree), so an INT-b weight
// costs b cycles and an FP16 operand costs 12 cycles ("FP16 operation
// requires at least 12 cycles per inner product in the case of 12x1
// multiplier", §4.5) -- more when MC alignment banding kicks in.
//
// MC-SER extends the serial datapath with the paper's FP16 optimizations:
// the same EHU alignment banding and the same local-shift/truncate window
// of width w apply, with the serial product occupying 13 bits (12-bit
// magnitude product + sign) at the top of the window.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "core/accumulator.h"
#include "core/band_schedule.h"
#include "core/datapath.h"
#include "core/ehu.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The bit-serial scheme: built from a kSerial DatapathConfig.  The serial
/// product occupies 13 bits of the window, so the safe precision is w - 12
/// (cf. w - 9 for the 5-bit nibble IPU).
class SerialIpu final : public Datapath {
 public:
  explicit SerialIpu(const DatapathConfig& cfg)
      : Datapath(cfg, DecompositionScheme::kSerial) {}

  int multipliers() const override { return cfg_.n_inputs; }
  /// Full-parallel multiplicand is a 12-bit lane; b streams bit-serially.
  bool supports_int(int a_bits, int b_bits) const override {
    return a_bits >= 2 && b_bits >= 2 && a_bits <= 12 && b_bits <= 32;
  }

  /// FP16 inner product, weight operand processed one magnitude bit per
  /// step (11 magnitude bits + the implicit-left-shift padding = 12 steps).
  /// Returns datapath cycles (steps x alignment bands).
  int fp_accumulate(std::span<const Fp16> a, std::span<const Fp16> b);

  /// Prepared-operand fast path (core/prepared.h): per op only the EHU and
  /// the bit-serial serve loop run, on reused scratch.  Bit- and
  /// cycle-identical to fp_accumulate over the same values.
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override;

  /// INT inner product: full-parallel a (<= 12 bits), bit-serial b.  Costs
  /// b_bits cycles; exact.  Streams the raw two's-complement value planes;
  /// the digit planes are a temporal-scheme notion it never reads.
  int int_accumulate_prepared(const PreparedIntView& a,
                              const PreparedIntView& b, int a_bits,
                              int b_bits) override;

 private:
  template <typename TreeInt>
  int run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b);

  /// Vectorized serve loop (core/simd): same outputs, stats and cycles as
  /// run_prepared_fp16.  kNarrow selects int32 vector accumulators (tree
  /// bound <= 31 bits).
  template <bool kNarrow>
  int run_prepared_fp16_simd(const PreparedFp16View& a,
                             const PreparedFp16View& b);

  /// Whole-op fused path: one EHU kernel call and one 12-step band-sum
  /// kernel call per op.  Requires MC mode, 0 <= guard <= 4 (the int16 lane
  /// bound: |p| <= 2047 shifted up by at most guard) and at most kFusedLanes
  /// lanes; falls back to the scalar oracle on wide EHU spreads.
  int run_prepared_fp16_fused(const PreparedFp16View& a,
                              const PreparedFp16View& b);

  // Prepared-path scratch (EHU output, serve schedule, per-lane operand
  // views), reused per op.
  EhuResult ehu_;
  BandSchedule sched_;
  std::vector<uint32_t> padded_mag_;  ///< weight magnitude << 1 per lane
  std::vector<int32_t> lane_p_;       ///< weight-sign-applied multiplicand
  // Vectorized-path scratch: serve bands, split window shifts, and the
  // per-lane pre-shifted multiplicands (constant across the 12 bit steps).
  std::vector<int32_t> serve_band_, up_, down_, v32_;
  std::vector<int64_t> v64_;
  // Fused-path scratch: EHU align/band planes padded through kFusedLanes.
  std::vector<int32_t> falign_, fband_;
};

}  // namespace mpipu
