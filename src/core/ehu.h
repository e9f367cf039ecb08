// Exponent Handling Unit (EHU) -- paper Section 2.2 and Figure 5.
//
// For one FP inner-product operation over n operand pairs, the EHU:
//   stage 1: adds the unbiased operand exponents elementwise -> product exps,
//   stage 2: reduces them to the maximum exponent,
//   stage 3: computes each product's alignment (right-shift) amount as
//            max_exp - product_exp,
//   stage 4: masks products whose alignment exceeds the *software precision*
//            (they cannot affect the kept accumulator bits),
//   stage 5 (MC-IPU only): the serve loop.  In cycle k, products whose
//            alignment is below the threshold (k+1)*sp and not yet served
//            are dispatched; sp is the IPU's safe precision (w - 9,
//            Proposition 1).  The loop runs until every unmasked product is
//            served, so a nibble iteration costs floor(d_max / sp) + 1
//            cycles, where d_max is the largest unmasked alignment.
//
// One EHU is shared by all nibble iterations of an FP-IP op (the exponents
// do not change across iterations), and in a real tile it is time-multiplexed
// between IPUs; the area model (src/model) accounts for that sharing.
//
// The EHU sits on the innermost per-op path of every scheme, so the
// scratch-reuse overloads below run allocation-free once their EhuResult is
// warm: every field (including the stage-5 `band_used` occupancy scratch)
// is a reused vector.  The exponent-plane overload serves the
// prepared-operand fast path (core/prepared.h), where operands were decoded
// once per tensor and only their exponent planes reach the EHU.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "softfloat/softfloat.h"

namespace mpipu {

/// Result of the EHU's combinational stages for one FP-IP operation.
struct EhuResult {
  std::vector<int> product_exp;  ///< stage 1: Ea_k + Eb_k.
  int max_exp = 0;               ///< stage 2.
  std::vector<int> align;        ///< stage 3: max_exp - product_exp (>= 0).
  /// stage 4: nonzero iff align > software_precision.  (uint8_t, not
  /// vector<bool>: the serve loops test it per lane per cycle.)
  std::vector<uint8_t> masked;
  /// stage 5: band (serve-cycle) index per product; -1 for masked products.
  /// Band c covers alignments [c*sp, (c+1)*sp).
  std::vector<int> band;
  /// Number of serve cycles the MC-IPU needs per nibble iteration.
  int mc_cycles = 1;
  /// Number of *non-empty* bands: the cycle count of a "smarter" EHU that
  /// skips empty bands (the DatapathConfig::skip_empty_bands ablation; the
  /// paper's serve loop advances the threshold by sp every cycle).
  int mc_cycles_skip_empty = 1;
  /// Stage-5 occupancy scratch (band index -> served anything); kept here so
  /// repeated run_ehu calls into the same EhuResult never allocate.
  std::vector<uint8_t> band_used;
};

struct EhuOptions {
  /// Alignments strictly greater than this are masked (stage 4).  This is
  /// the software accuracy requirement: 16 for FP16 accumulation, 28 for
  /// FP32 accumulation (paper Section 3.1).
  int software_precision = 28;
  /// Safe precision sp = w - 9 of the attached (MC-)IPU; only used for the
  /// serve loop / band assignment.
  int safe_precision = 19;
};

/// Run the EHU over decoded operand pairs into caller-owned scratch;
/// allocation-free once `out`'s vectors have grown to the op width.  Zero
/// operands participate with their encoding's subnormal exponent exactly as
/// the hardware (which only looks at exponent fields) would.
void run_ehu(std::span<const Decoded> a, std::span<const Decoded> b,
             const EhuOptions& opts, EhuResult& out);

/// Same, over pre-decoded exponent planes (the prepared-operand fast path).
void run_ehu(std::span<const int32_t> a_exp, std::span<const int32_t> b_exp,
             const EhuOptions& opts, EhuResult& out);

/// Allocating convenience wrapper over the scratch-reuse overload.
EhuResult run_ehu(std::span<const Decoded> a, std::span<const Decoded> b,
                  const EhuOptions& opts);

/// Stages 1-3 only (exponent sums, max reduction, alignments) into
/// `out.product_exp` / `out.max_exp` / `out.align`, leaving masking and band
/// assignment untouched.  This is the one home of the exponent/alignment
/// arithmetic: run_ehu layers stages 4-5 on top, and product_alignments is
/// a thin wrapper -- the banding model is never reimplemented.
void ehu_alignment_stages(std::span<const Decoded> a, std::span<const Decoded> b,
                          EhuResult& out);

/// Convenience: alignment histogram input -- product exponent differences
/// (stage 3 outputs) without masking or band assignment.
std::vector<int> product_alignments(std::span<const Decoded> a, std::span<const Decoded> b);

}  // namespace mpipu
