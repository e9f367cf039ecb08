// Unified datapath abstraction over the three decomposition schemes (§5).
//
// The paper's MC alignment-banding optimization "is orthogonal to the
// decomposition scheme (i.e., temporal, serial, spatial)": the same EHU,
// accumulator and reference models serve
//
//   * temporal  -- `Ipu` (src/core/ipu.h): 5x5 nibble multipliers, Ka*Kb
//                  nibble iterations per op;
//   * serial    -- `SerialIpu` (src/core/serial_ipu.h): 12x1 bit-serial
//                  lanes, 12 weight-bit steps per FP16 op;
//   * spatial   -- `SpatialIpu` (src/core/spatial_ipu.h): all Ka*Kb nibble
//                  products in parallel on Ka*Kb*n multipliers.
//
// `Datapath` is the base all three derive from: one `DatapathConfig` (scheme
// enum plus the shared knobs), one accumulator and one `DatapathStats` that
// every scheme counts into, behind a common accumulate / dot / readout
// contract.  `make_datapath` builds the class `cfg.scheme` names.  The
// compiled conv path (src/nn/conv_plan.h), the cycle simulator's tile
// costing (src/sim) and the decomposition-scheme benches all route through
// this interface, so every workload can run on every scheme.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "common/fixed_point.h"
#include "core/accumulator.h"
#include "core/ehu.h"
#include "core/prepared.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The three decomposition schemes of §5.
enum class DecompositionScheme { kTemporal, kSerial, kSpatial };

const char* scheme_name(DecompositionScheme s);

/// Datapath parameters: the scheme selector plus the knobs every scheme
/// shares.  Each scheme class reads the adder-tree width through
/// effective_adder_tree_width(), which clamps the request up to the
/// scheme's minimum where multi-cycling requires it (serial products occupy
/// 13 bits, nibble products 10 with guard).
struct DatapathConfig {
  DecompositionScheme scheme = DecompositionScheme::kTemporal;
  /// Number of input pairs n the unit accepts per operation (>= 1).
  int n_inputs = 16;
  /// Requested adder tree / local shifter precision w ("IPU precision").
  int adder_tree_width = 28;
  /// Software accuracy requirement: maximum alignment honored (16 for FP16
  /// accumulation, 28 for FP32 accumulation; §3.1).
  int software_precision = 28;
  /// MC alignment banding when true; single-cycle truncating window if not.
  bool multi_cycle = true;
  /// Count only occupied alignment bands (§3.2 partition view) instead of
  /// the literal Fig. 5 serve loop.  The serial scheme models the serve
  /// loop only and ignores it.
  bool skip_empty_bands = false;
  /// Sparse ablation (temporal scheme only): skip all-zero nibble iterations.
  bool skip_zero_iterations = false;
  AccumulatorConfig accumulator{};

  /// The scheme's customary preset: spatial counts occupied bands, temporal
  /// and serial run the literal Fig. 5 serve loop.
  static DatapathConfig for_scheme(DecompositionScheme s) {
    DatapathConfig c;
    c.scheme = s;
    c.skip_empty_bands = s == DecompositionScheme::kSpatial;
    return c;
  }

  friend bool operator==(const DatapathConfig&, const DatapathConfig&) = default;

  /// Bits one lane product occupies in the adder-tree window (9-bit nibble
  /// product + guard for temporal/spatial; 13-bit serial product).
  int product_window_bits() const {
    return scheme == DecompositionScheme::kSerial ? 13 : 10;
  }
  /// Smallest window the scheme's implementation accepts for this mode.
  int min_adder_tree_width() const {
    if (scheme == DecompositionScheme::kSerial) return 13;
    return multi_cycle ? 10 : 2;
  }
  /// Width actually instantiated: the request clamped to the scheme minimum.
  int effective_adder_tree_width() const {
    return std::max(adder_tree_width, min_adder_tree_width());
  }
  /// Safe precision sp of Proposition 1 for the effective width: alignments
  /// below it lose no bits in the local shift (w - 9 nibble, w - 12 serial).
  int safe_precision() const {
    return effective_adder_tree_width() - (product_window_bits() - 1);
  }
  /// Guard placement: an unshifted lane product occupies the top of the
  /// w-bit window, i.e. is pre-shifted left by w - product_window_bits().
  int window_guard() const {
    return effective_adder_tree_width() - product_window_bits();
  }
  /// EHU knobs of this unit.  Band assignment is only meaningful in MC
  /// mode; single-cycle windows below the scheme's product width have a
  /// non-positive safe precision, so the EHU gets at least 1.
  EhuOptions ehu_options() const {
    EhuOptions o;
    o.software_precision = software_precision;
    o.safe_precision = std::max(safe_precision(), 1);
    return o;
  }
  /// Whether the scheme's INT serve loop reads radix-16 digit planes.  The
  /// bit-serial scheme streams raw two's-complement values, so its prepared
  /// INT operands skip the digit planes (PreparedInt's with_digits).
  bool reads_digit_planes() const {
    return scheme != DecompositionScheme::kSerial;
  }
};

/// Unified running statistics; fields a scheme does not model stay zero.
struct DatapathStats {
  int64_t fp_ops = 0;
  int64_t int_ops = 0;
  int64_t cycles = 0;
  int64_t nibble_iterations = 0;   ///< temporal only
  int64_t masked_products = 0;     ///< temporal only
  int64_t multi_cycle_ops = 0;     ///< ops (spatial) / iterations (temporal) > 1 cycle
  int64_t skipped_iterations = 0;  ///< temporal sparse ablation

  DatapathStats& operator+=(const DatapathStats& o) {
    fp_ops += o.fp_ops;
    int_ops += o.int_ops;
    cycles += o.cycles;
    nibble_iterations += o.nibble_iterations;
    masked_products += o.masked_products;
    multi_cycle_ops += o.multi_cycle_ops;
    skipped_iterations += o.skipped_iterations;
    return *this;
  }
  DatapathStats& operator-=(const DatapathStats& o) {
    fp_ops -= o.fp_ops;
    int_ops -= o.int_ops;
    cycles -= o.cycles;
    nibble_iterations -= o.nibble_iterations;
    masked_products -= o.masked_products;
    multi_cycle_ops -= o.multi_cycle_ops;
    skipped_iterations -= o.skipped_iterations;
    return *this;
  }
  /// Counter delta (e.g. per-layer work = after - before on a running unit).
  friend DatapathStats operator-(DatapathStats a, const DatapathStats& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const DatapathStats&, const DatapathStats&) = default;
};

/// Result of one self-contained inner product (`Datapath::dot`).
struct DotResult {
  FixedPoint raw{0, 0};  ///< exact view of the accumulator's kept bits
  int cycles = 0;

  template <FpFormat Out>
  Soft<Out> rounded() const {
    return Soft<Out>::round_from_fixed(raw);
  }
  Fp16 fp16() const { return rounded<kFp16Format>(); }
  Fp32 fp32() const { return rounded<kFp32Format>(); }
};

/// Scheme-generic datapath: the base class of Ipu, SerialIpu and SpatialIpu.
/// It owns what the schemes share -- the config, the FP and INT
/// accumulators and the running statistics -- and the prepare-on-the-fly
/// compatibility entries; each scheme supplies its serve loops.
class Datapath {
 public:
  virtual ~Datapath() = default;

  const DatapathConfig& config() const { return cfg_; }
  /// Running statistics over everything executed on this unit; fields a
  /// scheme does not model stay zero.
  const DatapathStats& stats() const { return stats_; }
  /// 5x5-multiplier-equivalent lanes this scheme instantiates (the area
  /// denominator of the §5 comparison).
  virtual int multipliers() const = 0;

  /// Clear the accumulators (new output pixel); stats persist.
  void reset_accumulator() {
    acc_.reset();
    int_acc_ = 0;
  }

  /// Accumulate one FP16 inner product from pre-decomposed SoA operand
  /// planes (core/prepared.h) -- the hot-loop contract.  Per op only the
  /// EHU and the scheme's serve loop run, on scratch the unit owns; the
  /// caller streams views over planes it prepared once per tensor.
  virtual int fp16_accumulate_prepared(const PreparedFp16View& a,
                                       const PreparedFp16View& b) = 0;

  /// Accumulate one FP16 inner product a.b; returns datapath cycles.
  /// Compatibility entry: prepares the spans on the fly into unit-owned
  /// scratch and runs the prepared path, so both entries are bit- and
  /// cycle-identical by construction.  Prefer preparing whole tensors and
  /// calling fp16_accumulate_prepared on hot paths.
  int fp16_accumulate(std::span<const Fp16> a, std::span<const Fp16> b) {
    prep_a_.assign(a);
    prep_b_.assign(b);
    return fp16_accumulate_prepared(prep_a_.view(), prep_b_.view());
  }

  /// One self-contained inner product: reset, accumulate, read.  This is
  /// the unified cross-scheme contract the differential tests pin down.
  DotResult dot(std::span<const Fp16> a, std::span<const Fp16> b) {
    reset_accumulator();
    DotResult r;
    r.cycles = fp16_accumulate(a, b);
    r.raw = read_raw();
    return r;
  }

  /// Raw non-normalized accumulator value (exact view of kept bits).
  FixedPoint read_raw() const { return acc_.value(); }
  Fp16 read_fp16() const { return Fp16::round_from_fixed(read_raw()); }
  Fp32 read_fp32() const { return Fp32::round_from_fixed(read_raw()); }

  /// INT mode is scheme-dependent: temporal handles any nibble-decomposable
  /// width, serial is limited to 12-bit parallel operands, spatial is
  /// FP-only.  Callers must check before dispatching.
  virtual bool supports_int(int a_bits, int b_bits) const = 0;
  /// Accumulate one INT inner product from pre-packed digit/value planes
  /// (requires supports_int).
  virtual int int_accumulate_prepared(const PreparedIntView& a,
                                      const PreparedIntView& b, int a_bits,
                                      int b_bits) = 0;
  /// Compatibility entry; same prepare-on-the-fly contract as
  /// fp16_accumulate.
  int int_accumulate(std::span<const int32_t> a, std::span<const int32_t> b,
                     int a_bits, int b_bits) {
    int_prep_a_.assign(a, a_bits, false, cfg_.reads_digit_planes());
    int_prep_b_.assign(b, b_bits, false, cfg_.reads_digit_planes());
    return int_accumulate_prepared(int_prep_a_.view(), int_prep_b_.view(),
                                   a_bits, b_bits);
  }
  /// INT-mode accumulator value.
  int64_t read_int() const { return int_acc_; }

 protected:
  /// Throws std::invalid_argument unless `cfg` names `scheme` (a unit built
  /// from another scheme's config would misread its prepared operands) and
  /// carries at least one input lane -- in every build mode.
  Datapath(const DatapathConfig& cfg, DecompositionScheme scheme);
  // Copyable and movable only as part of a scheme class (no slicing).
  Datapath(const Datapath&) = default;
  Datapath(Datapath&&) = default;
  Datapath& operator=(const Datapath&) = default;
  Datapath& operator=(Datapath&&) = default;

  DatapathConfig cfg_;
  DatapathStats stats_;
  Accumulator acc_;
  int64_t int_acc_ = 0;

 private:
  /// Scratch backing the compatibility entries, reused across ops.
  PreparedFp16 prep_a_, prep_b_;
  PreparedInt int_prep_a_, int_prep_b_;
};

/// Build the scheme class named by `cfg.scheme` (Ipu, SerialIpu or
/// SpatialIpu); throws std::invalid_argument when `cfg.n_inputs < 1`.
std::unique_ptr<Datapath> make_datapath(const DatapathConfig& cfg);

// ---------------------------------------------------------------------------
// Scheme-generic tile costing (cycle simulator).
// ---------------------------------------------------------------------------

/// Sentinel exponent for a masked (zero-operand) product in the costing
/// model: far below every live product, so it is always EHU-masked.
inline constexpr int kMaskedProductExp = INT32_MIN / 4;

/// Base steps per FP16 inner product: 9 nibble iterations (temporal),
/// 12 weight-bit steps (serial), 1 all-parallel step (spatial).
int fp16_iterations_per_op(DecompositionScheme s);

/// Service time (cycles) of one FP16 inner-product op given its product
/// exponents -- the §3.2 banding model generalized across schemes.  For the
/// spatial scheme the band set combines each alignment with the nine static
/// nibble-significance offsets (significance rides on top of alignment).
int fp16_op_service_cycles(std::span<const int> product_exps,
                           const DatapathConfig& cfg);

}  // namespace mpipu
