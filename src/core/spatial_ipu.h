// Spatially decomposed inner product unit.
//
// The paper's Related Work contrasts its *temporal* nibble decomposition
// with *spatial* decomposition (NVDLA computes an FP16 product on two INT8
// units side by side; DP4A splits an INT32 unit into four INT8 lanes) and
// notes that "our proposed architecture optimization ... is orthogonal to
// the decomposition scheme (i.e., temporal, serial, spatial)" (§5).
//
// `SpatialIpu` realizes that claim: all Ka x Kb nibble products of every
// input pair are computed in the same cycle on Ka*Kb*n multipliers, so the
// alignment shift of lane (k, i, j) combines the EHU alignment d_k with the
// nibble-significance offset (top_weight - wi - wj).  The MC banding then
// partitions the *combined* shifts: concentrated exponents finish in one
// cycle (9x the temporal throughput for 9x the multipliers); wide
// alignments multi-cycle exactly as in the temporal design.
//
// This gives the repo all three decomposition schemes of §5 -- temporal
// (Ipu), serial (SerialIpu) and spatial (SpatialIpu) -- over the same EHU,
// accumulator and reference models.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/bits.h"
#include "core/accumulator.h"
#include "core/datapath.h"
#include "core/ehu.h"
#include "core/nibble.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "core/simd/simd.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The spatial scheme: built from a kSpatial DatapathConfig (safe precision
/// w - 9 as in the temporal IPU).  FP-only.
class SpatialIpu final : public Datapath {
 public:
  explicit SpatialIpu(const DatapathConfig& cfg)
      : Datapath(cfg, DecompositionScheme::kSpatial) {}

  /// Multipliers this unit instantiates per input pair (vs 1 for the
  /// temporal IPU).
  template <FpFormat F>
  static constexpr int multipliers_per_input() {
    return fp_nibble_count(F) * fp_nibble_count(F);
  }
  int multipliers() const override {
    return cfg_.n_inputs * multipliers_per_input<kFp16Format>();
  }

  /// One FP inner product, all nibble products in parallel.
  /// Returns datapath cycles (1 when every combined shift fits one band).
  template <FpFormat F>
  int fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b);

  /// Prepared-operand fast path (core/prepared.h): per op only the EHU and
  /// the combined-shift serve loop run, on reused scratch.  Bit- and
  /// cycle-identical to fp_accumulate<kFp16Format> over the same values.
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override;

  bool supports_int(int, int) const override { return false; }
  /// Hard abort (not an assert): in a Release build a silent 0 here would
  /// masquerade as a valid INT result.
  int int_accumulate_prepared(const PreparedIntView&, const PreparedIntView&,
                              int, int) override {
    std::fprintf(stderr, "Datapath: spatial scheme is FP-only\n");
    std::abort();
  }

 private:
  template <typename TreeInt>
  int run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b);

  /// Vectorized serve loop (core/simd), MC mode only: the combined shift of
  /// lane product (k, i, j) depends only on (k, i + j), and in MC mode the
  /// net window shift is always a left shift (local < sp <= guard + 1),
  /// which distributes over addition -- so the 9 products collapse into 5
  /// diagonal pre-sums served band-by-band.  Single-cycle mode right-shifts
  /// (truncates) per product and stays on the scalar oracle.  kNarrow
  /// selects int32 vector accumulators (tree bound <= 31 bits).
  template <bool kNarrow>
  int run_prepared_fp16_simd(const PreparedFp16View& a,
                             const PreparedFp16View& b);

  // Prepared-path scratch: lane products grouped by serve band, reused per
  // op (entries with a zero product are dropped -- they cannot change the
  // adder tree -- but still count toward band occupancy, which is an
  // exponent-level notion).
  EhuResult ehu_;
  std::vector<int32_t> entry_begin_;
  std::vector<int32_t> entry_cursor_;
  std::vector<int32_t> entry_p_;
  std::vector<int32_t> entry_shift_;
  // Vectorized-path scratch: 5 diagonal product planes and their per-lane
  // serve band / up-shift planes, plane-major with a shared stride, plus
  // the fused-EHU align/band planes.
  std::vector<int16_t> diag_;
  std::vector<int32_t> dband_, dup_;
  std::vector<int32_t> falign_, fband_;
};

// ---------------------------------------------------------------------------

template <FpFormat F>
int SpatialIpu::fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();
  const int kn = fp_nibble_count(F);
  const int top_weight = 2 * (4 * (kn - 1) - fp_pad_bits(F));  // wi+wj of (K-1,K-1)

  std::vector<Decoded> da(n), db(n);
  std::vector<NibbleOperand> na(n), nb(n);
  for (size_t k = 0; k < n; ++k) {
    da[k] = a[k].decode();
    db[k] = b[k].decode();
    na[k] = decompose_fp<F>(da[k]);
    nb[k] = decompose_fp<F>(db[k]);
  }

  const EhuResult ehu = run_ehu(da, db, cfg_.ehu_options());

  const int w = cfg_.effective_adder_tree_width();
  const int guard = cfg_.window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;

  // Combined shift per (k, i, j): EHU alignment + nibble-significance
  // offset, so every lane product aligns against 2^(max_exp + top_weight).
  // Find the band span first.
  int max_band = 0;
  uint64_t occupied = 1;
  if (!single_cycle) {
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int wi = na[k].weight_exp[static_cast<size_t>(i)];
          const int wj = nb[k].weight_exp[static_cast<size_t>(j)];
          const int shift = ehu.align[k] + top_weight - (wi + wj);
          const int band = shift / sp;
          max_band = std::max(max_band, band);
          occupied |= uint64_t{1} << std::min(band, 63);
        }
      }
    }
  }
  const int bands = single_cycle ? 1 : max_band + 1;

  // value(lane) = p * 2^(wi+wj) * 2^(E_k - 2 man) ; aligned to the top:
  // = p * 2^(-shift) * 2^(top_weight + max_exp - 2 man).
  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;

  for (int c = 0; c < bands; ++c) {
    int128 tree_sum = 0;
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int wi = na[k].weight_exp[static_cast<size_t>(i)];
          const int wj = nb[k].weight_exp[static_cast<size_t>(j)];
          const int shift = ehu.align[k] + top_weight - (wi + wj);
          if (!single_cycle && shift / sp != c) continue;
          const int local = single_cycle ? std::min(shift, w) : shift - c * sp;
          const int32_t p = multiply_lane(na[k].v[static_cast<size_t>(i)],
                                          nb[k].v[static_cast<size_t>(j)]);
          const int net = guard - local;
          tree_sum += net >= 0 ? shl(p, net) : asr(p, -net);
        }
      }
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    acc_.add(rescale >= 0 ? shl(tree_sum, rescale) : asr(tree_sum, -rescale),
             ehu.max_exp);
  }

  const int cycles =
      single_cycle
          ? 1
          : (cfg_.skip_empty_bands
                 ? __builtin_popcountll(occupied & ((max_band >= 63)
                                                        ? ~uint64_t{0}
                                                        : ((uint64_t{1} << (max_band + 1)) - 1)))
                 : bands);
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

template <typename TreeInt>
int SpatialIpu::run_prepared_fp16(const PreparedFp16View& a,
                                  const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);
  constexpr int top_weight = 2 * (4 * (kn - 1) - z);

  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          cfg_.ehu_options(), ehu_);

  const int w = cfg_.effective_adder_tree_width();
  const int guard = cfg_.window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;

  // Static significance offsets: lane product (i, j) sits top_weight -
  // (wi + wj) below the op's top-aligned product, wi = 4i - z.
  // shift(k, i, j) = align[k] + offs(i, j).
  auto offs = [](int i, int j) { return top_weight - (4 * i - z) - (4 * j - z); };

  // Band span and occupancy, exactly as the per-op path computes them
  // (exponent-level: every unmasked lane product counts, zero or not).
  int max_band = 0;
  uint64_t occupied = 1;
  if (!single_cycle) {
    for (size_t k = 0; k < n; ++k) {
      if (ehu_.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int band = (ehu_.align[k] + offs(i, j)) / sp;
          max_band = std::max(max_band, band);
          occupied |= uint64_t{1} << std::min(band, 63);
        }
      }
    }
  }
  const int bands = single_cycle ? 1 : max_band + 1;

  // Group the nonzero lane products by serve band (counting sort into
  // reused scratch); zero products are dropped here -- adding a zero to the
  // adder tree is a no-op -- after occupancy was counted above.
  entry_begin_.assign(static_cast<size_t>(bands) + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    if (ehu_.masked[k]) continue;
    for (int i = 0; i < kn; ++i) {
      if (a.nib_plane(i)[k] == 0) continue;
      for (int j = 0; j < kn; ++j) {
        if (b.nib_plane(j)[k] == 0) continue;
        const int shift = ehu_.align[k] + offs(i, j);
        const int c = single_cycle ? 0 : shift / sp;
        ++entry_begin_[static_cast<size_t>(c) + 1];
      }
    }
  }
  for (int c = 0; c < bands; ++c) {
    entry_begin_[static_cast<size_t>(c) + 1] += entry_begin_[static_cast<size_t>(c)];
  }
  entry_cursor_.assign(entry_begin_.begin(), entry_begin_.end());
  const auto total = static_cast<size_t>(entry_begin_[static_cast<size_t>(bands)]);
  entry_p_.resize(total);
  entry_shift_.resize(total);
  for (size_t k = 0; k < n; ++k) {
    if (ehu_.masked[k]) continue;
    for (int i = 0; i < kn; ++i) {
      const int8_t nai = a.nib_plane(i)[k];
      if (nai == 0) continue;
      for (int j = 0; j < kn; ++j) {
        const int8_t nbj = b.nib_plane(j)[k];
        if (nbj == 0) continue;
        const int shift = ehu_.align[k] + offs(i, j);
        const int c = single_cycle ? 0 : shift / sp;
        const int local = single_cycle ? std::min(shift, w) : shift - c * sp;
        const auto slot = static_cast<size_t>(entry_cursor_[static_cast<size_t>(c)]++);
        entry_p_[slot] = static_cast<int32_t>(nai) * static_cast<int32_t>(nbj);
        entry_shift_[slot] = guard - local;
      }
    }
  }

  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;
  for (int c = 0; c < bands; ++c) {
    TreeInt tree_sum = 0;
    for (auto e = static_cast<size_t>(entry_begin_[static_cast<size_t>(c)]),
              end = static_cast<size_t>(entry_begin_[static_cast<size_t>(c) + 1]);
         e != end; ++e) {
      const int s = entry_shift_[e];
      tree_sum += s >= 0 ? static_cast<TreeInt>(entry_p_[e]) << s
                         : static_cast<TreeInt>(entry_p_[e] >> -s);
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    const auto tree128 = static_cast<int128>(tree_sum);
    acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
             ehu_.max_exp);
  }

  const int cycles =
      single_cycle
          ? 1
          : (cfg_.skip_empty_bands
                 ? __builtin_popcountll(occupied & ((max_band >= 63)
                                                        ? ~uint64_t{0}
                                                        : ((uint64_t{1} << (max_band + 1)) - 1)))
                 : bands);
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

template <bool kNarrow>
int SpatialIpu::run_prepared_fp16_simd(const PreparedFp16View& a,
                                       const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);
  constexpr int top_weight = 2 * (4 * (kn - 1) - z);
  constexpr int kDiags = 2 * kn - 1;
  const simd::KernelTable& K = simd::kernels();

  if (n == 0) return run_prepared_fp16<int64_t>(a, b);

  const int guard = cfg_.window_guard();
  const int sp = cfg_.safe_precision();

  falign_.resize(n);
  fband_.resize(n);
  int32_t max_exp, ehu_max_band, n_masked, max_align;
  uint32_t ehu_occ;
  if (!K.ehu_fused_i32(a.exp, b.exp, n, cfg_.software_precision,
                       std::max(sp, 1), falign_.data(), fband_.data(),
                       &max_exp, &ehu_occ, &ehu_max_band, &n_masked,
                       &max_align)) {
    return run_prepared_fp16<int64_t>(a, b);
  }

  // Combined shift of lane product (k, i, j) = align[k] + offs(i + j) with
  // offs(s) = top_weight + 2z - 4s, so band and up-shift are per (k, s).
  // One kernel call produces all kDiags planes plus the band span and
  // occupancy exactly as the oracle computes them per product: every
  // diagonal has at least one (i, j), and band(k, i, j) depends only on
  // (k, s), so the occupied set over (k, s) is identical.
  const size_t stride = prepared_plane_stride(n);
  dband_.resize(kDiags * stride);
  dup_.resize(kDiags * stride);
  int32_t dmax = -1;
  uint32_t docc = 0;
  K.diag_bands_i32(falign_.data(), fband_.data(), n, top_weight + 2 * z,
                   kDiags, sp, guard, stride, dband_.data(), dup_.data(),
                   &dmax, &docc);
  const int max_band = std::max(static_cast<int>(dmax), 0);
  const uint64_t occupied = uint64_t{docc} | 1;
  const int bands = max_band + 1;
  if (bands > simd::kMaxBands) return run_prepared_fp16<int64_t>(a, b);

  diag_.resize(kDiags * stride);
  K.fp16_diag_products(a.nib, a.nib_stride, b.nib, b.nib_stride, n,
                       diag_.data(), stride);

  int64_t sums[simd::kMaxBands];
  if constexpr (kNarrow) {
    K.diag_band_sums_planes_i32(diag_.data(), dband_.data(), dup_.data(),
                                stride, kDiags, n, bands, sums);
  } else {
    K.diag_band_sums_planes_i64(diag_.data(), dband_.data(), dup_.data(),
                                stride, kDiags, n, bands, sums);
  }

  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;
  const bool fast = acc_.fast64_ok(kNarrow ? 31 : 62, base_rescale);
  for (int c = 0; c < bands; ++c) {
    const int rescale = base_rescale - c * sp;
    if (fast) {
      acc_.add_tree64(sums[c], rescale, max_exp);
      continue;
    }
    const auto tree128 = static_cast<int128>(sums[c]);
    acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
             max_exp);
  }

  // bands <= kMaxBands here, so max_band < 63 and the occupancy kernel's
  // min(band, 31) clamp never reaches the bits this mask keeps.
  const int cycles =
      cfg_.skip_empty_bands
          ? __builtin_popcountll(occupied & ((uint64_t{1} << (max_band + 1)) - 1))
          : bands;
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

inline int SpatialIpu::fp16_accumulate_prepared(const PreparedFp16View& a,
                                                const PreparedFp16View& b) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  // 9-bit lane products shifted up to window_guard, summed over n * Ka*Kb
  // parallel multipliers.
  const int tree_bits =
      std::max(cfg_.window_guard(), 0) + 9 +
      ceil_log2(std::max(cfg_.n_inputs, 1) *
                multipliers_per_input<kFp16Format>()) +
      1;
  // The vector path needs MC mode (net shifts are then pure left shifts,
  // which distribute over the diagonal pre-sums) and exact magic-multiply
  // banding (combined shift < 2^16 for every unmasked lane).
  if (simd::active_backend() != simd::Backend::kScalar && cfg_.multi_cycle &&
      cfg_.software_precision < 65000) {
    if (tree_bits <= 31) return run_prepared_fp16_simd<true>(a, b);
    if (tree_bits <= 62) return run_prepared_fp16_simd<false>(a, b);
  }
  return tree_bits <= 62 ? run_prepared_fp16<int64_t>(a, b)
                         : run_prepared_fp16<int128>(a, b);
}

}  // namespace mpipu
