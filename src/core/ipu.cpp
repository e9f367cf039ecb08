#include "core/ipu.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/simd/simd.h"

namespace mpipu {

int Ipu::run_fp_iteration(std::span<const NibbleOperand> na,
                          std::span<const NibbleOperand> nb, int i, int j,
                          const EhuResult& ehu, int scale_bias) {
  const size_t n = na.size();
  const int w = cfg_.effective_adder_tree_width();
  const int guard = cfg_.window_guard();  // w - 10
  const int sp = cfg_.safe_precision();   // w - 9

  // The iteration's contribution has lane-weight 2^(wi + wj) relative to the
  // signed-magnitude product, and the product pair with max_exp carries
  // value sm_a*sm_b * 2^(max_exp - 2*man_bits).
  const int wi = na[0].weight_exp[static_cast<size_t>(i)];
  const int wj = nb[0].weight_exp[static_cast<size_t>(j)];

  // The accumulator convention is value = mantissa * 2^(in_exp - frac_bits);
  // we report in_exp = max_exp so acc_exp tracks the paper's "accumulator
  // exponent".  The adder-tree output S (window-scaled by 2^-guard) then
  // needs a fixed re-scale of wi + wj - 2*man_bits - guard + frac_bits,
  // minus the band-base shift c*sp in MC mode.  Left re-scales are exact
  // (zero fill); right re-scales truncate -- the accumulator-input shifter.
  const int base_rescale =
      wi + wj - scale_bias - guard + acc_.config().frac_bits;

  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu.mc_cycles;

  for (int c = 0; c < bands; ++c) {
    int128 tree_sum = 0;
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      if (!single_cycle && ehu.band[k] != c) continue;
      const int32_t p = multiply_lane(na[k].v[static_cast<size_t>(i)],
                                      nb[k].v[static_cast<size_t>(j)]);
      // Local right shift within the w-bit window: full alignment in
      // single-cycle mode, band-relative remainder in MC mode.  Bits pushed
      // below the window LSB are truncated (arithmetic shift).
      const int local_shift =
          single_cycle ? std::min(ehu.align[k], w) : ehu.align[k] - c * sp;
      assert(local_shift >= 0);
      assert(single_cycle || local_shift < sp);  // Proposition 1 in MC mode.
      // Place the product at the top of the w-bit window (guard may be
      // negative for w < 10: even unshifted products then lose low bits).
      const int net_shift = guard - local_shift;
      tree_sum += net_shift >= 0 ? shl(p, net_shift) : asr(p, -net_shift);
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    const int128 mantissa =
        rescale >= 0 ? shl(tree_sum, rescale) : asr(tree_sum, -rescale);
    acc_.add(mantissa, ehu.max_exp);
  }

  // Cycle accounting: the paper's serve loop burns a cycle per alignment
  // band; the skip-empty ablation (a smarter EHU) only pays for occupied
  // bands.  Band occupancy is an EHU-level notion (exponent based), so a
  // band of all-zero magnitudes still costs its cycle in both modes.
  const int cycles_used = single_cycle
                              ? 1
                              : (cfg_.skip_empty_bands ? ehu.mc_cycles_skip_empty
                                                       : ehu.mc_cycles);
  if (cycles_used > 1) ++stats_.multi_cycle_ops;
  return cycles_used;
}

template <typename TreeInt>
int Ipu::run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);

  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          cfg_.ehu_options(), ehu_);

  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu_.mc_cycles;
  sched_.build(ehu_, bands, single_cycle, cfg_.window_guard(), sp,
               cfg_.effective_adder_tree_width());

  // Same per-iteration cost rule as run_fp_iteration: the serve loop burns
  // a cycle per band (occupied bands only under the skip-empty ablation).
  const int cycles_per_iter =
      single_cycle ? 1
                   : (cfg_.skip_empty_bands ? ehu_.mc_cycles_skip_empty
                                            : ehu_.mc_cycles);
  const int frac_bits = acc_.config().frac_bits;
  const int guard = cfg_.window_guard();

  int cycles = 0;
  for (int i = 0; i < kn; ++i) {
    for (int j = 0; j < kn; ++j) {
      const int8_t* an = a.nib_plane(i);
      const int8_t* bn = b.nib_plane(j);
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (int32_t k : sched_.order) {
          if (an[static_cast<size_t>(k)] != 0 && bn[static_cast<size_t>(k)] != 0) {
            all_zero = false;
            break;
          }
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      const int wi = 4 * i - z;
      const int wj = 4 * j - z;
      const int base_rescale = wi + wj - 2 * F.man_bits - guard + frac_bits;
      for (int c = 0; c < bands; ++c) {
        TreeInt tree_sum = 0;
        const int32_t* lane = sched_.order.data() + sched_.begin[static_cast<size_t>(c)];
        const int32_t* lane_end = sched_.order.data() + sched_.begin[static_cast<size_t>(c) + 1];
        for (; lane != lane_end; ++lane) {
          const auto k = static_cast<size_t>(*lane);
          const int32_t p =
              static_cast<int32_t>(an[k]) * static_cast<int32_t>(bn[k]);
          if (p == 0) continue;  // shifting and adding zero is a no-op
          const int s = sched_.net_shift[k];
          // C++20 shifts: << on a negative TreeInt and >> arithmetic are
          // both well defined and match bits.h's shl/asr exactly.
          tree_sum += s >= 0 ? static_cast<TreeInt>(p) << s
                             : static_cast<TreeInt>(p >> -s);
        }
        const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
        const auto tree128 = static_cast<int128>(tree_sum);
        acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
                 ehu_.max_exp);
      }
      cycles += cycles_per_iter;
      if (cycles_per_iter > 1) ++stats_.multi_cycle_ops;
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += kn * kn;
  stats_.cycles += cycles;
  for (size_t k = 0; k < n; ++k) stats_.masked_products += ehu_.masked[k] != 0;
  return cycles;
}

template <bool kNarrow>
int Ipu::run_prepared_fp16_simd(const PreparedFp16View& a,
                                const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);
  const simd::KernelTable& K = simd::kernels();

  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          cfg_.ehu_options(), ehu_);

  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu_.mc_cycles;
  // One vector accumulator per band; wider alignment spreads take the
  // scalar oracle (same results -- the EHU re-run lands in the same
  // scratch).
  if (bands > simd::kMaxBands) return run_prepared_fp16<int64_t>(a, b);

  serve_band_.resize(n);
  up_.resize(n);
  down_.resize(n);
  K.serve_shifts_i32(ehu_.align.data(), ehu_.band.data(), n,
                     cfg_.window_guard(), sp, single_cycle ? 1 : 0,
                     cfg_.effective_adder_tree_width(), serve_band_.data(),
                     up_.data(), down_.data());

  const int cycles_per_iter =
      single_cycle ? 1
                   : (cfg_.skip_empty_bands ? ehu_.mc_cycles_skip_empty
                                            : ehu_.mc_cycles);
  const int frac_bits = acc_.config().frac_bits;
  const int guard = cfg_.window_guard();

  int cycles = 0;
  for (int i = 0; i < kn; ++i) {
    for (int j = 0; j < kn; ++j) {
      const int8_t* an = a.nib_plane(i);
      const int8_t* bn = b.nib_plane(j);
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (size_t k = 0; k < n; ++k) {
          if (serve_band_[k] >= 0 && an[k] != 0 && bn[k] != 0) {
            all_zero = false;
            break;
          }
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      int64_t sums[simd::kMaxBands] = {0};
      if constexpr (kNarrow) {
        K.nibble_band_sums_i32(an, bn, serve_band_.data(), up_.data(),
                               down_.data(), n, bands, sums);
      } else {
        K.nibble_band_sums_i64(an, bn, serve_band_.data(), up_.data(),
                               down_.data(), n, bands, sums);
      }
      const int wi = 4 * i - z;
      const int wj = 4 * j - z;
      const int base_rescale = wi + wj - 2 * F.man_bits - guard + frac_bits;
      const bool fast = acc_.fast64_ok(kNarrow ? 31 : 62, base_rescale);
      for (int c = 0; c < bands; ++c) {
        const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
        if (fast) {
          acc_.add_tree64(sums[c], rescale, ehu_.max_exp);
          continue;
        }
        const auto tree128 = static_cast<int128>(sums[c]);
        acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
                 ehu_.max_exp);
      }
      cycles += cycles_per_iter;
      if (cycles_per_iter > 1) ++stats_.multi_cycle_ops;
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += kn * kn;
  stats_.cycles += cycles;
  for (size_t k = 0; k < n; ++k) stats_.masked_products += ehu_.masked[k] != 0;
  return cycles;
}

int Ipu::run_prepared_fp16_fused(const PreparedFp16View& a,
                                 const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  static_assert(fp_nibble_count(F) == 3);  // the fused kernel is 3x3
  constexpr int z = fp_pad_bits(F);
  const simd::KernelTable& K = simd::kernels();

  const int sp = cfg_.safe_precision();
  const int guard = cfg_.window_guard();

  falign_.resize(simd::kFusedLanes);
  fband_.resize(simd::kFusedLanes);
  int32_t max_exp, max_band, n_masked, max_align;
  uint32_t occ;
  if (!K.ehu_fused_i32(a.exp, b.exp, n, cfg_.software_precision,
                       std::max(sp, 1), falign_.data(), fband_.data(), &max_exp,
                       &occ, &max_band, &n_masked, &max_align)) {
    // Alignment spread or software precision past the magic-divide bound:
    // take the scalar oracle (which re-runs the EHU into its own scratch).
    return run_prepared_fp16<int64_t>(a, b);
  }
  const int bands = std::max(max_band, 0) + 1;
  if (bands > simd::kMaxBands) return run_prepared_fp16<int64_t>(a, b);

  // Serve planes padded through kFusedLanes (band -1, shifts 0) so the
  // fused band-sum kernel can run whole 16-lane registers.
  for (size_t k = n; k < simd::kFusedLanes; ++k) {
    falign_[k] = 0;
    fband_[k] = -1;
  }
  serve_band_.resize(simd::kFusedLanes);
  up_.resize(simd::kFusedLanes);
  down_.resize(simd::kFusedLanes);
  K.serve_shifts_i32(falign_.data(), fband_.data(), simd::kFusedLanes, guard,
                     sp, 0, cfg_.effective_adder_tree_width(),
                     serve_band_.data(), up_.data(), down_.data());

  int64_t sums[9 * simd::kMaxBands];
  uint32_t nz = 0;
  K.nibble_fused3x3_i16(a.nib, a.nib_stride, b.nib, b.nib_stride,
                        serve_band_.data(), up_.data(), n, bands, sums, &nz);

  const int cycles_per_iter =
      cfg_.skip_empty_bands ? (occ ? std::popcount(occ) : 1) : bands;
  const int frac_bits = acc_.config().frac_bits;
  int cycles = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const int it = i * 3 + j;
      if (cfg_.skip_zero_iterations && ((nz >> it) & 1u) == 0) {
        ++stats_.skipped_iterations;
        continue;
      }
      const int base_rescale =
          (4 * i - z) + (4 * j - z) - 2 * F.man_bits - guard + frac_bits;
      const bool fast = acc_.fast64_ok(31, base_rescale);
      const int64_t* s = sums + static_cast<size_t>(it) * simd::kMaxBands;
      for (int c = 0; c < bands; ++c) {
        const int rescale = base_rescale - c * sp;
        if (fast) {
          acc_.add_tree64(s[c], rescale, max_exp);
          continue;
        }
        const auto tree128 = static_cast<int128>(s[c]);
        acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
                 max_exp);
      }
      cycles += cycles_per_iter;
      if (cycles_per_iter > 1) ++stats_.multi_cycle_ops;
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += 9;
  stats_.cycles += cycles;
  stats_.masked_products += n_masked;
  return cycles;
}

int Ipu::fp16_accumulate_prepared(const PreparedFp16View& a,
                                  const PreparedFp16View& b) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  // 9-bit lane products shifted up to window_guard and summed over n lanes:
  // stay in int64 whenever that bound fits, spill to int128 otherwise
  // (identical results either way; the adder tree is exact integer math).
  const int tree_bits =
      std::max(cfg_.window_guard(), 0) + 9 + ceil_log2(std::max(cfg_.n_inputs, 1)) + 1;
  if (simd::active_backend() != simd::Backend::kScalar) {
    // Whole-op fused kernels: MC mode guarantees up-only window shifts of
    // at most guard, and guard <= 7 keeps every shifted product in int16
    // (|a*b| <= 225, 225 << 7 < 2^15); 16 lanes of those stay far inside
    // int32, so the madd-based band sums are exact.
    if (cfg_.multi_cycle && guard_in_fused_range() && a.n >= 1 &&
        a.n <= simd::kFusedLanes) {
      return run_prepared_fp16_fused(a, b);
    }
    // Any subset of the lane products is bounded by the same tree bound
    // (sum of absolute values), so the per-band vector partial sums stay
    // exact in int32 lanes whenever the bound fits 31 bits.
    if (tree_bits <= 31) return run_prepared_fp16_simd<true>(a, b);
    if (tree_bits <= 62) return run_prepared_fp16_simd<false>(a, b);
  }
  return tree_bits <= 62 ? run_prepared_fp16<int64_t>(a, b)
                         : run_prepared_fp16<int128>(a, b);
}

int Ipu::int_accumulate_prepared(const PreparedIntView& a,
                                 const PreparedIntView& b, int a_bits,
                                 int b_bits) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  const size_t n = a.n;
  const int ka = int_nibble_count(a_bits);
  const int kb = int_nibble_count(b_bits);
  assert(a.lanes == ka && b.lanes == kb);
  const bool use_simd = simd::active_backend() != simd::Backend::kScalar;
  const simd::KernelTable& K = simd::kernels();

  // Mirrors int_accumulate: zero local shift, exact adder tree, 4*(i+j)
  // significance shift at the accumulator -- minus the per-op decomposition.
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      const int8_t* an = a.nib_plane(i);
      const int8_t* bn = b.nib_plane(j);
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (size_t k = 0; k < n && all_zero; ++k) {
          all_zero = an[k] == 0 || bn[k] == 0;
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      int64_t tree_sum;
      if (use_simd) {
        tree_sum = K.dot_i8(an, bn, n);
      } else {
        tree_sum = 0;
        for (size_t k = 0; k < n; ++k) {
          tree_sum += multiply_lane(an[k], bn[k]);
        }
      }
      int_acc_ += tree_sum << (4 * (i + j));
      ++cycles;
    }
  }

  ++stats_.int_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  return cycles;
}

int Ipu::int_accumulate(std::span<const int32_t> a, std::span<const int32_t> b,
                        int a_bits, int b_bits, bool a_unsigned, bool b_unsigned) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();

  nib_a_.resize(n);
  nib_b_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    nib_a_[k] = a_unsigned ? decompose_int_unsigned(a[k], a_bits)
                           : decompose_int(a[k], a_bits);
    nib_b_[k] = b_unsigned ? decompose_int_unsigned(b[k], b_bits)
                           : decompose_int(b[k], b_bits);
  }
  const int ka = int_nibble_count(a_bits);
  const int kb = int_nibble_count(b_bits);

  // INT mode: zero local shift, exact adder tree, significance shift of
  // 4*(i+j) applied at the accumulator (always a left placement into the
  // wide register, so no bits are ever lost).
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (size_t k = 0; k < n && all_zero; ++k) {
          all_zero = nib_a_[k].v[static_cast<size_t>(i)] == 0 ||
                     nib_b_[k].v[static_cast<size_t>(j)] == 0;
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      int64_t tree_sum = 0;
      for (size_t k = 0; k < n; ++k) {
        tree_sum += multiply_lane(nib_a_[k].v[static_cast<size_t>(i)],
                                  nib_b_[k].v[static_cast<size_t>(j)]);
      }
      int_acc_ += tree_sum << (4 * (i + j));
      ++cycles;
    }
  }

  ++stats_.int_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  return cycles;
}

}  // namespace mpipu
