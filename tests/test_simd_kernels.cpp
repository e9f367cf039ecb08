// Differential tests for the portable SIMD kernel layer (core/simd).
//
// Two walls, both pinned against the scalar reference implementations:
//
//  * kernel-level: every KernelTable entry of every compiled vector backend
//    must produce byte-identical outputs to the scalar table over ragged
//    view lengths (vector body + scalar tail), empty bands, all-masked
//    lanes and all-zero operand planes;
//  * datapath-level: a scheme unit running with a vector backend forced
//    must produce bit-identical accumulator values, per-op cycle counts
//    and stats to the same unit running scalar-forced, across scheme x
//    {FP16, INT8, INT4} x adder-tree width x mode sweeps (including the
//    configs that route through the fused whole-op kernels and the ones
//    that fall back to the scalar oracle).
//
// When only the scalar backend is compiled in (the default build without
// MPIPU_NATIVE) the differential tests skip -- there is nothing to diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/datapath.h"
#include "core/simd/simd.h"

namespace mpipu {
namespace {

using simd::Backend;
using simd::KernelTable;

/// Every vector backend compiled into this binary.
std::vector<Backend> vector_backends() {
  std::vector<Backend> v;
  if (simd::backend_compiled(Backend::kAvx2)) v.push_back(Backend::kAvx2);
  return v;
}

/// Restores the startup backend selection on scope exit.
struct BackendGuard {
  ~BackendGuard() { simd::reset_backend(); }
};

// View lengths covering empty vector bodies, exact vector widths and ragged
// scalar tails; the fused kernels cap at kFusedLanes.
constexpr size_t kSizes[] = {1, 5, 8, 13, 16, 31, 37};
constexpr size_t kFusedSizes[] = {1, 5, 8, 13, 16};

std::vector<int8_t> random_nibbles(Rng& rng, size_t n, bool all_zero = false) {
  std::vector<int8_t> v(n, 0);
  if (!all_zero) {
    for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
  }
  return v;
}

/// Serve-band plane: lane bands in [-1, bands), padded through `pad` with
/// -1 (the driver-owned-plane contract of the fused kernels).
std::vector<int32_t> random_bands(Rng& rng, size_t n, int bands, size_t pad,
                                  bool all_masked = false) {
  std::vector<int32_t> v(std::max(n, pad), -1);
  for (size_t k = 0; k < n; ++k) {
    v[k] = all_masked ? -1
                      : static_cast<int32_t>(rng.uniform_int(-1, bands - 1));
  }
  return v;
}

std::vector<int32_t> random_i32(Rng& rng, size_t n, int64_t lo, int64_t hi,
                                size_t pad = 0) {
  std::vector<int32_t> v(std::max(n, pad), 0);
  for (size_t k = 0; k < n; ++k) {
    v[k] = static_cast<int32_t>(rng.uniform_int(lo, hi));
  }
  return v;
}

// --- kernel-level equality ---------------------------------------------------

TEST(SimdKernels, EhuStagesMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(11);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto ea = random_i32(rng, n, -2000, 2000);
        const auto eb = random_i32(rng, n, -2000, 2000);
        std::vector<int32_t> sum_s(n), sum_v(n);
        int32_t mx_s, mn_s, mx_v, mn_v;
        S.sum_minmax_i32(ea.data(), eb.data(), sum_s.data(), n, &mx_s, &mn_s);
        V.sum_minmax_i32(ea.data(), eb.data(), sum_v.data(), n, &mx_v, &mn_v);
        EXPECT_EQ(sum_s, sum_v);
        EXPECT_EQ(mx_s, mx_v);
        EXPECT_EQ(mn_s, mn_v);

        std::vector<int32_t> al_s(n), al_v(n);
        S.rsub_i32(mx_s, sum_s.data(), al_s.data(), n);
        V.rsub_i32(mx_s, sum_s.data(), al_v.data(), n);
        EXPECT_EQ(al_s, al_v);

        // mask_and_band needs 0 <= align < 2^16 and 1 <= sp < 2^16.
        const auto align = random_i32(rng, n, 0, 65535);
        const int32_t soft = static_cast<int32_t>(rng.uniform_int(0, 100));
        const int32_t sp = static_cast<int32_t>(rng.uniform_int(1, 40));
        std::vector<int32_t> band_s(n), band_v(n);
        std::vector<uint8_t> m_s(n), m_v(n);
        S.mask_and_band_i32(align.data(), n, soft, sp, band_s.data(), m_s.data());
        V.mask_and_band_i32(align.data(), n, soft, sp, band_v.data(), m_v.data());
        EXPECT_EQ(band_s, band_v);
        EXPECT_EQ(m_s, m_v);

        std::vector<int32_t> sb_s(n), up_s(n), dn_s(n), sb_v(n), up_v(n), dn_v(n);
        for (int sc = 0; sc < 2; ++sc) {
          S.serve_shifts_i32(align.data(), band_s.data(), n, sp - 1, sp, sc, 28,
                             sb_s.data(), up_s.data(), dn_s.data());
          V.serve_shifts_i32(align.data(), band_s.data(), n, sp - 1, sp, sc, 28,
                             sb_v.data(), up_v.data(), dn_v.data());
          EXPECT_EQ(sb_s, sb_v);
          EXPECT_EQ(up_s, up_v);
          EXPECT_EQ(dn_s, dn_v);
        }
      }
    }
  }
}

TEST(SimdKernels, EhuFusedMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(12);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 30; ++trial) {
        // Narrow spreads exercise the banding math; the wide-spread trial
        // exercises the magic-divide bail (both backends must agree on it).
        const bool wide = trial % 10 == 9;
        const auto ea = random_i32(rng, n, -60, 60);
        auto eb = random_i32(rng, n, -60, 60);
        if (wide && n > 0) eb[n - 1] = -200000;
        const int32_t soft = static_cast<int32_t>(rng.uniform_int(0, 60));
        const int32_t sp = static_cast<int32_t>(rng.uniform_int(1, 30));
        std::vector<int32_t> al_s(n), bd_s(n), al_v(n), bd_v(n);
        int32_t me_s, mb_s, nm_s, ma_s, me_v, mb_v, nm_v, ma_v;
        uint32_t occ_s, occ_v;
        const bool ok_s =
            S.ehu_fused_i32(ea.data(), eb.data(), n, soft, sp, al_s.data(),
                            bd_s.data(), &me_s, &occ_s, &mb_s, &nm_s, &ma_s);
        const bool ok_v =
            V.ehu_fused_i32(ea.data(), eb.data(), n, soft, sp, al_v.data(),
                            bd_v.data(), &me_v, &occ_v, &mb_v, &nm_v, &ma_v);
        ASSERT_EQ(ok_s, ok_v) << "n=" << n << " trial " << trial;
        if (!ok_s) continue;  // outputs unspecified on the bail path
        EXPECT_EQ(al_s, al_v);
        EXPECT_EQ(bd_s, bd_v);
        EXPECT_EQ(me_s, me_v);
        EXPECT_EQ(occ_s, occ_v);
        EXPECT_EQ(mb_s, mb_v);
        EXPECT_EQ(nm_s, nm_v);
        EXPECT_EQ(ma_s, ma_v);
      }
    }
  }
}

TEST(SimdKernels, NibbleBandSumsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(13);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const int bands = static_cast<int>(rng.uniform_int(1, simd::kMaxBands));
        const bool zero_planes = trial == 0;
        const auto pa = random_nibbles(rng, n, zero_planes);
        const auto pb = random_nibbles(rng, n, zero_planes);
        const auto band = random_bands(rng, n, bands, n, trial == 1);
        const auto up = random_i32(rng, n, 0, 7);
        const auto down = random_i32(rng, n, 0, trial % 2 == 0 ? 0 : 5);
        int64_t s_s[simd::kMaxBands] = {0}, s_v[simd::kMaxBands] = {0};
        S.nibble_band_sums_i32(pa.data(), pb.data(), band.data(), up.data(),
                               down.data(), n, bands, s_s);
        V.nibble_band_sums_i32(pa.data(), pb.data(), band.data(), up.data(),
                               down.data(), n, bands, s_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(s_s[c], s_v[c]) << c;
        int64_t l_s[simd::kMaxBands] = {0}, l_v[simd::kMaxBands] = {0};
        S.nibble_band_sums_i64(pa.data(), pb.data(), band.data(), up.data(),
                               down.data(), n, bands, l_s);
        V.nibble_band_sums_i64(pa.data(), pb.data(), band.data(), up.data(),
                               down.data(), n, bands, l_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(l_s[c], l_v[c]) << c;
      }
    }
  }
}

TEST(SimdKernels, NibbleFused3x3MatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(14);
  constexpr size_t kStride = 32;
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kFusedSizes) {
      for (int trial = 0; trial < 30; ++trial) {
        const int bands = static_cast<int>(rng.uniform_int(1, simd::kMaxBands));
        const bool zero_planes = trial == 0;
        // 3 nibble planes each, plane-major; pads past n are live-looking
        // noise the kernel must ignore.
        std::vector<int8_t> a(3 * kStride), bb(3 * kStride);
        for (auto& x : a) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        for (auto& x : bb) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        if (zero_planes) {
          for (int i = 0; i < 3; ++i) {
            std::memset(a.data() + i * kStride, 0, n);
            std::memset(bb.data() + i * kStride, 0, n);
          }
        }
        const auto band =
            random_bands(rng, n, bands, simd::kFusedLanes, trial == 1);
        auto up = random_i32(rng, n, 0, 7, simd::kFusedLanes);
        int64_t s_s[9 * simd::kMaxBands], s_v[9 * simd::kMaxBands];
        uint32_t nz_s = 0, nz_v = 0;
        S.nibble_fused3x3_i16(a.data(), kStride, bb.data(), kStride,
                              band.data(), up.data(), n, bands, s_s, &nz_s);
        V.nibble_fused3x3_i16(a.data(), kStride, bb.data(), kStride,
                              band.data(), up.data(), n, bands, s_v, &nz_v);
        EXPECT_EQ(nz_s, nz_v) << "n=" << n << " trial " << trial;
        for (int i = 0; i < 9 * simd::kMaxBands; ++i) {
          EXPECT_EQ(s_s[i], s_v[i]) << "slot " << i << " n=" << n;
        }
        if (zero_planes) {
          EXPECT_EQ(nz_s, 0u);
        }
      }
    }
  }
}

TEST(SimdKernels, SerialKernelsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(15);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto a_sm = random_i32(rng, n, -2047, 2047);
        const auto b_sm = random_i32(rng, n, -2047, 2047);
        std::vector<uint32_t> mag_s(n), mag_v(n);
        std::vector<int32_t> p_s(n), p_v(n);
        S.serial_lanes_i32(a_sm.data(), b_sm.data(), n, mag_s.data(), p_s.data());
        V.serial_lanes_i32(a_sm.data(), b_sm.data(), n, mag_v.data(), p_v.data());
        EXPECT_EQ(mag_s, mag_v);
        EXPECT_EQ(p_s, p_v);

        const auto up = random_i32(rng, n, 0, 4);
        const auto down = random_i32(rng, n, 0, trial % 2 == 0 ? 0 : 3);
        std::vector<int32_t> v_s(n), v_v(n);
        S.shifted_lanes_i32(p_s.data(), up.data(), down.data(), n, v_s.data());
        V.shifted_lanes_i32(p_s.data(), up.data(), down.data(), n, v_v.data());
        EXPECT_EQ(v_s, v_v);
        std::vector<int64_t> w_s(n), w_v(n);
        S.shifted_lanes_i64(p_s.data(), up.data(), down.data(), n, w_s.data());
        V.shifted_lanes_i64(p_s.data(), up.data(), down.data(), n, w_v.data());
        EXPECT_EQ(w_s, w_v);

        const int bands = static_cast<int>(rng.uniform_int(1, simd::kMaxBands));
        const auto band = random_bands(rng, n, bands, n, trial == 1);
        const int t = static_cast<int>(rng.uniform_int(0, simd::kSerialSteps - 1));
        int64_t s_s[simd::kMaxBands] = {0}, s_v[simd::kMaxBands] = {0};
        S.serial_band_sums_i32(v_s.data(), mag_s.data(), t, band.data(), n,
                               bands, s_s);
        V.serial_band_sums_i32(v_s.data(), mag_s.data(), t, band.data(), n,
                               bands, s_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(s_s[c], s_v[c]) << c;
        int64_t l_s[simd::kMaxBands] = {0}, l_v[simd::kMaxBands] = {0};
        S.serial_band_sums_i64(w_s.data(), mag_s.data(), t, band.data(), n,
                               bands, l_s);
        V.serial_band_sums_i64(w_s.data(), mag_s.data(), t, band.data(), n,
                               bands, l_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(l_s[c], l_v[c]) << c;
      }
    }
  }
}

TEST(SimdKernels, SerialFusedMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(16);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kFusedSizes) {
      for (int trial = 0; trial < 30; ++trial) {
        const int bands = static_cast<int>(rng.uniform_int(1, simd::kMaxBands));
        // |v| < 2^15 (the guard <= 4 driver bound), mag < 2^13, zero pads.
        const auto v =
            random_i32(rng, n, -32752, 32752, simd::kFusedLanes);
        std::vector<uint32_t> mag(simd::kFusedLanes, 0);
        for (size_t k = 0; k < n; ++k) {
          mag[k] = static_cast<uint32_t>(rng.uniform_int(0, (1 << 13) - 1));
        }
        const auto band =
            random_bands(rng, n, bands, simd::kFusedLanes, trial == 1);
        int64_t s_s[simd::kMaxBands * simd::kSerialSteps];
        int64_t s_v[simd::kMaxBands * simd::kSerialSteps];
        S.serial_fused_i16(v.data(), mag.data(), band.data(), n, bands, s_s);
        V.serial_fused_i16(v.data(), mag.data(), band.data(), n, bands, s_v);
        for (int i = 0; i < bands * simd::kSerialSteps; ++i) {
          EXPECT_EQ(s_s[i], s_v[i]) << "slot " << i << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, SpatialKernelsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(17);
  constexpr int kPlanes = 5;
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      const size_t stride = (n + 31) & ~size_t{31};
      for (int trial = 0; trial < 20; ++trial) {
        // EHU-style inputs: align in the magic-divide-exact range, some
        // lanes masked via a negative EHU band.
        const auto align = random_i32(rng, n, 0, 60000);
        const auto ehu_band = random_bands(rng, n, 4, n, trial == 1);
        const int32_t sp = static_cast<int32_t>(rng.uniform_int(1, 30));
        const int32_t guard = sp - 1;
        const int32_t offs0 = 16;
        std::vector<int32_t> bd_s(kPlanes * stride), up_s(kPlanes * stride);
        std::vector<int32_t> bd_v(kPlanes * stride), up_v(kPlanes * stride);
        int32_t mb_s = 0, mb_v = 0;
        uint32_t occ_s = 0, occ_v = 0;
        S.diag_bands_i32(align.data(), ehu_band.data(), n, offs0, kPlanes, sp,
                         guard, stride, bd_s.data(), up_s.data(), &mb_s, &occ_s);
        V.diag_bands_i32(align.data(), ehu_band.data(), n, offs0, kPlanes, sp,
                         guard, stride, bd_v.data(), up_v.data(), &mb_v, &occ_v);
        EXPECT_EQ(mb_s, mb_v);
        EXPECT_EQ(occ_s, occ_v);
        for (int s = 0; s < kPlanes; ++s) {
          for (size_t k = 0; k < n; ++k) {
            const size_t i = static_cast<size_t>(s) * stride + k;
            EXPECT_EQ(bd_s[i], bd_v[i]) << "plane " << s << " lane " << k;
            EXPECT_EQ(up_s[i], up_v[i]) << "plane " << s << " lane " << k;
          }
        }

        // Diagonal products from random nibble planes (3 planes each side).
        std::vector<int8_t> pa(3 * stride), pb(3 * stride);
        for (auto& x : pa) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        for (auto& x : pb) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        std::vector<int16_t> d_s(kPlanes * stride, 0), d_v(kPlanes * stride, 0);
        S.fp16_diag_products(pa.data(), stride, pb.data(), stride, n,
                             d_s.data(), stride);
        V.fp16_diag_products(pa.data(), stride, pb.data(), stride, n,
                             d_v.data(), stride);
        for (int s = 0; s < kPlanes; ++s) {
          for (size_t k = 0; k < n; ++k) {
            const size_t i = static_cast<size_t>(s) * stride + k;
            EXPECT_EQ(d_s[i], d_v[i]) << "plane " << s << " lane " << k;
          }
        }

        // Band sums over all planes in one call; clamp bands and up-shifts
        // into the i32-safe range for the narrow variant.
        const int bands = std::min<int>(simd::kMaxBands, mb_s + 1);
        std::vector<int32_t> up_c(up_s);
        for (auto& u : up_c) u = std::min(u, 7);
        std::vector<int32_t> bd_c(bd_s);
        for (auto& c : bd_c) c = std::min(c, bands - 1);
        int64_t sums_s[simd::kMaxBands], sums_v[simd::kMaxBands];
        S.diag_band_sums_planes_i32(d_s.data(), bd_c.data(), up_c.data(),
                                    stride, kPlanes, n, bands, sums_s);
        V.diag_band_sums_planes_i32(d_s.data(), bd_c.data(), up_c.data(),
                                    stride, kPlanes, n, bands, sums_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(sums_s[c], sums_v[c]) << c;
        S.diag_band_sums_planes_i64(d_s.data(), bd_c.data(), up_c.data(),
                                    stride, kPlanes, n, bands, sums_s);
        V.diag_band_sums_planes_i64(d_s.data(), bd_c.data(), up_c.data(),
                                    stride, kPlanes, n, bands, sums_v);
        for (int c = 0; c < bands; ++c) EXPECT_EQ(sums_s[c], sums_v[c]) << c;
      }
    }
  }
}

TEST(SimdKernels, IntKernelsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(18);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto pa = random_nibbles(rng, n, trial == 0);
        const auto pb = random_nibbles(rng, n, trial == 0);
        EXPECT_EQ(S.dot_i8(pa.data(), pb.data(), n),
                  V.dot_i8(pa.data(), pb.data(), n));
        const auto a = random_i32(rng, n, -4095, 4095);
        const auto bits = random_i32(rng, n, 0, (1 << 12) - 1);
        const int t = static_cast<int>(rng.uniform_int(0, 11));
        EXPECT_EQ(S.bit_masked_sum_i32(a.data(), bits.data(), t, n),
                  V.bit_masked_sum_i32(a.data(), bits.data(), t, n));
      }
    }
  }
}

// --- datapath-level equality -------------------------------------------------

std::vector<Fp16> random_fp16_bits(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

/// Runs the same FP16 op sequence scalar-forced and vector-forced on fresh
/// units and asserts bit-identical values, cycles and stats.
void diff_fp16_config(const DatapathConfig& cfg, Backend vec, uint64_t seed) {
  // Generate the op sequence once (lengths ragged against n_inputs, raw
  // FP16 bit patterns for full exponent spread -- this drives both the
  // fused fast paths and their wide-spread scalar-oracle fallbacks).
  Rng rng(seed);
  struct Op {
    std::vector<Fp16> a, b;
  };
  std::vector<Op> ops;
  for (int t = 0; t < 60; ++t) {
    const int len = static_cast<int>(rng.uniform_int(1, cfg.n_inputs));
    ops.push_back({random_fp16_bits(rng, len), random_fp16_bits(rng, len)});
  }

  BackendGuard guard;
  ASSERT_TRUE(simd::force_backend(Backend::kScalar));
  auto ref = make_datapath(cfg);
  std::vector<DotResult> want;
  for (const Op& op : ops) want.push_back(ref->dot(op.a, op.b));
  const DatapathStats want_stats = ref->stats();

  ASSERT_TRUE(simd::force_backend(vec));
  auto dut = make_datapath(cfg);
  for (size_t i = 0; i < ops.size(); ++i) {
    const DotResult got = dut->dot(ops[i].a, ops[i].b);
    ASSERT_TRUE(got.raw == want[i].raw)
        << simd::backend_name(vec) << " vs scalar: value mismatch, op " << i
        << ", scheme " << scheme_name(cfg.scheme) << ", w="
        << cfg.adder_tree_width << ", sp=" << cfg.software_precision
        << ", mc=" << cfg.multi_cycle;
    ASSERT_EQ(got.cycles, want[i].cycles)
        << simd::backend_name(vec) << " vs scalar: cycle mismatch, op " << i
        << ", scheme " << scheme_name(cfg.scheme) << ", w="
        << cfg.adder_tree_width;
  }
  EXPECT_TRUE(dut->stats() == want_stats)
      << "stats diverged on " << scheme_name(cfg.scheme);
}

TEST(SimdDatapath, Fp16BitIdenticalAcrossBackends) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  uint64_t seed = 100;
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      for (int w : {10, 13, 16, 28, 38}) {
        for (bool mc : {true, false}) {
          for (int sp : {16, 28}) {
            DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
            cfg.n_inputs = 16;
            cfg.adder_tree_width = w;
            cfg.software_precision = sp;
            cfg.multi_cycle = mc;
            diff_fp16_config(cfg, vec, ++seed);
          }
        }
      }
    }
  }
}

TEST(SimdDatapath, Fp16SkipFlagsBitIdentical) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  uint64_t seed = 900;
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      for (int w : {16, 28}) {
        DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
        cfg.n_inputs = 16;
        cfg.adder_tree_width = w;
        cfg.software_precision = 28;
        cfg.multi_cycle = true;
        cfg.skip_empty_bands = true;
        cfg.skip_zero_iterations = scheme == DecompositionScheme::kTemporal;
        diff_fp16_config(cfg, vec, ++seed);
      }
    }
  }
}

TEST(SimdDatapath, IntModesBitIdenticalAcrossBackends) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "only the scalar backend is compiled in";
  Rng rng(200);
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      for (auto [a_bits, b_bits] :
           {std::pair{8, 8}, std::pair{4, 4}, std::pair{8, 4}}) {
        DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
        cfg.n_inputs = 16;
        cfg.adder_tree_width = 28;
        {
          auto probe = make_datapath(cfg);
          if (!probe->supports_int(a_bits, b_bits)) continue;
        }
        struct Op {
          std::vector<int32_t> a, b;
        };
        std::vector<Op> ops;
        for (int t = 0; t < 40; ++t) {
          const int len = static_cast<int>(rng.uniform_int(1, cfg.n_inputs));
          Op op;
          const int64_t amax = (1 << (a_bits - 1)) - 1;
          const int64_t bmax = (1 << (b_bits - 1)) - 1;
          op.a = random_i32(rng, static_cast<size_t>(len), -amax, amax);
          op.b = random_i32(rng, static_cast<size_t>(len), -bmax, bmax);
          ops.push_back(std::move(op));
        }

        BackendGuard guard;
        ASSERT_TRUE(simd::force_backend(Backend::kScalar));
        auto ref = make_datapath(cfg);
        std::vector<std::pair<int64_t, int>> want;
        for (const Op& op : ops) {
          const int cycles = ref->int_accumulate(op.a, op.b, a_bits, b_bits);
          want.push_back({ref->read_int(), cycles});
        }
        const DatapathStats want_stats = ref->stats();

        ASSERT_TRUE(simd::force_backend(vec));
        auto dut = make_datapath(cfg);
        for (size_t i = 0; i < ops.size(); ++i) {
          const int cycles =
              dut->int_accumulate(ops[i].a, ops[i].b, a_bits, b_bits);
          ASSERT_EQ(dut->read_int(), want[i].first)
              << scheme_name(scheme) << " INT" << a_bits << "x" << b_bits
              << " op " << i;
          ASSERT_EQ(cycles, want[i].second)
              << scheme_name(scheme) << " INT" << a_bits << "x" << b_bits
              << " op " << i;
        }
        EXPECT_TRUE(dut->stats() == want_stats);
      }
    }
  }
}

}  // namespace
}  // namespace mpipu
