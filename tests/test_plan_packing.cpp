// Packing identity: the compile-time plan builders (build_fp16_plan /
// build_int_plan -- per-tap conversion straight from the bank's doubles,
// pooled over output channels) must produce exactly the plan of the
// full-bank path (prepare_*_planes + ConvPlan::build).  Every clip class's
// gather offsets, stream length and packed planes are compared element for
// element, pad lanes included, for FP16, INT8 and INT4, with and without
// digit planes, on maps whose classes skip taps, at 1 and 3 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/conv_plan.h"
#include "nn/tensor.h"

namespace mpipu {
namespace {

struct Layer {
  const char* name;
  int cin, cout, k, stride, pad, in_hw;
};

// Maps whose clip classes drop taps: a 1x1 map reads only the kernel
// centre, 2x2 and 4x4 maps are mostly border, stride 2 shifts the window
// phase, and the 7x7 stem has many distinct border classes.
const Layer kLayers[] = {
    {"3x3 on 1x1", 8, 5, 3, 1, 1, 1},
    {"3x3 on 2x2", 6, 7, 3, 1, 1, 2},
    {"3x3 on 4x4", 5, 9, 3, 1, 1, 4},
    {"3x3 stride 2 on 5x5", 4, 6, 3, 2, 1, 5},
    {"1x1 stride 2 on 4x4", 6, 5, 1, 2, 0, 4},
    {"7x7 stride 2 stem on 16x16", 3, 8, 7, 2, 3, 16},
};

const int kThreadCounts[] = {1, 3};

FilterBank filters_for(const Layer& l, uint64_t seed) {
  Rng rng(seed);
  return random_filters(rng, l.cout, l.cin, l.k, l.k, ValueDist::kNormal,
                        0.25);
}

ConvSpec spec_for(const Layer& l) {
  ConvSpec s;
  s.stride = l.stride;
  s.pad = l.pad;
  return s;
}

template <typename T>
bool same_run(const T* a, const T* b, size_t n) {
  return std::equal(a, a + n, b);
}

void expect_same_planes(const PreparedFp16& a, const PreparedFp16& b,
                        const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.nib_stride(), b.nib_stride()) << where;
  const PreparedFp16View va = a.view(), vb = b.view();
  EXPECT_TRUE(same_run(va.exp, vb.exp, va.n)) << where << ": exp";
  EXPECT_TRUE(same_run(va.signed_mag, vb.signed_mag, va.n))
      << where << ": signed_mag";
  for (int lane = 0; lane < kFp16NibbleLanes; ++lane) {
    // Whole stride: the zero pad tail is part of the layout contract.
    EXPECT_TRUE(same_run(va.nib_plane(lane), vb.nib_plane(lane), va.nib_stride))
        << where << ": nibble lane " << lane;
  }
}

void expect_same_planes(const PreparedInt& a, const PreparedInt& b,
                        const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.bits(), b.bits()) << where;
  ASSERT_EQ(a.lanes(), b.lanes()) << where;
  ASSERT_EQ(a.nib_stride(), b.nib_stride()) << where;
  const PreparedIntView va = a.view(), vb = b.view();
  EXPECT_TRUE(same_run(va.value, vb.value, va.n)) << where << ": value";
  for (int lane = 0; lane < a.lanes(); ++lane) {
    EXPECT_TRUE(same_run(va.nib_plane(lane), vb.nib_plane(lane), va.nib_stride))
        << where << ": digit lane " << lane;
  }
}

template <typename Planes>
void expect_same_plan(const ConvPlan<Planes>& a, const ConvPlan<Planes>& b,
                      const std::string& where) {
  EXPECT_EQ(a.in_c, b.in_c) << where;
  EXPECT_EQ(a.in_h, b.in_h) << where;
  EXPECT_EQ(a.in_w, b.in_w) << where;
  EXPECT_EQ(a.ho, b.ho) << where;
  EXPECT_EQ(a.wo, b.wo) << where;
  EXPECT_EQ(a.cout, b.cout) << where;
  EXPECT_EQ(a.stride, b.stride) << where;
  EXPECT_EQ(a.pad, b.pad) << where;
  EXPECT_EQ(a.ys.class_of, b.ys.class_of) << where;
  EXPECT_EQ(a.ys.uniq, b.ys.uniq) << where;
  EXPECT_EQ(a.xs.class_of, b.xs.class_of) << where;
  EXPECT_EQ(a.xs.uniq, b.xs.uniq) << where;
  ASSERT_EQ(a.classes.size(), b.classes.size()) << where;
  for (size_t k = 0; k < a.classes.size(); ++k) {
    const std::string cls = where + ", class " + std::to_string(k);
    EXPECT_EQ(a.classes[k].len, b.classes[k].len) << cls;
    EXPECT_EQ(a.classes[k].rel_input, b.classes[k].rel_input) << cls;
    expect_same_planes(a.classes[k].filters, b.classes[k].filters, cls);
  }
}

TEST(PlanPacking, Fp16MatchesFullBankPath) {
  for (const Layer& l : kLayers) {
    const FilterBank f = filters_for(l, 0xF16);
    const ConvSpec spec = spec_for(l);
    ConvPlan<PreparedFp16> full;
    full.build(l.cin, l.in_hw, l.in_hw, f, spec, prepare_fp16_planes(f.data));
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const ConvPlan<PreparedFp16> packed =
          build_fp16_plan(l.cin, l.in_hw, l.in_hw, f, spec, pool);
      expect_same_plan(packed, full, std::string(l.name) + ", fp16, " +
                                         std::to_string(threads) + " threads");
    }
  }
}

TEST(PlanPacking, IntMatchesFullBankPath) {
  for (const Layer& l : kLayers) {
    const FilterBank f = filters_for(l, 0x1A7);
    const ConvSpec spec = spec_for(l);
    for (int bits : {8, 4}) {
      // The scale is fitted over the whole bank, unread taps included.
      const QuantParams qw = fit_symmetric(f.data, bits);
      for (bool digits : {true, false}) {  // temporal / bit-serial packing
        ConvPlan<PreparedInt> full;
        full.build(l.cin, l.in_hw, l.in_hw, f, spec,
                   prepare_int_planes(f.data, qw, digits));
        for (int threads : kThreadCounts) {
          ThreadPool pool(threads);
          const ConvPlan<PreparedInt> packed = build_int_plan(
              l.cin, l.in_hw, l.in_hw, f, spec, qw, digits, pool);
          expect_same_plan(packed, full,
                           std::string(l.name) + ", int" +
                               std::to_string(bits) +
                               (digits ? ", digits, " : ", value-only, ") +
                               std::to_string(threads) + " threads");
        }
      }
    }
  }
}

// Both paths above share the packing loop, so check its tap mapping on its
// own: class (yr, xr) streams its window's taps in the canonical
// ky -> kx -> ci order, and stored element t of output channel co must be
// the FP16 conversion of bank tap (co, ci, ky, kx), for every class.
TEST(PlanPacking, StoredElementsAreTheClassWindowTaps) {
  for (const Layer& l : kLayers) {
    const FilterBank f = filters_for(l, 0xC3);
    ThreadPool pool(3);
    const ConvPlan<PreparedFp16> plan =
        build_fp16_plan(l.cin, l.in_hw, l.in_hw, f, spec_for(l), pool);
    ASSERT_EQ(plan.classes.size(), plan.ys.uniq.size() * plan.xs.uniq.size());
    if (l.in_hw == 1) {  // one class, reading only the kernel centre
      EXPECT_EQ(plan.ys.uniq, (std::vector<std::pair<int, int>>{{1, 2}}));
      EXPECT_EQ(plan.xs.uniq, (std::vector<std::pair<int, int>>{{1, 2}}));
    }
    size_t mismatches = 0;
    for (size_t yr = 0; yr < plan.ys.uniq.size(); ++yr) {
      for (size_t xr = 0; xr < plan.xs.uniq.size(); ++xr) {
        const ClipClass<PreparedFp16>& cls =
            plan.classes[yr * plan.xs.uniq.size() + xr];
        ASSERT_EQ(cls.filters.size(), static_cast<size_t>(cls.len) * l.cout);
        const PreparedFp16View v = cls.filters.view();
        size_t t = 0;
        for (int ky = plan.ys.uniq[yr].first; ky < plan.ys.uniq[yr].second; ++ky) {
          for (int kx = plan.xs.uniq[xr].first; kx < plan.xs.uniq[xr].second; ++kx) {
            for (int ci = 0; ci < l.cin; ++ci, ++t) {
              ASSERT_LT(t, cls.rel_input.size()) << l.name;
              EXPECT_EQ(cls.rel_input[t], (ci * l.in_hw + ky) * l.in_hw + kx)
                  << l.name;
              for (int co = 0; co < l.cout; ++co) {
                const Decoded d =
                    Fp16::from_double(f.at(co, ci, ky, kx)).decode();
                const size_t i = static_cast<size_t>(co) * cls.len + t;
                mismatches += v.exp[i] != d.exp;
                mismatches += v.signed_mag[i] != d.signed_magnitude();
              }
            }
          }
        }
        EXPECT_EQ(t, static_cast<size_t>(cls.len)) << l.name;
      }
    }
    EXPECT_EQ(mismatches, 0u) << l.name;
  }
}

}  // namespace
}  // namespace mpipu
