// ConvPlan: the planning half of the convolution pipeline, built once and
// shared immutably.
//
// A plan captures everything about one conv layer that does not depend on
// the activation values: the output geometry, the clip classes (in-bounds
// kernel-window shapes) with their base-relative input gather offsets, and
// -- the expensive part -- each class's per-output-channel *filter* operand
// streams packed into contiguous prepared planes (core/prepared.h).
// CompiledModel (api/compiled_model.h), the one caller that runs convs on
// the datapath, builds it once per layer at model-compile time and shares
// it `const` across any number of concurrent executions.
//
// The execution half is stateless with respect to the plan: `run_conv_plan`
// streams per-call prepared activation planes against a `const` plan, using
// caller-supplied scratch (a thread pool plus one private Datapath per
// worker slot), split over (pixel, output channel) so every layer -- a 1x1
// output map included -- runs on the whole pool.  Nothing in the plan is
// written during execution, so one plan serves N threads and M concurrent
// calls; outputs and stats are identical for any pool size.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/datapath.h"
#include "nn/conv.h"
#include "nn/tensor.h"
#include "workload/quantizer.h"

namespace mpipu {

/// One in-bounds kernel-window shape ("clip class") and everything the
/// per-(pixel, co) loop needs for it, computed once per plan:
///
///   * `rel_input`: base-relative input offsets of the window's taps in the
///     canonical ky -> kx -> ci gather order (the same order the legacy
///     loop streamed operands in, so results stay bit-identical); a pixel's
///     absolute tap index is rel_input[t] + (iy0*W + ix0);
///   * `filters`: the per-output-channel filter operand streams, packed
///     into contiguous prepared planes (co's stream = [co*len, (co+1)*len))
///     -- the old loop re-gathered these len values for every single pixel.
///
/// Interior pixels all share one class; border pixels fall into at most
/// (kh+1) x (kw+1) distinct ky-range x kx-range combinations, so the
/// packing cost is a handful of filter-bank sweeps -- over only the taps
/// the classes read (a 1x1 map's single class reads just the kernel centre).
template <typename Planes>
struct ClipClass {
  std::vector<int32_t> rel_input;
  Planes filters;
  int len = 0;
};

/// Axis factorization of the clip classes: the in-bounds kernel range along
/// y depends only on y (likewise x), so class(y, x) = y_class[y] * nx +
/// x_class[x] over the cross product of distinct per-axis ranges.
struct AxisRanges {
  std::vector<int32_t> class_of;          // output coordinate -> range id
  std::vector<std::pair<int, int>> uniq;  // range id -> [k0, k1)

  void build(int out, int stride, int pad, int k, int in) {
    class_of.resize(static_cast<size_t>(out));
    uniq.clear();
    for (int o = 0; o < out; ++o) {
      const int i0 = o * stride - pad;
      const std::pair<int, int> r{std::max(0, -i0), std::min(k, in - i0)};
      size_t id = 0;
      while (id < uniq.size() && uniq[id] != r) ++id;
      if (id == uniq.size()) uniq.push_back(r);
      class_of[static_cast<size_t>(o)] = static_cast<int32_t>(id);
    }
  }
};

/// The immutable per-layer plan: geometry + clip classes + packed filter
/// streams for one (filter bank, conv spec, input dims) triple.  Built once
/// (build()), then only read -- safe to share `const` across threads.
template <typename Planes>
struct ConvPlan {
  int in_c = 0, in_h = 0, in_w = 0;  ///< activation dims the plan was built for
  int ho = 0, wo = 0, cout = 0;      ///< conv output geometry
  int stride = 1, pad = 0;
  std::vector<ClipClass<Planes>> classes;
  AxisRanges ys, xs;

  int class_of(int y, int x) const {
    return ys.class_of[static_cast<size_t>(y)] *
               static_cast<int>(xs.uniq.size()) +
           xs.class_of[static_cast<size_t>(x)];
  }

  /// Build from full-bank prepared filter planes (flat cout x cin x kh x kw
  /// order): the packing loop below with a plane-copy source, on one thread.
  void build(int input_c, int input_h, int input_w, const FilterBank& f,
             const ConvSpec& spec, const Planes& flt_planes) {
    ThreadPool inline_pool(1);
    pack(input_c, input_h, input_w, f, spec, flt_planes, inline_pool,
         [&flt_planes](Planes& dst, std::span<const int32_t> rel,
                       int64_t base, size_t dst_offset) {
           dst.gather(flt_planes, rel, base, dst_offset);
         });
  }

  /// The one packing loop.  Lays out the geometry and clip classes, sizes
  /// every class's filter planes in `layout`'s element layout
  /// (match_layout), then fills each (class, output channel) stream with
  /// `fill(dst, rel, base, dst_offset)`, which must prepare filter-bank
  /// element base + rel[t] (a flat f.data index) into dst[dst_offset + t]
  /// for every t -- the same contract as Planes::gather.  Only the taps some
  /// class reads are ever requested.  Streams are filled in parallel over
  /// output channels on `pool`; each output channel writes only its own
  /// disjoint [co*len, (co+1)*len) slice of every class, so the planes are
  /// identical for any pool size.
  template <typename FillFn>
  void pack(int input_c, int input_h, int input_w, const FilterBank& f,
            const ConvSpec& spec, const Planes& layout, ThreadPool& pool,
            FillFn&& fill) {
    assert(input_c == f.cin);
    in_c = input_c;
    in_h = input_h;
    in_w = input_w;
    ho = spec.out_dim(input_h, f.kh);
    wo = spec.out_dim(input_w, f.kw);
    cout = f.cout;
    stride = spec.stride;
    pad = spec.pad;
    ys.build(ho, spec.stride, spec.pad, f.kh, input_h);
    xs.build(wo, spec.stride, spec.pad, f.kw, input_w);
    const auto filter_block = static_cast<int64_t>(f.cin) * f.kh * f.kw;
    classes.clear();
    classes.resize(ys.uniq.size() * xs.uniq.size());
    std::vector<std::vector<int32_t>> rel_filter(classes.size());
    for (size_t yr = 0; yr < ys.uniq.size(); ++yr) {
      for (size_t xr = 0; xr < xs.uniq.size(); ++xr) {
        const size_t k = yr * xs.uniq.size() + xr;
        ClipClass<Planes>& cls = classes[k];
        for (int ky = ys.uniq[yr].first; ky < ys.uniq[yr].second; ++ky) {
          for (int kx = xs.uniq[xr].first; kx < xs.uniq[xr].second; ++kx) {
            for (int ci = 0; ci < input_c; ++ci) {
              cls.rel_input.push_back(static_cast<int32_t>(
                  (static_cast<size_t>(ci) * input_h + ky) *
                      static_cast<size_t>(input_w) +
                  kx));
              rel_filter[k].push_back(static_cast<int32_t>(
                  (static_cast<size_t>(ci) * f.kh + ky) *
                      static_cast<size_t>(f.kw) +
                  kx));
            }
          }
        }
        cls.len = static_cast<int>(cls.rel_input.size());
        cls.filters.match_layout(layout);
        cls.filters.resize(static_cast<size_t>(cls.len) * f.cout);
      }
    }
    pool.parallel_for(f.cout, [&](int64_t co_begin, int64_t co_end, int) {
      for (size_t k = 0; k < classes.size(); ++k) {
        ClipClass<Planes>& cls = classes[k];
        for (int64_t co = co_begin; co < co_end; ++co) {
          fill(cls.filters, std::span<const int32_t>(rel_filter[k]),
               co * filter_block,
               static_cast<size_t>(co) * static_cast<size_t>(cls.len));
        }
      }
    });
  }
};

/// The stateless conv executor over a const plan and prepared activation
/// planes.  The pool splits the output elements in pixel-major order
/// (pixel x output channel): each slot gets one contiguous range -- whole
/// pixels plus a partial pixel at either end -- so a map with fewer pixels
/// than slots (a 1x1 layer4 output) still puts every slot to work, the
/// host-side image of the accelerator broadcasting one window to IPUs
/// holding different output channels.  Per pixel a slot stages the input
/// patch once (one plane-copy gather shared by its channels of that pixel);
/// per (pixel, co) the inner loop is contiguous streaming over the staged
/// input and the clip class's packed filter stream -- zero gathers, zero
/// allocations, zero re-decodes.  `accumulate` runs one <= n_inputs chunk
/// on the datapath; `readout` extracts the finished element.  All mutable
/// state lives in the caller's scratch (`pool` + one private `Datapath` per
/// worker slot + per-slot staging planes), so concurrent calls against the
/// same plan never interfere.  Every output element's accumulate sequence
/// (reset, chunks, readout) depends only on its own (co, y, x), and the
/// datapath counters are additive per op, so outputs and the summed
/// per-slot stats are byte-identical for any pool size.
template <typename Planes, typename AccumulateFn, typename ReadoutFn>
Tensor run_conv_plan(const ConvPlan<Planes>& plan, const Planes& in_planes,
                     ThreadPool& pool,
                     std::span<const std::unique_ptr<Datapath>> units,
                     int n_inputs, AccumulateFn&& accumulate,
                     ReadoutFn&& readout) {
  assert(static_cast<int>(units.size()) >= pool.size());
  const int wo = plan.wo;
  const int64_t cout = plan.cout;
  Tensor out(plan.cout, plan.ho, wo);

  pool.parallel_for(
      static_cast<int64_t>(plan.ho) * wo * cout,
      [&](int64_t begin, int64_t end, int slot) {
        Datapath& dp = *units[static_cast<size_t>(slot)];
        Planes staged;  // per-slot staging planes, reused across pixels
        staged.match_layout(in_planes);
        for (int64_t p = begin / cout; p * cout < end; ++p) {
          const int y = static_cast<int>(p / wo);
          const int x = static_cast<int>(p % wo);
          const ClipClass<Planes>& cls =
              plan.classes[static_cast<size_t>(plan.class_of(y, x))];
          const int len = cls.len;
          const int64_t base =
              static_cast<int64_t>(y * plan.stride - plan.pad) * plan.in_w +
              (x * plan.stride - plan.pad);
          staged.resize(static_cast<size_t>(len));
          staged.gather(in_planes, cls.rel_input, base);
          const auto co_begin =
              static_cast<int>(std::max<int64_t>(begin - p * cout, 0));
          const auto co_end =
              static_cast<int>(std::min<int64_t>(end - p * cout, cout));
          for (int co = co_begin; co < co_end; ++co) {
            const auto stream_base =
                static_cast<size_t>(co) * static_cast<size_t>(len);
            dp.reset_accumulator();
            for (int c0 = 0; c0 < len; c0 += n_inputs) {
              const auto chunk =
                  static_cast<size_t>(std::min(n_inputs, len - c0));
              accumulate(dp, staged.view(static_cast<size_t>(c0), chunk),
                         cls.filters.view(stream_base + static_cast<size_t>(c0),
                                          chunk));
            }
            out.at(co, y, x) = readout(dp);
          }
        }
      });
  return out;
}

// ---------------------------------------------------------------------------
// Concrete plan builders / executors behind CompiledModel.  Tests check them
// against an independent per-op oracle (tests/conv_oracle.h), not against
// another caller of these functions.
// ---------------------------------------------------------------------------

/// Round a double tensor to FP16 and decode + nibble-decompose it into
/// prepared SoA planes (exactly once).
PreparedFp16 prepare_fp16_planes(std::span<const double> values);

/// Quantize a double tensor to `params` and pack prepared INT planes.
/// `with_digits` = false skips the radix-16 digit planes (the bit-serial
/// scheme streams raw values and never reads them).
PreparedInt prepare_int_planes(std::span<const double> values,
                               const QuantParams& params, bool with_digits);

/// Compile-time plan builders: ConvPlan::pack with each stored filter
/// element converted straight from the bank's doubles, in parallel over
/// output channels on `pool`.  Taps no clip class reads (all but the centre
/// of a 3x3 kernel on a 1x1 map) are never converted, and no full-bank
/// planes are materialized.  Byte-identical to prepare_*_planes followed by
/// ConvPlan::build for any pool size.
ConvPlan<PreparedFp16> build_fp16_plan(int input_c, int input_h, int input_w,
                                       const FilterBank& f,
                                       const ConvSpec& spec, ThreadPool& pool);

/// INT counterpart: elements are quantized one by one with quantize_value.
/// `qw` is the caller's fit over the WHOLE bank (fit_symmetric), unread taps
/// included, so the scale matches prepare_int_planes exactly.
ConvPlan<PreparedInt> build_int_plan(int input_c, int input_h, int input_w,
                                     const FilterBank& f, const ConvSpec& spec,
                                     const QuantParams& qw, bool with_digits,
                                     ThreadPool& pool);

/// FP16 plan executor: every inner product on the scheme datapath, partial
/// sums in the datapath accumulator, rounded to `accum` once per output
/// element.
Tensor execute_fp16_plan(const ConvPlan<PreparedFp16>& plan,
                         const PreparedFp16& in_planes, ThreadPool& pool,
                         std::span<const std::unique_ptr<Datapath>> units,
                         int n_inputs, AccumKind accum);

/// INT plan executor: quantized operands through the datapath's INT mode,
/// dequantized on readout with the two quant scales.
Tensor execute_int_plan(const ConvPlan<PreparedInt>& plan,
                        const PreparedInt& in_planes, ThreadPool& pool,
                        std::span<const std::unique_ptr<Datapath>> units,
                        int n_inputs, int a_bits, int w_bits,
                        const QuantParams& qa, const QuantParams& qw);

}  // namespace mpipu
