// Wall-clock comparison of the convolution paths on the quickstart-style
// workload, tracking the perf trajectory of the conv hot loop:
//
//   * the seed's legacy single-threaded per-pixel loop (re-created here
//     verbatim as the "before everything" baseline; temporal scheme only),
//   * the PR 2 per-op engine loop (re-created here verbatim: per-pixel
//     patch gather of Fp16 values, per-op decode + decompose + allocating
//     EHU inside each scheme's original fp_accumulate entry point),
//   * the compiled conv path (decode once, allocate never): compile plus
//     run of a one-conv GraphModel, at 1 and hardware_concurrency threads,
//
// for every decomposition scheme.  Verifies all paths produce bit-identical
// tensors and matching cycle/op counts (one call's RunReport.totals)
// before timing them.
//
//   ./bench_conv_engine [--smoke] [--json [path]]
//
// --smoke shrinks the workload for CI; --json writes the numbers (plus the
// prepared-vs-per-op and prepared-vs-legacy speedups) to BENCH_conv.json
// (or the given path) through the repo's single JSON emitter.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_model.h"
#include "api/json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/serial_ipu.h"
#include "core/simd/simd.h"
#include "core/spatial_ipu.h"
#include "nn/conv.h"

namespace mpipu {
namespace {

/// The seed's single-threaded conv loop: one Ipu, operands re-rounded to
/// FP16 for every output pixel that touches them.
Tensor legacy_conv_ipu_fp16(const Tensor& input, const FilterBank& filters,
                            const ConvSpec& spec, const DatapathConfig& ipu_cfg,
                            AccumKind accum) {
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  Ipu ipu(ipu_cfg);
  std::vector<Fp16> fa, fb;
  for (int co = 0; co < filters.cout; ++co) {
    for (int y = 0; y < ho; ++y) {
      for (int x = 0; x < wo; ++x) {
        ipu.reset_accumulator();
        fa.clear();
        fb.clear();
        auto flush = [&] {
          if (!fa.empty()) {
            ipu.fp_accumulate<kFp16Format>(fa, fb);
            fa.clear();
            fb.clear();
          }
        };
        for (int ky = 0; ky < filters.kh; ++ky) {
          for (int kx = 0; kx < filters.kw; ++kx) {
            const int iy = y * spec.stride + ky - spec.pad;
            const int ix = x * spec.stride + kx - spec.pad;
            if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
            for (int ci = 0; ci < input.c; ++ci) {
              fa.push_back(Fp16::from_double(input.at(ci, iy, ix)));
              fb.push_back(Fp16::from_double(filters.at(co, ci, ky, kx)));
              if (static_cast<int>(fa.size()) == ipu_cfg.n_inputs) flush();
            }
          }
        }
        flush();
        out.at(co, y, x) = accum == AccumKind::kFp16
                               ? ipu.read_fp16().to_double()
                               : ipu.read_fp32().to_double();
      }
    }
  }
  return out;
}

// --- PR 2 per-op engine loop, re-created as the per-scheme baseline ---------

/// Patch geometry of one output pixel (PR 2's gather): flat input indices
/// and filter-block offsets in the canonical ky -> kx -> ci order.
struct PatchIndices {
  std::vector<int32_t> input;
  std::vector<int32_t> filter_off;

  void build(const Tensor& input_t, const FilterBank& f, const ConvSpec& spec,
             int y, int x) {
    input.clear();
    filter_off.clear();
    for (int ky = 0; ky < f.kh; ++ky) {
      for (int kx = 0; kx < f.kw; ++kx) {
        const int iy = y * spec.stride + ky - spec.pad;
        const int ix = x * spec.stride + kx - spec.pad;
        if (iy < 0 || iy >= input_t.h || ix < 0 || ix >= input_t.w) continue;
        for (int ci = 0; ci < input_t.c; ++ci) {
          input.push_back(
              static_cast<int32_t>((static_cast<size_t>(ci) * input_t.h + iy) *
                                       static_cast<size_t>(input_t.w) +
                                   ix));
          filter_off.push_back(static_cast<int32_t>(
              (static_cast<size_t>(ci) * f.kh + ky) * static_cast<size_t>(f.kw) +
              kx));
        }
      }
    }
  }
};

/// One per-op unit: the scheme instance under test (reset, readout and the
/// counters the bit-identity check compares come from its Datapath base)
/// and its per-op oracle entry, which accumulates one chunk.
struct PerOpUnit {
  std::unique_ptr<Datapath> unit;
  std::function<void(std::span<const Fp16>, std::span<const Fp16>)> accumulate;
};

template <typename Unit, typename Accumulate>
PerOpUnit per_op_unit(const DatapathConfig& cfg, Accumulate accumulate) {
  auto unit = std::make_unique<Unit>(cfg);
  Unit* u = unit.get();
  return {std::move(unit),
          [u, accumulate](std::span<const Fp16> a, std::span<const Fp16> b) {
            accumulate(*u, a, b);
          }};
}

PerOpUnit make_per_op_unit(const DatapathConfig& cfg) {
  using Span = std::span<const Fp16>;
  switch (cfg.scheme) {
    case DecompositionScheme::kTemporal:
      return per_op_unit<Ipu>(cfg, [](Ipu& u, Span a, Span b) {
        u.fp_accumulate<kFp16Format>(a, b);
      });
    case DecompositionScheme::kSerial:
      return per_op_unit<SerialIpu>(
          cfg, [](SerialIpu& u, Span a, Span b) { u.fp_accumulate(a, b); });
    case DecompositionScheme::kSpatial:
      return per_op_unit<SpatialIpu>(cfg, [](SpatialIpu& u, Span a, Span b) {
        u.fp_accumulate<kFp16Format>(a, b);
      });
  }
  return {};
}

/// PR 2's per-op conv engine inner loop, single-threaded: tensors
/// rounded to FP16 once, every pixel's operand stream gathered through
/// PatchIndices, every chunk run through the scheme's original per-op
/// entry point (per-op decode + decompose + allocating EHU).
Tensor per_op_conv_fp16(const PerOpUnit& unit, int n_inputs, const Tensor& input,
                        const FilterBank& filters, const ConvSpec& spec) {
  std::vector<Fp16> in16(input.data.size());
  for (size_t i = 0; i < input.data.size(); ++i) {
    in16[i] = Fp16::from_double(input.data[i]);
  }
  std::vector<Fp16> flt16(filters.data.size());
  for (size_t i = 0; i < filters.data.size(); ++i) {
    flt16[i] = Fp16::from_double(filters.data[i]);
  }

  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  const size_t filter_block =
      static_cast<size_t>(filters.cin) * filters.kh * filters.kw;
  PatchIndices patch;
  std::vector<Fp16> pa, pb;
  for (int64_t p = 0; p < static_cast<int64_t>(ho) * wo; ++p) {
    const int y = static_cast<int>(p / wo);
    const int x = static_cast<int>(p % wo);
    patch.build(input, filters, spec, y, x);
    const int len = static_cast<int>(patch.input.size());
    pa.resize(static_cast<size_t>(len));
    pb.resize(static_cast<size_t>(len));
    for (int t = 0; t < len; ++t) {
      pa[static_cast<size_t>(t)] =
          in16[static_cast<size_t>(patch.input[static_cast<size_t>(t)])];
    }
    for (int co = 0; co < filters.cout; ++co) {
      const size_t base = static_cast<size_t>(co) * filter_block;
      for (int t = 0; t < len; ++t) {
        pb[static_cast<size_t>(t)] =
            flt16[base +
                  static_cast<size_t>(patch.filter_off[static_cast<size_t>(t)])];
      }
      unit.unit->reset_accumulator();
      for (int c0 = 0; c0 < len; c0 += n_inputs) {
        const auto chunk = static_cast<size_t>(std::min(n_inputs, len - c0));
        unit.accumulate(
            std::span<const Fp16>(pa).subspan(static_cast<size_t>(c0), chunk),
            std::span<const Fp16>(pb).subspan(static_cast<size_t>(c0), chunk));
      }
      out.at(co, y, x) = unit.unit->read_fp32().to_double();
    }
  }
  return out;
}

template <typename Result>
double time_seconds(const std::function<Result()>& fn, Result* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// What one conv on the datapath costs: compile the one-conv model (filter
/// packing) and run it once without the FP32 reference chain.
RunReport compile_and_run(const GraphModel& model, const Tensor& input,
                          const RunSpec& spec) {
  RunOptions opts;
  opts.compare_reference = false;
  return CompiledModel::compile(model, spec, {input.h, input.w})
      .run(input, opts);
}

using bench::tensors_identical;

}  // namespace
}  // namespace mpipu

int main(int argc, char** argv) {
  using namespace mpipu;

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_conv.json";
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json [path]]\n", argv[0]);
      return 2;
    }
  }

  bench::title("Compiled conv path vs per-op loop vs legacy seed loop");

  // Quickstart-style workload (MC-IPU(16), FP32-grade software precision);
  // --smoke shrinks it so CI can afford every scheme on every push.
  Rng rng(42);
  const int ci = smoke ? 6 : 16, hw_dim = smoke ? 12 : 32, co = smoke ? 6 : 16;
  const Tensor input =
      random_tensor(rng, ci, hw_dim, hw_dim, ValueDist::kNormal, 1.0);
  const FilterBank filters =
      random_filters(rng, co, ci, 3, 3, ValueDist::kNormal, 0.2);
  ConvSpec spec;
  spec.pad = 1;
  GraphModel::Builder builder("conv");
  builder.conv("conv", filters, spec, builder.input());
  const GraphModel model = builder.build();

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::printf("workload: %dx%dx%d input, %d filters 3x3, pad 1 (%d output "
              "values); hardware_concurrency = %d%s\n\n",
              ci, hw_dim, hw_dim, co, co * hw_dim * hw_dim, hw,
              smoke ? "; --smoke" : "");

  Json root = Json::object();
  root.set("bench", "conv_engine");
  root.set("smoke", smoke);
  Json workload = Json::object();
  workload.set("input", std::to_string(ci) + "x" + std::to_string(hw_dim) + "x" +
                            std::to_string(hw_dim));
  workload.set("filters", std::to_string(co) + "x" + std::to_string(ci) + "x3x3");
  workload.set("pad", 1);
  root.set("workload", std::move(workload));
  root.set("hardware_concurrency", hw);
  root.set("kernel_backend", simd::backend_name());
  Json schemes_json = Json::array();

  // With a single hardware thread the "hw threads" leg would just repeat
  // the 1-thread run under a pool wrapper; skip it rather than report a
  // duplicate measurement as if it said something about scaling.
  const bool run_hw = hw > 1;
  if (!run_hw) {
    std::printf(
        "hardware_concurrency = 1: skipping the hw-threads rows (they would "
        "duplicate the 1-thread measurement)\n\n");
  }

  bench::Table table({"scheme", "path", "wall seconds", "speedup vs per-op"});
  bool all_identical = true;
  int rc = 0;

  // Legacy seed loop: temporal only (the seed had no other scheme).
  DatapathConfig icfg;
  icfg.n_inputs = 16;
  icfg.adder_tree_width = 16;
  icfg.software_precision = 28;
  icfg.multi_cycle = true;
  Tensor legacy_out;
  const double t_legacy = time_seconds<Tensor>(
      [&] {
        return legacy_conv_ipu_fp16(input, filters, spec, icfg, AccumKind::kFp32);
      },
      &legacy_out);

  for (auto scheme : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
                      DecompositionScheme::kSpatial}) {
    DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
    cfg.n_inputs = 16;
    cfg.adder_tree_width = 16;
    cfg.software_precision = 28;
    cfg.multi_cycle = true;

    // The scheme class's per-op oracle entry behind the per-op baseline.
    const PerOpUnit unit = make_per_op_unit(cfg);

    Tensor per_op_out;
    const double t_per_op = time_seconds<Tensor>(
        [&] { return per_op_conv_fp16(unit, cfg.n_inputs, input, filters, spec); },
        &per_op_out);

    RunSpec rs;
    rs.datapath = cfg;
    rs.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
    rs.threads = 1;
    RunReport prep1, prephw;
    const double t_prep1 = time_seconds<RunReport>(
        [&] { return compile_and_run(model, input, rs); }, &prep1);

    bool identical = tensors_identical(per_op_out, prep1.output) &&
                     unit.unit->stats().cycles == prep1.totals.cycles &&
                     unit.unit->stats().fp_ops == prep1.totals.fp_ops;
    double t_prephw = 0.0;
    if (run_hw) {
      rs.threads = hw;
      t_prephw = time_seconds<RunReport>(
          [&] { return compile_and_run(model, input, rs); }, &prephw);
      identical = identical && tensors_identical(per_op_out, prephw.output) &&
                  prep1.totals == prephw.totals;
    }
    if (scheme == DecompositionScheme::kTemporal) {
      identical = identical && tensors_identical(legacy_out, prep1.output);
    }
    if (!identical) {
      std::printf("BIT MISMATCH on %s scheme\n", scheme_name(scheme));
      all_identical = false;
      rc = 1;
    }

    table.add_row({scheme_name(scheme), "per-op loop (PR 2), 1 thread",
                   bench::fmt(t_per_op, 3), "1.00x"});
    table.add_row({scheme_name(scheme), "compiled path, 1 thread",
                   bench::fmt(t_prep1, 3),
                   bench::fmt(t_per_op / t_prep1, 2) + "x"});
    if (run_hw) {
      table.add_row({scheme_name(scheme),
                     "compiled path, hw threads (" + std::to_string(hw) + ")",
                     bench::fmt(t_prephw, 3),
                     bench::fmt(t_per_op / t_prephw, 2) + "x"});
    }

    Json s = Json::object();
    s.set("scheme", scheme_name(scheme));
    s.set("per_op_1t_seconds", t_per_op);
    s.set("prepared_1t_seconds", t_prep1);
    s.set("speedup_prepared_1t_vs_per_op", t_per_op / t_prep1);
    if (run_hw) {
      s.set("prepared_hw_seconds", t_prephw);
      s.set("speedup_prepared_hw_vs_per_op", t_per_op / t_prephw);
    }
    if (scheme == DecompositionScheme::kTemporal) {
      s.set("legacy_seed_seconds", t_legacy);
      s.set("speedup_prepared_1t_vs_legacy", t_legacy / t_prep1);
    }
    s.set("bit_identical", identical);
    schemes_json.push(std::move(s));
  }

  std::printf("all paths bit-identical: %s (tensors, cycles, op counts)\n\n",
              all_identical ? "yes" : "NO");
  table.print();
  std::printf("\nlegacy seed loop (temporal, 1 thread): %s s\n",
              bench::fmt(t_legacy, 3).c_str());

  root.set("schemes", std::move(schemes_json));
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << root.dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return rc;
}
