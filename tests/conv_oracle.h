// Independent convolution oracles.
//
// naive_conv_reference is the plain six-deep loop that nn/conv.h's
// conv_reference must equal byte for byte (its sum-order contract).
//
// conv_fp16 / conv_int are the per-op oracle for the compiled conv path:
// for every output element they gather the in-bounds kernel window in
// ky -> kx -> ci order and feed it, n_inputs operand pairs at a time,
// through one Datapath's span entry points: no plans, clip classes,
// prepared planes or thread pools.
//
// This header shares no code with nn/conv_plan.h or api/ (lint rule
// oracle-independence), so a test comparing against it checks the code
// under test instead of re-running it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/datapath.h"
#include "nn/conv.h"
#include "softfloat/softfloat.h"
#include "workload/quantizer.h"

namespace mpipu::oracle {

/// Exact host-double conv: +0.0 plus each in-bounds product, in
/// ci -> ky -> kx order, one bounds check per tap.
inline Tensor naive_conv_reference(const Tensor& input, const FilterBank& filters,
                                   const ConvSpec& spec) {
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  for (int co = 0; co < filters.cout; ++co) {
    for (int y = 0; y < ho; ++y) {
      for (int x = 0; x < wo; ++x) {
        double acc = 0.0;
        for (int ci = 0; ci < input.c; ++ci) {
          for (int ky = 0; ky < filters.kh; ++ky) {
            for (int kx = 0; kx < filters.kw; ++kx) {
              const int iy = y * spec.stride + ky - spec.pad;
              const int ix = x * spec.stride + kx - spec.pad;
              if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
              acc += input.at(ci, iy, ix) * filters.at(co, ci, ky, kx);
            }
          }
        }
        out.at(co, y, x) = acc;
      }
    }
  }
  return out;
}

/// One conv's output plus the counters of the single datapath it ran on.
struct ConvResult {
  Tensor output;
  DatapathStats stats;
};

/// out(co, y, x) = element(a, b), where a / b are the operands (taken from
/// in_ops / f_ops, flat CHW and cout x cin x kh x kw) of the element's
/// in-bounds window in ky -> kx -> ci order.
template <typename T, typename ElementFn>
Tensor each_output(const Tensor& in, const FilterBank& f, const ConvSpec& spec,
                   const std::vector<T>& in_ops, const std::vector<T>& f_ops,
                   ElementFn&& element) {
  Tensor out(f.cout, spec.out_dim(in.h, f.kh), spec.out_dim(in.w, f.kw));
  std::vector<T> a, b;
  for (int co = 0; co < out.c; ++co) {
    for (int y = 0; y < out.h; ++y) {
      for (int x = 0; x < out.w; ++x) {
        a.clear();
        b.clear();
        for (int ky = 0; ky < f.kh; ++ky) {
          for (int kx = 0; kx < f.kw; ++kx) {
            const int iy = y * spec.stride + ky - spec.pad;
            const int ix = x * spec.stride + kx - spec.pad;
            if (iy < 0 || iy >= in.h || ix < 0 || ix >= in.w) continue;
            for (int ci = 0; ci < in.c; ++ci) {
              a.push_back(in_ops[(static_cast<size_t>(ci) * in.h + iy) *
                                     static_cast<size_t>(in.w) +
                                 static_cast<size_t>(ix)]);
              b.push_back(
                  f_ops[((static_cast<size_t>(co) * f.cin + ci) * f.kh + ky) *
                            static_cast<size_t>(f.kw) +
                        static_cast<size_t>(kx)]);
            }
          }
        }
        out.at(co, y, x) = element(std::span<const T>(a), std::span<const T>(b));
      }
    }
  }
  return out;
}

/// FP16 conv: operands rounded to FP16, one accumulator reset per output
/// element, every n_inputs-chunk through fp16_accumulate, read out at the
/// `accum` destination.
inline ConvResult conv_fp16(const Tensor& in, const FilterBank& f,
                            const ConvSpec& spec, const DatapathConfig& cfg,
                            AccumKind accum) {
  auto to_fp16 = [](const std::vector<double>& v) {
    std::vector<Fp16> r(v.size());
    std::transform(v.begin(), v.end(), r.begin(),
                   [](double d) { return Fp16::from_double(d); });
    return r;
  };
  const auto dp = make_datapath(cfg);
  const auto n = static_cast<size_t>(cfg.n_inputs);
  Tensor out = each_output(
      in, f, spec, to_fp16(in.data), to_fp16(f.data),
      [&](std::span<const Fp16> a, std::span<const Fp16> b) {
        dp->reset_accumulator();
        for (size_t c0 = 0; c0 < a.size(); c0 += n) {
          const size_t len = std::min(n, a.size() - c0);
          dp->fp16_accumulate(a.subspan(c0, len), b.subspan(c0, len));
        }
        return accum == AccumKind::kFp16 ? dp->read_fp16().to_double()
                                         : dp->read_fp32().to_double();
      });
  return {std::move(out), dp->stats()};
}

/// INT conv: input and filters quantized with their own fit_symmetric
/// scales, each n_inputs-chunk accumulated on a freshly reset unit, the
/// chunk results summed in int64 and dequantized once per element.
inline ConvResult conv_int(const Tensor& in, const FilterBank& f,
                           const ConvSpec& spec, const DatapathConfig& cfg,
                           int a_bits, int w_bits) {
  const QuantParams qa = fit_symmetric(in.data, a_bits);
  const QuantParams qw = fit_symmetric(f.data, w_bits);
  const auto dp = make_datapath(cfg);
  const auto n = static_cast<size_t>(cfg.n_inputs);
  Tensor out = each_output(
      in, f, spec, quantize(in.data, qa), quantize(f.data, qw),
      [&](std::span<const int32_t> a, std::span<const int32_t> b) {
        int64_t acc = 0;
        for (size_t c0 = 0; c0 < a.size(); c0 += n) {
          const size_t len = std::min(n, a.size() - c0);
          dp->reset_accumulator();
          dp->int_accumulate(a.subspan(c0, len), b.subspan(c0, len), a_bits,
                             w_bits);
          acc += dp->read_int();
        }
        return dequantize_accumulator(acc, qa, qw);
      });
  return {std::move(out), dp->stats()};
}

}  // namespace mpipu::oracle
