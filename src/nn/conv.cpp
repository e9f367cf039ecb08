#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace mpipu {

Tensor random_tensor(Rng& rng, int c, int h, int w, ValueDist dist, double scale) {
  Tensor t(c, h, w);
  for (auto& v : t.data) v = sample_value(rng, dist, scale);
  return t;
}

FilterBank random_filters(Rng& rng, int cout, int cin, int kh, int kw, ValueDist dist,
                          double scale) {
  FilterBank f(cout, cin, kh, kw);
  for (auto& v : f.data) v = sample_value(rng, dist, scale);
  return f;
}

namespace {

/// Output channels one gathered window runs against, one independent
/// accumulator each: the adds of eight chains interleave instead of
/// queueing behind one.
constexpr int kChannelBlock = 8;

}  // namespace

Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec) {
  ThreadPool inline_pool(1);
  return conv_reference(input, filters, spec, inline_pool);
}

Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec, ThreadPool& pool) {
  if (!spec.valid()) {
    throw std::invalid_argument(
        "conv_reference: stride must be >= 1 and pad >= 0 (got stride " +
        std::to_string(spec.stride) + ", pad " + std::to_string(spec.pad) + ")");
  }
  if (input.c != filters.cin) {
    throw std::invalid_argument(
        "conv_reference: input has " + std::to_string(input.c) +
        " channels but the filters expect " + std::to_string(filters.cin));
  }
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  if (ho <= 0 || wo <= 0) {
    throw std::invalid_argument(
        "conv_reference: a " + std::to_string(filters.kh) + "x" +
        std::to_string(filters.kw) + " kernel maps the " +
        std::to_string(input.h) + "x" + std::to_string(input.w) +
        " input to " + std::to_string(ho) + "x" + std::to_string(wo));
  }
  Tensor out(filters.cout, ho, wo);
  const int64_t pixels = static_cast<int64_t>(ho) * wo;
  const int blocks = (filters.cout + kChannelBlock - 1) / kChannelBlock;
  const size_t row_len = static_cast<size_t>(filters.cin) *
                         static_cast<size_t>(filters.kh) *
                         static_cast<size_t>(filters.kw);
  // Pixel-major over (pixel, channel block): a slot gathers each pixel's
  // window once and runs it against every block of its range.
  pool.parallel_for(pixels * blocks, [&](int64_t begin, int64_t end, int) {
    std::vector<double> window;  // in-bounds input values, ci -> ky -> kx
    std::vector<size_t> tap;     // each value's offset in a filter row
    window.reserve(row_len);
    tap.reserve(row_len);
    int64_t gathered = -1;
    for (int64_t i = begin; i < end; ++i) {
      const int64_t pixel = i / blocks;
      if (pixel != gathered) {
        gathered = pixel;
        window.clear();
        tap.clear();
        const int iy0 = static_cast<int>(pixel / wo) * spec.stride - spec.pad;
        const int ix0 = static_cast<int>(pixel % wo) * spec.stride - spec.pad;
        const int ky0 = std::max(0, -iy0), ky1 = std::min(filters.kh, input.h - iy0);
        const int kx0 = std::max(0, -ix0), kx1 = std::min(filters.kw, input.w - ix0);
        for (int ci = 0; ci < input.c; ++ci) {
          for (int ky = ky0; ky < ky1; ++ky) {
            for (int kx = kx0; kx < kx1; ++kx) {
              window.push_back(input.at(ci, iy0 + ky, ix0 + kx));
              tap.push_back((static_cast<size_t>(ci) * filters.kh + ky) *
                                static_cast<size_t>(filters.kw) +
                            static_cast<size_t>(kx));
            }
          }
        }
      }
      const int co0 = static_cast<int>(i % blocks) * kChannelBlock;
      const int n_co = std::min(kChannelBlock, filters.cout - co0);
      // A partial block's missing channels re-read its last row; their
      // sums are discarded.
      const double* row[kChannelBlock];
      for (int j = 0; j < kChannelBlock; ++j) {
        row[j] = filters.data.data() +
                 static_cast<size_t>(co0 + std::min(j, n_co - 1)) * row_len;
      }
      double acc[kChannelBlock] = {};
      for (size_t t = 0; t < window.size(); ++t) {
        const double a = window[t];
        const size_t k = tap[t];
        for (int j = 0; j < kChannelBlock; ++j) acc[j] += a * row[j][k];
      }
      // Constant indices only: acc[] stays in eight registers.  A
      // runtime-bounded loop here puts it in memory, and GCC 12 then packs
      // the eight chains into one vector fed by eight scalar loads a tap --
      // 1.25x slower on the ResNet-18 chain (-O3 -march=native, AVX-512).
      for (int j = 0; j < kChannelBlock; ++j) {
        if (j < n_co) {
          out.data[static_cast<size_t>(co0 + j) * static_cast<size_t>(pixels) +
                   static_cast<size_t>(pixel)] = acc[j];
        }
      }
    }
  });
  return out;
}

Tensor relu(const Tensor& t) {
  Tensor out = t;
  for (auto& v : out.data) v = std::max(v, 0.0);
  return out;
}

Tensor maxpool2(const Tensor& t) {
  Tensor out(t.c, t.h / 2, t.w / 2);
  for (int c = 0; c < t.c; ++c) {
    for (int y = 0; y < out.h; ++y) {
      for (int x = 0; x < out.w; ++x) {
        out.at(c, y, x) = std::max(std::max(t.at(c, 2 * y, 2 * x), t.at(c, 2 * y, 2 * x + 1)),
                                   std::max(t.at(c, 2 * y + 1, 2 * x), t.at(c, 2 * y + 1, 2 * x + 1)));
      }
    }
  }
  return out;
}

FilterBank transpose_for_dgrad(const FilterBank& f) {
  FilterBank t(f.cin, f.cout, f.kh, f.kw);
  for (int co = 0; co < f.cout; ++co) {
    for (int ci = 0; ci < f.cin; ++ci) {
      for (int y = 0; y < f.kh; ++y) {
        for (int x = 0; x < f.kw; ++x) {
          t.at(ci, co, f.kh - 1 - y, f.kw - 1 - x) = f.at(co, ci, y, x);
        }
      }
    }
  }
  return t;
}

Tensor dgrad_reference(const Tensor& grad_out, const FilterBank& filters, int fwd_pad) {
  ConvSpec spec;
  spec.pad = filters.kh - 1 - fwd_pad;
  return conv_reference(grad_out, transpose_for_dgrad(filters), spec);
}

AgreementStats compare_outputs(const Tensor& test, const Tensor& reference) {
  if (test.data.size() != reference.data.size()) {
    throw std::invalid_argument(
        "compare_outputs: test has " + std::to_string(test.data.size()) +
        " elements but the reference has " +
        std::to_string(reference.data.size()));
  }
  AgreementStats s;
  s.total = static_cast<int64_t>(test.size());
  double err_energy = 0.0, sig_energy = 0.0, abs_sum = 0.0;
  for (size_t i = 0; i < test.data.size(); ++i) {
    const double e = test.data[i] - reference.data[i];
    const double r = reference.data[i];
    s.max_abs_err = std::max(s.max_abs_err, std::fabs(e));
    abs_sum += std::fabs(e);
    if (std::fabs(r) > 1e-6) s.max_rel_err = std::max(s.max_rel_err, std::fabs(e / r));
    err_energy += e * e;
    sig_energy += r * r;
    if (Fp16::from_double(test.data[i]).raw_bits() != Fp16::from_double(r).raw_bits()) {
      ++s.mismatched_fp16;
    }
  }
  s.mean_abs_err = abs_sum / static_cast<double>(test.size());
  s.snr_db = err_energy == 0.0
                 ? 300.0
                 : 10.0 * std::log10(sig_energy / err_energy);
  return s;
}

}  // namespace mpipu
