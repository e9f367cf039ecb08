#include "nn/conv_engine.h"

#include <cstdio>
#include <cstdlib>

#include "nn/conv.h"
#include "nn/conv_plan.h"
#include "workload/quantizer.h"

namespace mpipu {

ConvEngine::ConvEngine(const ConvEngineConfig& cfg)
    : cfg_(cfg),
      owned_pool_(std::make_unique<ThreadPool>(cfg.threads)),
      pool_(owned_pool_.get()) {
  units_.reserve(static_cast<size_t>(pool_->size()));
  for (int slot = 0; slot < pool_->size(); ++slot) {
    units_.push_back(make_datapath(cfg_.datapath));
  }
}

ConvEngine::ConvEngine(const ConvEngineConfig& cfg, ThreadPool& pool)
    : cfg_(cfg), pool_(&pool) {
  units_.reserve(static_cast<size_t>(pool_->size()));
  for (int slot = 0; slot < pool_->size(); ++slot) {
    units_.push_back(make_datapath(cfg_.datapath));
  }
}

Tensor ConvEngine::conv_fp16(const Tensor& input, const FilterBank& filters,
                             const ConvSpec& spec) {
  // Decode once, allocate never: the input is rounded to FP16 AND
  // decomposed into prepared SoA planes exactly once; the plan converts
  // the filter taps its clip classes read straight into packed
  // per-clip-class streams, and the executor streams plane views through
  // fp16_accumulate_prepared.
  const PreparedFp16 in_planes = prepare_fp16_planes(input.data);
  const ConvPlan<PreparedFp16> plan =
      build_fp16_plan(input.c, input.h, input.w, filters, spec, *pool_);
  return execute_fp16_plan(plan, in_planes, *pool_, units_,
                           cfg_.datapath.n_inputs, cfg_.accum);
}

Tensor ConvEngine::conv_int(const Tensor& input, const FilterBank& filters,
                            const ConvSpec& spec, int a_bits, int w_bits) {
  // Hard check (not an assert): in a Release build a silently unsupported
  // scheme would otherwise yield an all-zero tensor with no diagnostic.
  if (!units_[0]->supports_int(a_bits, w_bits)) {
    std::fprintf(stderr,
                 "ConvEngine::conv_int: %s scheme does not support INT%dxINT%d\n",
                 scheme_name(cfg_.datapath.scheme), a_bits, w_bits);
    std::abort();
  }
  const QuantParams qa = fit_symmetric(input.data, a_bits);
  const QuantParams qw = fit_symmetric(filters.data, w_bits);

  // The bit-serial scheme streams raw values and never reads digit planes;
  // skip packing them on its tensors.
  const bool digits = cfg_.datapath.scheme != DecompositionScheme::kSerial;
  const PreparedInt in_planes = prepare_int_planes(input.data, qa, digits);
  const ConvPlan<PreparedInt> plan = build_int_plan(
      input.c, input.h, input.w, filters, spec, qw, digits, *pool_);
  return execute_int_plan(plan, in_planes, *pool_, units_,
                          cfg_.datapath.n_inputs, a_bits, w_bits, qa, qw);
}

Tensor ConvEngine::dgrad_fp16(const Tensor& grad_out, const FilterBank& filters,
                              int fwd_pad) {
  const FilterBank t = transpose_for_dgrad(filters);
  ConvSpec spec;
  spec.stride = 1;
  spec.pad = filters.kh - 1 - fwd_pad;
  return conv_fp16(grad_out, t, spec);
}

DatapathStats ConvEngine::stats() const {
  DatapathStats total;
  for (const auto& u : units_) total += u->stats();
  return total;
}

void ConvEngine::reset_stats() {
  // The scheme implementations expose no counter reset; rebuilding the
  // per-slot datapaths zeroes every counter and leaves behaviour untouched
  // (units carry no cross-call numeric state -- the accumulator is reset
  // per output pixel anyway).
  for (auto& u : units_) u = make_datapath(cfg_.datapath);
}

}  // namespace mpipu
