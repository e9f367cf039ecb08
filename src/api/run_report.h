// RunReport: the one result structure of the high-level API.  A
// Session::run unifies, per layer and in total, the three views the repo
// used to report through three disjoint channels:
//
//   * DatapathStats   -- what the bit-accurate datapath did (ops, cycles,
//                        iterations, masking);
//   * AgreementStats  -- error of the approximate output vs the exact FP32
//                        reference chain;
//   * NetworkSimResult -- simulated tile cycles (when requested), from the
//                        same RunSpec config.
//
// Every forward yields exactly one RunReport; a batch is a loop over runs,
// and a caller that wants batch totals sums the per-run totals itself.
// to_json()/to_json_value() serialize through the single Json emitter
// (api/json.h); benches that write result files compose these values
// instead of hand-printing JSON.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/json.h"
#include "core/datapath.h"
#include "nn/conv.h"
#include "nn/tensor.h"
#include "sim/cycle_sim.h"

namespace mpipu {

struct LayerRunReport {
  std::string layer;
  std::string precision;  ///< LayerPrecision::to_string() of the layer
  DatapathStats stats;    ///< this layer's datapath work (delta, not total)
  AgreementStats error;   ///< vs the FP32 reference, after post-ops
};

struct RunReport {
  std::string model;
  std::string scheme;  ///< scheme_name() of the datapath that ran
  /// simd::backend_name() of the kernel backend the run executed on
  /// ("scalar" or "avx2") -- records which serve-loop
  /// implementation produced the (bit-identical) outputs.
  std::string kernel_backend;
  int threads = 1;
  std::vector<LayerRunReport> layers;
  DatapathStats totals;        ///< sum of the per-layer deltas
  AgreementStats end_to_end;   ///< final output vs the FP32 reference chain
  Tensor output;               ///< final activation tensor
  Tensor reference_output;     ///< exact FP32 chain output (when compared)
  std::optional<NetworkSimResult> estimate;  ///< cycle sim, when requested

  Json to_json_value() const;
  std::string to_json(int indent = 2) const { return to_json_value().dump(indent); }
};

/// Shared emitters for the component structs (used by the report and by
/// benches composing their own documents).
Json to_json_value(const DatapathStats& s);
Json to_json_value(const AgreementStats& s);
Json to_json_value(const NetworkSimResult& r);

}  // namespace mpipu
