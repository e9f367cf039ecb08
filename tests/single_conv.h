// One convolution on the datapath, the only way the library runs one: a
// one-conv GraphModel through Session::run.  The single-conv tests read the
// output and the per-call RunReport.totals.
#pragma once

#include <utility>

#include "api/session.h"

namespace mpipu {

/// `filters` over `input` under `precision` on `datapath`, with `threads`
/// pool workers and no FP32 reference chain.
inline RunReport run_single_conv(const Tensor& input, FilterBank filters,
                                 const ConvSpec& spec,
                                 const DatapathConfig& datapath,
                                 const LayerPrecision& precision,
                                 int threads = 1) {
  RunSpec rs;
  rs.datapath = datapath;
  rs.policy.set_default(precision);
  rs.threads = threads;
  GraphModel::Builder b("conv");
  b.conv("conv", std::move(filters), spec, b.input());
  RunOptions opts;
  opts.compare_reference = false;
  return Session(rs).run(b.build(), input, opts);
}

}  // namespace mpipu
