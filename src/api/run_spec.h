// RunSpec / RunOptions: the one configuration driving every high-level
// execution path -- Session's conversational run/estimate AND the
// compile-once CompiledModel pipeline (api/compiled_model.h).  Split out of
// session.h so the compile half does not depend on the Session class.
#pragma once

#include "api/precision_policy.h"
#include "core/datapath.h"
#include "sim/cycle_sim.h"
#include "sim/tile.h"

namespace mpipu {

/// The one config driving both the numeric and the cycle-sim paths.
struct RunSpec {
  /// Datapath of every IPU: used directly by run() and plugged into the
  /// tile by estimate().  tile.datapath is ignored -- this is the source of
  /// truth (the old three-config split this API replaces).
  DatapathConfig datapath{};
  /// Tile geometry for the cycle-sim path (unrolls, clustering, buffers).
  /// tile.c_unroll must equal datapath.n_inputs.
  TileConfig tile{};
  /// Per-layer precision choices for the numeric path.  Resolved per layer
  /// at compile time; a CompiledModel never re-resolves it.
  PrecisionPolicy policy{};
  /// Worker count: the Session's shared pool, or a CompiledModel's per-call
  /// scratch pool; <= 0 selects hardware_concurrency().  For concurrent
  /// serving through one CompiledModel prefer 1 (parallelism across
  /// requests, zero per-call thread spawn).
  int threads = 1;
  /// Sampling options for the cycle-sim path.
  SimOptions sim{};
  /// Multi-tile partitioning (sim/partition.h): how estimate() shards each
  /// layer across tile.num_tiles tiles.  run() does not read it.
  PartitionSpec partition{};
};

struct RunOptions {
  /// Compute the exact FP32 reference chain (on the run's pool) and
  /// per-layer error metrics.
  bool compare_reference = true;
  /// Also run the cycle simulator on the model's shape table and attach the
  /// NetworkSimResult to the report.
  bool with_estimate = false;
};

/// Plug the spec's datapath into a tile geometry (the cycle-sim path's
/// config composition).  Throws std::invalid_argument when the tile's
/// c_unroll disagrees with the datapath's n_inputs -- one spec, one n.
TileConfig composed_tile_for(const RunSpec& spec, const TileConfig& geometry);

}  // namespace mpipu
