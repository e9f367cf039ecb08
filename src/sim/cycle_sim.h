// Cycle-accurate convolution-tile simulator (paper §4.1).
//
// Models, for each convolution layer, the stream of broadcast operations a
// weight-stationary tile executes and the per-IPU alignment cycles they
// cost.  Three architectural effects determine the cycle count:
//
//   1. nibble iterations: 9 per FP16 inner product (3x3 nibble pairs);
//   2. MC-IPU multi-cycling: a nibble iteration costs floor(d_max/sp) + 1
//      cycles, where d_max is the op's largest unmasked alignment on that
//      IPU (§3.2);
//   3. clustering: IPUs in a cluster proceed in lockstep (an op's service
//      time is the max over the cluster), clusters proceed independently
//      behind private input buffers, and the broadcaster stalls when any
//      cluster's buffer is full (§3.3).
//
// Operand exponents are drawn from the layer's tensor distributions
// (activations shared by all IPUs of a spatial copy; weights independent
// per output channel), reproducing the correlation structure that makes
// clustering effective.  The simulator samples a bounded number of
// broadcast steps per layer and scales to the layer's full op count --
// the same sampling strategy the paper uses (5% tensor samples).
//
// Multi-tile: every layer is partitioned across tile.num_tiles tiles
// (sim/partition.h -- by output channel or by spatial rows), each tile's
// broadcast stream is simulated, and the layer reports per-tile cycles /
// utilization plus the load imbalance; the layer's total_cycles is the
// critical (slowest) tile's -- tiles run concurrently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "common/rng.h"
#include "sim/partition.h"
#include "sim/tile.h"
#include "workload/distributions.h"
#include "workload/networks.h"

namespace mpipu {

struct SimOptions {
  /// Broadcast steps sampled per layer (scaled up to the true step count).
  /// Must be >= 1; simulate_network rejects anything else.
  int sampled_steps = 1500;
  uint64_t seed = 0xC0FFEE;
};

/// One tile's share of one layer under the active partition.
struct TileSimResult {
  int tile = 0;
  int64_t steps = 0;        ///< broadcast ops this tile executes (x repeat)
  double cycles = 0.0;      ///< simulated cycles for this tile's stream
  /// cycles / critical-tile cycles: 1.0 for the critical tile, 0.0 for an
  /// idle tile (layers run tile-synchronously, so a faster tile waits).
  double utilization = 0.0;
};

struct LayerSimResult {
  std::string layer;
  int64_t total_steps = 0;      ///< critical tile's broadcast ops
  double cycles_per_step = 0.0; ///< critical tile's steady-state rate
  double total_cycles = 0.0;    ///< critical tile's cycles (tiles run
                                ///< concurrently; the slowest gates the layer)
  double avg_iteration_cycles = 0.0;  ///< mean cycles per nibble iteration
  double stall_fraction = 0.0;  ///< fraction of broadcast issue slots stalled
  /// Per-tile breakdown under the active partition (tile.num_tiles entries).
  std::vector<TileSimResult> tiles;
  /// max tile cycles / mean tile cycles - 1 over ALL tiles (idle tiles
  /// included): 0 when perfectly balanced, e.g. evenly divisible couts
  /// under kOutputChannel.
  double imbalance = 0.0;
  int critical_tile = 0;  ///< index of the slowest tile
};

struct NetworkSimResult {
  std::string network;
  std::string tile;
  std::string partition;  ///< partition_kind_name of the active partition
  int num_tiles = 1;
  std::vector<LayerSimResult> layers;
  double total_cycles = 0.0;
  /// Cycle-weighted mean of per-tile utilization over layers: 1.0 means
  /// every tile busy whenever any tile is (perfect balance).
  double mean_tile_utilization = 0.0;

  /// Execution time normalized to a baseline run of the same network.
  double normalized_to(const NetworkSimResult& base) const {
    return total_cycles / base.total_cycles;
  }
};

/// Broadcast steps of the CRITICAL tile for a layer under the default
/// output-channel partition (the largest shard holds ceil(cout/num_tiles)
/// channels); utilization losses from cin < C or cout < K are modeled by
/// ceil().  Per-shard counts come from tile_broadcast_steps
/// (sim/partition.h), which this wraps.
int64_t layer_broadcast_steps(const ConvLayer& layer, const TileConfig& tile);

/// Simulate one network on one tile configuration, partitioned across the
/// tile count per `partition`.  Throws std::invalid_argument on an
/// inconsistent tile (TileConfig::validate -- notably an ipus_per_cluster
/// that does not divide ipus_per_tile) or opts.sampled_steps < 1.
NetworkSimResult simulate_network(const Network& net, const TileConfig& tile,
                                  const SimOptions& opts = {},
                                  const PartitionSpec& partition = {});

/// Collect the distribution of product alignments (exponent differences)
/// for a network on n-input IPUs -- reproduces Fig. 9.
IntHistogram alignment_histogram(const Network& net, int n_inputs,
                                 int samples_per_layer = 4000,
                                 uint64_t seed = 0xFEED);

}  // namespace mpipu
