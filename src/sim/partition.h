// Multi-tile partitioning: shard one conv layer across the N tiles of a
// TileConfig for the cycle sim (sim/cycle_sim.h), which partitions every
// layer, simulates each tile's broadcast stream and reports per-tile
// utilization, load imbalance and the critical-tile cycles -- replacing
// the single ceil_div(cout, num_tiles) that used to hide the whole
// multi-tile story inside layer_broadcast_steps.  Host execution does not
// mirror the tile shards: the conv executor (nn/conv_plan.h) splits every
// layer over (pixel, output channel) on the whole thread pool, which is
// byte-identical to any shard-and-join.
//
// Two partition schemes, the two natural axes of a weight-stationary tile:
//
//   kOutputChannel  each tile owns a contiguous slice of output channels
//                   (its own filters; activations broadcast to every tile).
//                   This is the paper's implicit §4.1 mapping.
//   kSpatialRows    each tile owns a contiguous band of output rows (all
//                   output channels; filters replicated, activation halo
//                   rows shared with neighbouring tiles).
//
// Splits are balanced-contiguous: extent E over T tiles gives tile i the
// range [i*E/T, (i+1)*E/T), so shard sizes differ by at most one and the
// largest shard is exactly ceil(E/T) -- the same critical-tile size the
// legacy arithmetic modeled, which keeps default cycle-sim results
// byte-identical.
#pragma once

#include <string>
#include <vector>

#include "workload/networks.h"

namespace mpipu {

struct TileConfig;

/// The two ways a conv layer shards across tiles.
enum class PartitionKind { kOutputChannel, kSpatialRows };

const char* partition_kind_name(PartitionKind kind);

/// The partition choice carried by RunSpec for the multi-tile cycle sim.
struct PartitionSpec {
  /// Axis the layer shards along.  kOutputChannel is the default and
  /// reproduces the legacy single-tile-view arithmetic exactly for evenly
  /// divisible couts.
  PartitionKind kind = PartitionKind::kOutputChannel;

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

/// One shard's slice of a conv output: channels [co_begin, co_end) x output
/// rows [row_begin, row_end).  Exactly one axis is a strict sub-range per
/// PartitionKind; the other always spans the full extent.  Empty shards
/// (co_begin == co_end or row_begin == row_end) model idle tiles when the
/// extent is smaller than the tile count.
struct ShardRange {
  int tile = 0;
  int co_begin = 0, co_end = 0;
  int row_begin = 0, row_end = 0;

  int cout() const { return co_end - co_begin; }
  int rows() const { return row_end - row_begin; }
  bool empty() const { return cout() <= 0 || rows() <= 0; }

  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Split output geometry (cout x hout) into `num_tiles` balanced contiguous
/// shards along the partition axis.  Always returns exactly `num_tiles`
/// entries (idle tiles appear as empty ranges).  Throws
/// std::invalid_argument on num_tiles < 1 or negative extents.
std::vector<ShardRange> partition_output(int cout, int hout, int num_tiles,
                                         PartitionKind kind);

/// One tile's shard of a conv layer: the output range plus the sub-layer
/// seen by that tile (cout / hout restricted; everything else inherited).
struct LayerShard {
  ShardRange range;
  ConvLayer layer;  ///< the shard as a ConvLayer (cout/hout restricted)
  /// kSpatialRows only: input rows this shard reads that neighbouring
  /// shards also read (the halo).  Zero for kOutputChannel, where the
  /// whole input is broadcast to every tile anyway.
  int halo_rows = 0;
};

/// A conv layer partitioned across tiles.
struct LayerPartition {
  PartitionKind kind = PartitionKind::kOutputChannel;
  int num_tiles = 1;
  std::vector<LayerShard> shards;  ///< exactly num_tiles entries

  /// Sum of shard MACs == layer MACs (no work lost or double-counted);
  /// asserted by the partition test wall.
  int64_t total_macs() const {
    int64_t t = 0;
    for (const LayerShard& s : shards) t += s.layer.macs();
    return t;
  }
};

/// Partition `layer` across `num_tiles` tiles.  Shards are balanced within
/// one unit of the partitioned extent; union of shards covers the layer
/// exactly (every output channel / row in exactly one shard).  Throws
/// std::invalid_argument on num_tiles < 1.
LayerPartition partition_layer(const ConvLayer& layer, int num_tiles,
                               PartitionKind kind);

/// Broadcast steps ONE tile executes for (its shard of) a layer: the
/// per-tile mapping arithmetic with no cross-tile division --
/// kh * kw * ceil(cin/c_unroll) * ceil(cout/k_unroll)
///         * ceil(hout/h_unroll) * ceil(wout/w_unroll).
/// layer_broadcast_steps (sim/cycle_sim.h) is the critical tile's value of
/// this over the default output-channel partition.
int64_t tile_broadcast_steps(const ConvLayer& shard_layer,
                             const TileConfig& tile);

}  // namespace mpipu
