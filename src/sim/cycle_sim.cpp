#include "sim/cycle_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mpipu {
namespace {

/// Sentinel for a masked (zero-operand) product: the EHU sees a subnormal
/// exponent far below every live product, so its alignment always exceeds
/// the software precision.
constexpr int kMaskedExp = kMaskedProductExp;

/// Steady-state behaviour of one tile's broadcast stream over a sampled
/// window (the per-layer metrics that do not depend on the step count).
struct StreamResult {
  double cycles_per_step = 0.0;
  double avg_iteration_cycles = 0.0;
  double stall_fraction = 0.0;
};

}  // namespace

int64_t layer_broadcast_steps(const ConvLayer& layer, const TileConfig& tile) {
  // The critical tile of the default output-channel partition: the largest
  // shard holds ceil(cout / num_tiles) channels, so this reproduces the
  // legacy ceil_div(ceil_div(cout, num_tiles), k_unroll) arithmetic while
  // the per-shard counts now come from the partitioner.
  const LayerPartition part =
      partition_layer(layer, tile.num_tiles, PartitionKind::kOutputChannel);
  int64_t critical = 0;
  for (const LayerShard& s : part.shards) {
    critical = std::max(critical, tile_broadcast_steps(s.layer, tile));
  }
  return critical;
}

NetworkSimResult simulate_network(const Network& net, const TileConfig& tile,
                                  const SimOptions& opts,
                                  const PartitionSpec& partition) {
  // Release-mode validation: the num_clusters() assert vanishes under
  // NDEBUG, so an indivisible ipus_per_cluster used to silently simulate
  // fewer IPUs than configured.  validate() throws in every build mode.
  tile.validate();
  if (opts.sampled_steps < 1) {
    throw std::invalid_argument(
        "SimOptions: sampled_steps must be >= 1, got " +
        std::to_string(opts.sampled_steps));
  }

  NetworkSimResult result;
  result.network = net.name;
  result.tile = tile.name;
  result.partition = partition_kind_name(partition.kind);
  result.num_tiles = tile.num_tiles;

  Rng rng(opts.seed);
  const ExponentJitter act_jitter = net.tensor_stats.act_jitter;
  const ExponentJitter wgt_jitter = net.tensor_stats.wgt_jitter;

  const int n = tile.c_unroll;
  const int clusters = tile.num_clusters();
  const int per_cluster = tile.ipus_per_cluster;
  const int spatial_copies = tile.h_unroll * tile.w_unroll;
  const int B = tile.input_buffer_depth;
  const int iters_per_op = fp16_iterations_per_op(tile.datapath.scheme);

  std::vector<int> product_exps(static_cast<size_t>(n));
  std::vector<int> act_exps(static_cast<size_t>(spatial_copies * n));

  // Simulate one tile's broadcast stream of `steps_total` ops, modeling the
  // broadcast/buffer handshake:
  //   issue(t)   >= issue(t-1) + 1                      (one op per cycle)
  //   issue(t)   >= finish(c, t-B) for every cluster c  (buffer capacity)
  //   start(c,t)  = max(issue(t), finish(c, t-1))
  //   finish(c,t) = start(c,t) + service(c,t)
  // Draws from the shared `rng`, so streams are simulated in a fixed,
  // documented order (critical shard first within each layer).
  auto simulate_stream = [&](int64_t steps_total) {
    // The int cast is in-bounds by construction: the min with
    // opts.sampled_steps (an int, validated >= 1 above) caps the value, so
    // 1 <= sampled <= opts.sampled_steps always holds.
    const int sampled = static_cast<int>(
        std::min<int64_t>(opts.sampled_steps, std::max<int64_t>(steps_total, 1)));
    assert(sampled >= 1 && sampled <= opts.sampled_steps);

    std::vector<std::vector<double>> finish(
        static_cast<size_t>(clusters),
        std::vector<double>(static_cast<size_t>(sampled), 0.0));
    double issue_prev = -1.0;
    int64_t stall_slots = 0;
    double iteration_cycles_sum = 0.0;
    int64_t iteration_count = 0;

    for (int t = 0; t < sampled; ++t) {
      // Fresh activation jitters per spatial copy (shared across K) and
      // fresh weight jitters per IPU (each IPU holds a different output
      // channel's filter; every step is a new kernel position / chunk).
      // Only relative exponents matter: the op's base exponent cancels in
      // the alignment computation, so jitters are sampled directly.  Zero
      // activations (ReLU sparsity) yield EHU-masked products.
      for (auto& e : act_exps) {
        e = rng.bernoulli(net.tensor_stats.act_zero_prob)
                ? kMaskedExp
                : sample_jitter(rng, act_jitter);
      }

      double issue = issue_prev + 1.0;
      for (int c = 0; c < clusters; ++c) {
        if (t >= B) {
          issue = std::max(
              issue, finish[static_cast<size_t>(c)][static_cast<size_t>(t - B)]);
        }
      }
      stall_slots += issue > issue_prev + 1.0 ? 1 : 0;
      issue_prev = issue;

      for (int c = 0; c < clusters; ++c) {
        int service = 0;
        for (int i = 0; i < per_cluster; ++i) {
          const int ipu_idx = c * per_cluster + i;
          const int copy = ipu_idx % spatial_copies;  // interleave spatial copies
          for (int p = 0; p < n; ++p) {
            const int ae = act_exps[static_cast<size_t>(copy * n + p)];
            product_exps[static_cast<size_t>(p)] =
                ae == kMaskedExp ? kMaskedExp : ae + sample_jitter(rng, wgt_jitter);
          }
          // Service time of one FP-IP op: iterations x bands, per the
          // scheme-generic §3.2 banding model of core/datapath.h.
          const int cyc = fp16_op_service_cycles(product_exps, tile.datapath);
          service = std::max(service, cyc);
          iteration_cycles_sum += static_cast<double>(cyc) / iters_per_op;
          ++iteration_count;
        }
        const double start = std::max(
            issue,
            t > 0 ? finish[static_cast<size_t>(c)][static_cast<size_t>(t - 1)]
                  : 0.0);
        finish[static_cast<size_t>(c)][static_cast<size_t>(t)] = start + service;
      }
    }

    double total = 0.0;
    for (int c = 0; c < clusters; ++c) {
      total = std::max(
          total, finish[static_cast<size_t>(c)][static_cast<size_t>(sampled - 1)]);
    }

    StreamResult sr;
    sr.cycles_per_step = total / sampled;
    sr.avg_iteration_cycles =
        iteration_cycles_sum / static_cast<double>(iteration_count);
    sr.stall_fraction = static_cast<double>(stall_slots) / sampled;
    return sr;
  };

  double util_cycles_sum = 0.0;  // sum over layers: layer_cycles * mean_util

  for (const auto& layer : net.layers) {
    const LayerPartition part =
        partition_layer(layer, tile.num_tiles, partition.kind);

    // Per-tile step counts (x repeat), then one simulated stream per
    // DISTINCT step count: shards with equal step counts see statistically
    // identical broadcast streams (the service distribution depends only on
    // tensor stats and the tile config), so they share one sampled stream
    // -- which also makes equal shards report exactly equal cycles (zero
    // imbalance for even splits).  Streams are simulated in descending step
    // order so the critical shard consumes the RNG first: with a single
    // group (every evenly-divisible layer) the draw sequence is identical
    // to the legacy single-stream simulator.
    std::vector<int64_t> tile_steps(part.shards.size(), 0);
    for (size_t i = 0; i < part.shards.size(); ++i) {
      tile_steps[i] =
          tile_broadcast_steps(part.shards[i].layer, tile) * layer.repeat;
    }
    std::vector<int64_t> distinct;
    for (int64_t s : tile_steps) {
      if (s > 0 && std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
        distinct.push_back(s);
      }
    }
    std::sort(distinct.begin(), distinct.end(), std::greater<int64_t>());
    std::vector<StreamResult> stream_of(distinct.size());
    for (size_t g = 0; g < distinct.size(); ++g) {
      stream_of[g] = simulate_stream(distinct[g]);
    }
    auto stream_for = [&](int64_t steps) -> const StreamResult& {
      const size_t g = static_cast<size_t>(
          std::find(distinct.begin(), distinct.end(), steps) - distinct.begin());
      return stream_of[g];
    };

    LayerSimResult lr;
    lr.layer = layer.name;
    lr.tiles.resize(part.shards.size());
    double max_cycles = 0.0;
    double cycles_sum = 0.0;
    for (size_t i = 0; i < part.shards.size(); ++i) {
      TileSimResult& tr = lr.tiles[i];
      tr.tile = static_cast<int>(i);
      tr.steps = tile_steps[i];
      tr.cycles = tile_steps[i] > 0
                      ? stream_for(tile_steps[i]).cycles_per_step *
                            static_cast<double>(tile_steps[i])
                      : 0.0;
      cycles_sum += tr.cycles;
      if (tr.cycles > max_cycles) {
        max_cycles = tr.cycles;
        lr.critical_tile = tr.tile;
      }
    }
    double util_sum = 0.0;
    for (TileSimResult& tr : lr.tiles) {
      tr.utilization = max_cycles > 0.0 ? tr.cycles / max_cycles : 0.0;
      util_sum += tr.utilization;
    }
    const double mean_cycles =
        cycles_sum / static_cast<double>(part.shards.size());
    lr.imbalance = mean_cycles > 0.0 ? max_cycles / mean_cycles - 1.0 : 0.0;

    // Layer totals are the critical tile's view: tiles run concurrently,
    // the slowest one gates the layer.
    const TileSimResult& crit = lr.tiles[static_cast<size_t>(lr.critical_tile)];
    lr.total_steps = crit.steps;
    lr.total_cycles = crit.cycles;
    if (crit.steps > 0) {
      const StreamResult& sr = stream_for(crit.steps);
      lr.cycles_per_step = sr.cycles_per_step;
      lr.avg_iteration_cycles = sr.avg_iteration_cycles;
      lr.stall_fraction = sr.stall_fraction;
    }
    util_cycles_sum +=
        lr.total_cycles * (util_sum / static_cast<double>(lr.tiles.size()));
    result.total_cycles += lr.total_cycles;
    result.layers.push_back(std::move(lr));
  }
  result.mean_tile_utilization =
      result.total_cycles > 0.0 ? util_cycles_sum / result.total_cycles : 0.0;
  return result;
}

IntHistogram alignment_histogram(const Network& net, int n_inputs,
                                 int samples_per_layer, uint64_t seed) {
  IntHistogram hist(64);
  Rng rng(seed);
  std::vector<int> exps(static_cast<size_t>(n_inputs));
  for (size_t l = 0; l < net.layers.size(); ++l) {
    for (int s = 0; s < samples_per_layer; ++s) {
      int max_exp = INT32_MIN;
      int live = 0;
      for (auto& e : exps) {
        if (rng.bernoulli(net.tensor_stats.act_zero_prob)) {
          e = INT32_MIN;  // zero operand: excluded, as in the paper's
                          // histogram of live product alignments
          continue;
        }
        e = sample_jitter(rng, net.tensor_stats.act_jitter) +
            sample_jitter(rng, net.tensor_stats.wgt_jitter);
        max_exp = std::max(max_exp, e);
        ++live;
      }
      if (live == 0) continue;
      for (int e : exps) {
        if (e != INT32_MIN) hist.add(max_exp - e);
      }
    }
  }
  return hist;
}

}  // namespace mpipu
