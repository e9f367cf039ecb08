#include "api/run_report.h"

namespace mpipu {

Json to_json_value(const DatapathStats& s) {
  Json j = Json::object();
  j.set("fp_ops", s.fp_ops)
      .set("int_ops", s.int_ops)
      .set("cycles", s.cycles)
      .set("nibble_iterations", s.nibble_iterations)
      .set("masked_products", s.masked_products)
      .set("multi_cycle_ops", s.multi_cycle_ops)
      .set("skipped_iterations", s.skipped_iterations);
  return j;
}

Json to_json_value(const AgreementStats& s) {
  Json j = Json::object();
  j.set("max_abs_err", s.max_abs_err)
      .set("mean_abs_err", s.mean_abs_err)
      .set("max_rel_err", s.max_rel_err)
      .set("snr_db", s.snr_db)
      .set("mismatched_fp16", s.mismatched_fp16)
      .set("total", s.total);
  return j;
}

Json to_json_value(const NetworkSimResult& r) {
  Json layers = Json::array();
  for (const LayerSimResult& l : r.layers) {
    Json tiles = Json::array();
    for (const TileSimResult& t : l.tiles) {
      Json jt = Json::object();
      jt.set("tile", t.tile)
          .set("steps", t.steps)
          .set("cycles", t.cycles)
          .set("utilization", t.utilization);
      tiles.push(std::move(jt));
    }
    Json jl = Json::object();
    jl.set("layer", l.layer)
        .set("total_steps", l.total_steps)
        .set("cycles_per_step", l.cycles_per_step)
        .set("total_cycles", l.total_cycles)
        .set("avg_iteration_cycles", l.avg_iteration_cycles)
        .set("stall_fraction", l.stall_fraction)
        .set("imbalance", l.imbalance)
        .set("critical_tile", l.critical_tile)
        .set("tiles", std::move(tiles));
    layers.push(std::move(jl));
  }
  Json j = Json::object();
  j.set("network", r.network)
      .set("tile", r.tile)
      .set("partition", r.partition)
      .set("num_tiles", r.num_tiles)
      .set("total_cycles", r.total_cycles)
      .set("mean_tile_utilization", r.mean_tile_utilization)
      .set("layers", std::move(layers));
  return j;
}

Json RunReport::to_json_value() const {
  // Error blocks exist only when the run compared against the reference
  // (total == 0 means RunOptions.compare_reference was off).
  Json jlayers = Json::array();
  for (const LayerRunReport& l : layers) {
    Json jl = Json::object();
    jl.set("layer", l.layer)
        .set("precision", l.precision)
        .set("stats", mpipu::to_json_value(l.stats));
    if (l.error.total > 0) jl.set("error", mpipu::to_json_value(l.error));
    jlayers.push(std::move(jl));
  }
  Json j = Json::object();
  j.set("model", model)
      .set("scheme", scheme)
      .set("kernel_backend", kernel_backend)
      .set("threads", threads)
      .set("totals", mpipu::to_json_value(totals));
  if (end_to_end.total > 0) {
    j.set("end_to_end", mpipu::to_json_value(end_to_end));
  }
  j.set("layers", std::move(jlayers));
  if (estimate.has_value()) {
    j.set("estimate", mpipu::to_json_value(*estimate));
  }
  return j;
}

}  // namespace mpipu
