#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "api/json.h"
#include "api/model.h"
#include "nn/elementwise.h"

namespace perfbench {

using namespace mpipu;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

Tail nearest_rank_tail(std::vector<double> samples, size_t min_beyond) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const auto rank = [n](int pct) {
    // Integer nearest rank ceil(pct * n / 100), as common/percentile.h.
    return std::max<size_t>(1, (n * static_cast<size_t>(pct) + 99) / 100);
  };
  int pct = 50;
  for (int p = 99; p > 50; --p) {
    if (n - rank(p) >= min_beyond) {
      pct = p;
      break;
    }
  }
  t.pct = pct;
  t.beyond = n - rank(pct);
  t.value = samples[rank(pct) - 1];
  return t;
}

bool rung_passes(const Rung& r, double limit_s) {
  if (r.latencies.empty()) return false;
  const Tail tail = nearest_rank_tail(r.latencies);
  const double backlog_cap =
      r.rate_rps * limit_s + static_cast<double>(r.in_service);
  return tail.value <= limit_s &&
         static_cast<double>(r.backlog_at_end) <= backlog_cap;
}

double ladder_max_rps(const std::vector<Rung>& ascending, double limit_s) {
  double best = 0.0;
  for (const Rung& r : ascending) {
    if (!rung_passes(r, limit_s)) break;
    best = r.rate_rps;
  }
  return best;
}

double failed_frac(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
};

void hash_stats(Fnv& f, const DatapathStats& s) {
  f.pod(s.fp_ops);
  f.pod(s.int_ops);
  f.pod(s.cycles);
  f.pod(s.nibble_iterations);
  f.pod(s.masked_products);
  f.pod(s.multi_cycle_ops);
  f.pod(s.skipped_iterations);
}

bool tensors_identical(const Tensor& a, const Tensor& b) {
  return a.c == b.c && a.h == b.h && a.w == b.w &&
         a.data.size() == b.data.size() &&
         (a.data.empty() ||
          std::memcmp(a.data.data(), b.data.data(),
                      a.data.size() * sizeof(double)) == 0);
}

template <typename Planes>
uint64_t planes_bytes(const Planes& p);

template <>
uint64_t planes_bytes(const PreparedFp16& p) {
  return p.size() * (sizeof(int32_t) * 2) +
         p.nib_stride() * static_cast<size_t>(kFp16NibbleLanes);
}

template <>
uint64_t planes_bytes(const PreparedInt& p) {
  return p.size() * sizeof(int32_t) +
         p.nib_stride() * static_cast<size_t>(p.lanes());
}

template <typename Planes>
double plan_macs(const ConvPlan<Planes>& plan) {
  double m = 0.0;
  for (int y = 0; y < plan.ho; ++y) {
    for (int x = 0; x < plan.wo; ++x) {
      m += plan.classes[static_cast<size_t>(plan.class_of(y, x))].len;
    }
  }
  return m * plan.cout;
}

template <typename Planes>
uint64_t plan_bytes(const ConvPlan<Planes>& plan) {
  uint64_t b = 0;
  for (const ClipClass<Planes>& c : plan.classes) {
    b += c.rel_input.size() * sizeof(int32_t) + planes_bytes(c.filters);
  }
  return b;
}

}  // namespace

uint64_t report_digest(const RunReport& r) {
  Fnv f;
  f.pod(r.output.c);
  f.pod(r.output.h);
  f.pod(r.output.w);
  f.bytes(r.output.data.data(), r.output.data.size() * sizeof(double));
  for (const LayerRunReport& l : r.layers) hash_stats(f, l.stats);
  return f.h;
}

std::string hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

int Tracer::begin(std::string name, int parent, int request) {
  const double t = now_s();
  MutexLock lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), t, t, id, parent, request});
  return id;
}

void Tracer::end(int id) {
  const double t = now_s();
  MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = t;
}

int Tracer::add(std::string name, double start_s, double end_s, int parent,
                int request) {
  MutexLock lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), start_s, end_s, id, parent, request});
  return id;
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  double t0 = all.empty() ? 0.0 : all.front().start_s;
  for (const Span& s : all) t0 = std::min(t0, s.start_s);
  Json events = Json::array();
  for (const Span& s : all) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", (s.start_s - t0) * 1e6);
    e.set("dur", (s.end_s - s.start_s) * 1e6);
    e.set("pid", 1);
    e.set("tid", s.request < 0 ? 0 : s.request);
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("request", s.request);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << root.dump(0) << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

namespace {

/// Scoped span that is a no-op without a tracer; also reports its duration.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int parent, int request)
      : tracer_(t), start_(now_s()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, parent, request);
  }
  double stop() {
    if (tracer_ != nullptr) tracer_->end(id_);
    return now_s() - start_;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  double start_;
  int id_ = -1;
};

}  // namespace

ReplayModel replay_compile(const GraphModel& g, const RunSpec& spec,
                           int input_h, int input_w, Tracer* tracer) {
  ReplayModel m;
  m.nodes = g.nodes();
  m.spec = spec;
  m.topo = analyze_graph(m.nodes, input_h, input_w);
  m.conv.resize(m.nodes.size());
  size_t n_convs = 0;
  for (const GraphNode& nd : m.nodes) {
    if (nd.op == GraphNode::Op::kConv) ++n_convs;
  }
  Scope compile(tracer, "api.compile", -1, -1);
  size_t conv_index = 0;
  for (int id : m.topo.order) {
    const GraphNode& nd = m.nodes[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    ReplayModel::ConvNode& cn = m.conv[static_cast<size_t>(id)];
    cn.precision = spec.policy.resolve(conv_index++, n_convs, nd.name);
    const int pred = nd.inputs[0];
    const int c = m.topo.out_c[static_cast<size_t>(pred)];
    const int h = m.topo.out_h[static_cast<size_t>(pred)];
    const int w = m.topo.out_w[static_cast<size_t>(pred)];
    if (cn.precision.kind == LayerPrecision::Kind::kFp16) {
      Scope prep(tracer, "nn.prepare_filters", compile.id(), -1);
      const PreparedFp16 flt = prepare_fp16_planes(nd.filters.data);
      m.prepare_filters_s += prep.stop();
      Scope build(tracer, "nn.plan_build", compile.id(), -1);
      cn.fp16_plan.build(c, h, w, nd.filters, nd.spec, flt);
      m.plan_build_s += build.stop();
      m.plan_bytes += plan_bytes(cn.fp16_plan);
      cn.macs = plan_macs(cn.fp16_plan);
      cn.out_pixels = cn.fp16_plan.ho * cn.fp16_plan.wo;
    } else {
      Scope prep(tracer, "nn.prepare_filters", compile.id(), -1);
      cn.qw = fit_symmetric(nd.filters.data, cn.precision.w_bits);
      cn.int_digits = spec.datapath.scheme != DecompositionScheme::kSerial;
      const PreparedInt flt =
          prepare_int_planes(nd.filters.data, cn.qw, cn.int_digits);
      m.prepare_filters_s += prep.stop();
      Scope build(tracer, "nn.plan_build", compile.id(), -1);
      cn.int_plan.build(c, h, w, nd.filters, nd.spec, flt);
      m.plan_build_s += build.stop();
      m.plan_bytes += plan_bytes(cn.int_plan);
      cn.macs = plan_macs(cn.int_plan);
      cn.out_pixels = cn.int_plan.ho * cn.int_plan.wo;
    }
  }
  compile.stop();
  return m;
}

namespace {

/// One node of the replay: the same calls, in the same order, as
/// CompiledModel::exec_node's unsharded path.
void replay_node(const ReplayModel& m, int id, std::vector<Tensor>& acts,
                 std::vector<DatapathStats>& stats,
                 std::vector<NodeTiming>& timing, ThreadPool& pool,
                 std::span<const std::unique_ptr<Datapath>> units,
                 Tracer* tracer, int parent, int request) {
  const GraphNode& nd = m.nodes[static_cast<size_t>(id)];
  NodeTiming& t = timing[static_cast<size_t>(id)];
  Scope node(tracer, nd.name.c_str(), parent, request);
  Tensor y;
  if (nd.op == GraphNode::Op::kConv) {
    const ReplayModel::ConvNode& cn = m.conv[static_cast<size_t>(id)];
    const Tensor& x = acts[static_cast<size_t>(nd.inputs[0])];
    DatapathStats before;
    for (const auto& u : units) before += u->stats();
    if (cn.precision.kind == LayerPrecision::Kind::kFp16) {
      Scope prep(tracer, "nn.prepare_acts", node.id(), request);
      const PreparedFp16 in_planes = prepare_fp16_planes(x.data);
      t.prep_s = prep.stop();
      Scope exec(tracer, "nn.execute", node.id(), request);
      y = execute_fp16_plan(cn.fp16_plan, in_planes, pool, units,
                            m.spec.datapath.n_inputs, cn.precision.accum);
      t.exec_s = exec.stop();
    } else {
      Scope prep(tracer, "nn.prepare_acts", node.id(), request);
      const QuantParams qa = fit_symmetric(x.data, cn.precision.a_bits);
      const PreparedInt in_planes =
          prepare_int_planes(x.data, qa, cn.int_digits);
      t.prep_s = prep.stop();
      Scope exec(tracer, "nn.execute", node.id(), request);
      y = execute_int_plan(cn.int_plan, in_planes, pool, units,
                           m.spec.datapath.n_inputs, cn.precision.a_bits,
                           cn.precision.w_bits, qa, cn.qw);
      t.exec_s = exec.stop();
    }
    DatapathStats after;
    for (const auto& u : units) after += u->stats();
    stats[static_cast<size_t>(id)] = after - before;
  } else {
    Scope join(tracer, "nn.join", node.id(), request);
    std::vector<const Tensor*> parts;
    parts.reserve(nd.inputs.size());
    for (int p : nd.inputs) parts.push_back(&acts[static_cast<size_t>(p)]);
    y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                     : channel_concat(parts);
    t.join_s = join.stop();
  }
  Scope post(tracer, "nn.post_ops", node.id(), request);
  acts[static_cast<size_t>(id)] = apply_post_ops(std::move(y), nd.relu, nd.pool);
  t.post_s = post.stop();
  node.stop();
}

}  // namespace

ReplayResult replay_forward(const ReplayModel& m, const Tensor& input,
                            int threads, Tracer* tracer, int request) {
  ReplayResult r;
  Scope fwd(tracer, "api.forward", -1, request);
  ThreadPool pool(threads);
  std::vector<std::unique_ptr<Datapath>> units;
  for (int slot = 0; slot < pool.size(); ++slot) {
    units.push_back(make_datapath(m.spec.datapath));
  }
  std::vector<Tensor> acts(m.nodes.size());
  acts[static_cast<size_t>(m.topo.input_node)] = input;
  std::vector<DatapathStats> stats(m.nodes.size());
  r.timing.resize(m.nodes.size());
  for (const std::vector<int>& wave : m.topo.waves) {
    const double w0 = now_s();
    if (wave.size() == 1) {
      replay_node(m, wave[0], acts, stats, r.timing, pool, units, tracer,
                  fwd.id(), request);
    } else {
      pool.parallel_for(
          static_cast<int64_t>(wave.size()),
          [&](int64_t begin, int64_t end, int) {
            for (int64_t i = begin; i < end; ++i) {
              const int id = wave[static_cast<size_t>(i)];
              ThreadPool inline_pool(1);
              std::vector<std::unique_ptr<Datapath>> unit;
              if (m.nodes[static_cast<size_t>(id)].op ==
                  GraphNode::Op::kConv) {
                unit.push_back(make_datapath(m.spec.datapath));
              }
              replay_node(m, id, acts, stats, r.timing, inline_pool, unit,
                          tracer, fwd.id(), request);
            }
          });
    }
    r.waves_s += now_s() - w0;
  }
  for (int id : m.topo.order) {
    if (id == m.topo.input_node) continue;
    r.stats.push_back(stats[static_cast<size_t>(id)]);
  }
  r.output = std::move(acts[static_cast<size_t>(m.topo.output_node)]);
  r.wall_s = fwd.stop();
  return r;
}

bool replay_matches(const ReplayResult& r, const RunReport& report) {
  if (!tensors_identical(r.output, report.output)) return false;
  if (r.stats.size() != report.layers.size()) return false;
  for (size_t i = 0; i < r.stats.size(); ++i) {
    if (!(r.stats[i] == report.layers[i].stats)) return false;
  }
  return true;
}

}  // namespace perfbench
