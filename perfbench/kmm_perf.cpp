// kmm_perf — the repo benchmark's harness.
//
//   kmm_perf --workload NAME --seed N --seconds S --trace 0|1
//            [--toy] [--commit STR] [--spans-out FILE]
//
// One process runs one workload (see README.md for the table and the
// reasons behind each choice):
//
//   conn-gnm-1e5          connected_components, gnm n=1e5 m=3n, threads=4
//   mst-gnm-5e4           minimum_spanning_forest, gnm n=5e4 m=3n, unique
//                         weights, threads=4
//   flood-stream-gnm-1e6  flooding_connectivity over stream_ingest of a
//                         gnm_stream n=1e6 m=3n, threads=4
//   serve-mixed-4k        ClusterService over gnm n=4096 m=3n, workers=4,
//                         query_threads=1, closed loop of 8 outstanding
//
// k = 16 machines and a random vertex partition throughout. Every input
// comes from --seed. Every answer is checked against an independent
// sequential reference computed outside the timed regions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the traced run: it
// records harness-side spans around each call into a layer (spans.hpp),
// attaches a MetricsTimeline through the public ObsSink, counts
// allocations, and prints the per-layer metrics. The last line of standard
// output is always the result object:
//
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": X, "unit": U}}}
//
// The exit code is 0 only when every answer and every guard is correct.
// kmm_perf refuses to run from a build that is not Release (exit 3).

#include "alloc_hook.hpp"
#include "spans.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kmm.hpp"

namespace {

using namespace kmm;
using perf::Clock;
using perf::Scope;
using perf::Tracer;

constexpr MachineId kMachines = 16;
constexpr unsigned kThreads = 4;
constexpr std::size_t kServeOutstanding = 8;
constexpr Weight kWeightLimit = 1'000'000;
constexpr QueryKind kServeMix[] = {
    QueryKind::kConnectivity,         QueryKind::kMst,
    QueryKind::kFlooding,             QueryKind::kVerifyStConnectivity,
    QueryKind::kRefereeConnectivity,  QueryKind::kLeaderElection};
constexpr std::size_t kServeKinds = sizeof(kServeMix) / sizeof(kServeMix[0]);

// ---------------------------------------------------------------------------
// Options and sizes

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool toy = false;
  std::string commit = "unknown";
  std::string spans_out;
};

struct Sizes {
  std::size_t n = 0;             // vertices (m = 3n everywhere)
  int setups = 0;                // set-ups per untraced run (median reported)
  int min_solves = 0;            // batch: solves per run at least
  std::size_t pass_queries = 0;  // serve: queries per pass (the fixed set)
  int min_passes = 0;            // serve: passes per run at least
  std::size_t seq_queries = 0;   // serve, traced: queries re-run one at a time
};

Sizes sizes_for(const Options& o) {
  const std::string& w = o.workload;
  if (w == "conn-gnm-1e5") {
    return o.toy ? Sizes{2000, 2, 1, 0, 0, 0} : Sizes{100'000, 9, 3, 0, 0, 0};
  }
  if (w == "mst-gnm-5e4") {
    return o.toy ? Sizes{1000, 2, 1, 0, 0, 0} : Sizes{50'000, 9, 3, 0, 0, 0};
  }
  if (w == "flood-stream-gnm-1e6") {
    return o.toy ? Sizes{5000, 2, 1, 0, 0, 0} : Sizes{1'000'000, 3, 3, 0, 0, 0};
  }
  if (w == "serve-mixed-4k") {
    return o.toy ? Sizes{512, 2, 0, 12, 1, 6} : Sizes{4096, 21, 0, 120, 2, 30};
  }
  return Sizes{};
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kmm_perf: %s\nusage: kmm_perf --workload NAME --seed N --seconds S --trace 0|1 "
               "[--toy] [--commit STR] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') usage(flag);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(value(), "bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value(), "bad --seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64(value(), "bad --trace");
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--commit") {
      o.commit = value();
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (sizes_for(o).n == 0) usage(("unknown workload '" + o.workload + "'").c_str());
  return o;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU seconds (all threads).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set (VmHWM) in MB.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) { return v.empty() ? 0.0 : quantile(std::move(v), 0.5); }
double p95(std::vector<double> v) { return v.empty() ? 0.0 : quantile(std::move(v), 0.95); }
double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

bool same_ledger(const RunStats& a, const RunStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages && a.bits == b.bits &&
         a.supersteps == b.supersteps;
}

RunStats ledger_of(const ClusterStats& s) {
  return RunStats{s.rounds, s.messages, s.total_bits, s.supersteps};
}

/// Per-superstep runtime figures, summed over MetricsTimeline rows only.
struct RuntimeRows {
  std::uint64_t rows = 0, handler_ns = 0, deliver_ns = 0, reduce_ns = 0, allocs = 0;
  std::vector<double> step_us;

  void add(const MetricsTimeline& tl) {
    for (std::size_t i = 0; i < tl.size(); ++i) {
      const auto& r = tl.row(i);
      ++rows;
      handler_ns += r.handler_ns;
      deliver_ns += r.deliver_ns;
      reduce_ns += r.reduce_ns;
      allocs += r.allocs;
      step_us.push_back(static_cast<double>(tl.wall_ns(i)) * 1e-3);
    }
  }
};

// ---------------------------------------------------------------------------
// Result line

class Report {
 public:
  /// One operation: a solve or a query. A wrong answer, a structured error
  /// or a broken guard fails it and the run.
  void attempt(const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::printf("FAIL: %s\n", error.c_str());
  }

  void put(const char* name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-38s %.6g %s\n", name, value, unit);
  }

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }

  void print_result() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name, metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Every workload's generator settings: the same chunked stream for a given
/// seed whatever the thread count.
gen::ParGenConfig gen_config(std::uint64_t seed, Weight weight_limit) {
  gen::ParGenConfig cfg;
  cfg.seed = split(seed, 1);
  cfg.threads = kThreads;
  cfg.weight_limit = weight_limit;
  return cfg;
}

VertexPartition partition_for(std::size_t n, std::uint64_t seed) {
  return VertexPartition::random(n, kMachines, split(seed, 2));
}

// ---------------------------------------------------------------------------
// Independent references

/// Smallest vertex id of each vertex's component, from any label vector.
std::vector<Vertex> smallest_member(const std::vector<Label>& labels) {
  std::vector<Vertex> low(labels.size(), static_cast<Vertex>(-1));
  for (std::size_t v = 0; v < labels.size(); ++v) {
    Vertex& slot = low[labels[v]];
    if (slot == static_cast<Vertex>(-1)) slot = static_cast<Vertex>(v);
  }
  std::vector<Vertex> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) out[v] = low[labels[v]];
  return out;
}

/// Union-find over a replay of an edge stream: the streamed-input oracle.
std::vector<Vertex> stream_component_labels(std::size_t n, const gen::EdgeStream& stream) {
  std::vector<Vertex> parent(n);
  for (std::size_t v = 0; v < n; ++v) parent[v] = static_cast<Vertex>(v);
  const auto find = [&](Vertex v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::mutex mutex;  // sink invocations may run concurrently
  stream([&](std::size_t, std::span<const WeightedEdge> edges) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const WeightedEdge& e : edges) {
      const Vertex a = find(e.u), b = find(e.v);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  });
  std::vector<Label> root(n);
  for (std::size_t v = 0; v < n; ++v) root[v] = find(static_cast<Vertex>(v));
  return smallest_member(root);
}

std::uint64_t count_roots(const std::vector<Vertex>& low) {
  std::uint64_t c = 0;
  for (std::size_t v = 0; v < low.size(); ++v) c += low[v] == v ? 1 : 0;
  return c;
}

/// Adjacency bytes machine m holds on the materialized backend: its hosted
/// vertices' half-edges in the global CSR.
double hosted_adjacency_bytes(const DistributedGraph& dg, MachineId m) {
  double degree = 0;
  for (const Vertex v : dg.vertices_of(m)) degree += static_cast<double>(dg.degree(v));
  return degree * sizeof(HalfEdge);
}

Weight median_edge_weight(const Graph& g) {
  std::vector<Weight> w;
  w.reserve(g.num_edges());
  for (const WeightedEdge& e : g.edges()) w.push_back(e.w);
  if (w.empty()) return 1;
  std::nth_element(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(w.size() / 2), w.end());
  return w[w.size() / 2];
}

// ---------------------------------------------------------------------------
// Sketch layer: the harness builds every hosted vertex's sketch as a
// singleton part and merges the wire images, on the workload's own graph.

struct SketchFigures {
  double build_ns_per_edge = 0.0;
  double restricted_build_ns_per_edge = 0.0;
  double merge_words_per_s = 0.0;
  double wire_words = 0.0;
};

SketchFigures sketch_pass(const DistributedGraph& dg, std::uint64_t seed, Weight restricted_to,
                          Tracer& tr) {
  constexpr std::size_t kBatch = 1024;
  const GraphSketchBuilder builder(dg.num_vertices(), seed);
  L0Sampler sink = builder.empty_sketch();
  L0Sampler acc = builder.empty_sketch();
  std::vector<std::uint64_t> powers;
  // serialize() reserves exactly what one sketch needs, so size the batch
  // buffers up front or every call would reallocate them. Both builds
  // serialize, as the engine does before sending a part sketch.
  WordWriter wire, restricted_wire;
  sink.serialize(wire);
  wire.reserve(kBatch * wire.size());
  restricted_wire.reserve(kBatch * wire.size());
  double build_s = 0.0, restricted_s = 0.0, merge_s = 0.0;
  std::uint64_t half_edges = 0, words = 0;
  for (MachineId m = 0; m < dg.machines(); ++m) {
    const auto hosted = dg.vertices_of(m);
    acc.reset(builder.seed());
    for (std::size_t lo = 0; lo < hosted.size(); lo += kBatch) {
      const auto batch = hosted.subspan(lo, std::min(kBatch, hosted.size() - lo));
      wire.clear();
      Clock::time_point t0 = Clock::now();
      {
        Scope span(tr, "sketch.accumulate_part");
        for (const Vertex& v : batch) {
          sink.reset(builder.seed());
          builder.accumulate_part(dg, std::span<const Vertex>(&v, 1), kNoWeightLimit, sink,
                                  powers);
          sink.serialize(wire);
          half_edges += dg.degree(v);
        }
      }
      build_s += since(t0);
      words += wire.size();
      t0 = Clock::now();
      {
        Scope span(tr, "sketch.add_serialized");
        WordReader reader(wire.words());
        for (std::size_t i = 0; i < batch.size(); ++i) acc.add_serialized(reader);
      }
      merge_s += since(t0);
      restricted_wire.clear();
      t0 = Clock::now();
      {
        Scope span(tr, "sketch.accumulate_part");
        for (const Vertex& v : batch) {
          sink.reset(builder.seed());
          builder.accumulate_part(dg, std::span<const Vertex>(&v, 1), restricted_to, sink,
                                  powers);
          sink.serialize(restricted_wire);
        }
      }
      restricted_s += since(t0);
    }
  }
  const double edges = static_cast<double>(std::max<std::uint64_t>(half_edges, 1));
  return SketchFigures{build_s * 1e9 / edges, restricted_s * 1e9 / edges,
                       static_cast<double>(words) / std::max(merge_s, 1e-9),
                       static_cast<double>(words)};
}

// ---------------------------------------------------------------------------
// Batch workloads (conn, mst, flood)

struct SolveRun {
  RunStats stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string error;  // empty = answer matches the reference
  std::uint64_t phases = 0, elimination_iterations = 0, merge_iterations = 0,
                sampler_retries = 0;
};

template <typename Call>
auto timed(SolveRun& run, Call&& call) {
  const double c0 = cpu_now();
  const Clock::time_point t0 = Clock::now();
  auto result = call();
  run.wall_s = since(t0);
  run.cpu_s = cpu_now() - c0;
  return result;
}

void count_boruvka(SolveRun& run, const BoruvkaResult& res) {
  run.stats = res.stats;
  run.phases = res.phases.size();
  for (const PhaseTrace& p : res.phases) {
    run.elimination_iterations += p.elimination_iterations;
    run.merge_iterations += p.merge_iterations;
  }
  run.sampler_retries = res.sampler_retries;
}

class Batch {
 public:
  Batch(const Options& o, std::size_t n, ThreadPool& pool) : opt_(o), n_(n), pool_(pool) {}
  virtual ~Batch() = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  /// Graph layer: build the input (materialized workloads) or the stream.
  virtual void generate() = 0;
  /// Graph layer, traced: the generation cost alone.
  virtual void generate_traced() { generate(); }
  /// Cluster layer: spread the input over the k machines.
  virtual void distribute() = 0;
  /// The sequential reference, computed once, untimed.
  virtual void reference() = 0;
  /// One timed core entry-point call at `threads`, checked afterwards.
  virtual SolveRun solve(unsigned threads, const ObsSink* obs) = 0;
  [[nodiscard]] virtual const char* core_call() const = 0;
  [[nodiscard]] virtual QueryKind service_kind() const = 0;
  /// The service's QueryResult::value the reference predicts.
  [[nodiscard]] virtual std::uint64_t service_value() const = 0;
  /// Bytes of adjacency machine m holds.
  [[nodiscard]] virtual double machine_bytes(MachineId m) const = 0;
  /// Median edge weight (the restricted-sketch threshold).
  [[nodiscard]] virtual Weight median_weight() const { return 1; }

  [[nodiscard]] const DistributedGraph& dg() const { return *dg_; }
  [[nodiscard]] std::uint64_t algo_seed() const { return split(opt_.seed, 3); }

 protected:
  Cluster make_cluster() const { return Cluster(ClusterConfig::for_graph(n_, kMachines)); }

  const Options& opt_;
  std::size_t n_;
  ThreadPool& pool_;
  std::optional<DistributedGraph> dg_;
};

/// conn and mst: a materialized gnm_par graph behind a DistributedGraph.
class MaterializedBatch : public Batch {
 public:
  MaterializedBatch(const Options& o, std::size_t n, ThreadPool& pool, bool mst)
      : Batch(o, n, pool), mst_(mst) {}

  void generate() override {
    dg_.reset();
    graph_.reset();
    Graph g = gen::gnm_par(n_, 3 * n_, gen_config(opt_.seed, mst_ ? kWeightLimit : 0), &pool_);
    graph_ = std::make_unique<Graph>(mst_ ? with_unique_weights(g) : std::move(g));
  }

  void distribute() override {
    dg_.reset();
    dg_.emplace(*graph_, partition_for(n_, opt_.seed), &pool_);
  }

  void reference() override {
    if (mst_) {
      const auto forest = ref::minimum_spanning_forest(*graph_);
      ref_edges_ = forest.size();
      ref_weight_ = 0;
      for (const WeightedEdge& e : forest) ref_weight_ += e.w;
    } else {
      ref_labels_ = ref::component_labels(*graph_);
    }
  }

  SolveRun solve(unsigned threads, const ObsSink* obs) override {
    Cluster cluster = make_cluster();
    BoruvkaConfig cfg;
    cfg.seed = algo_seed();
    cfg.threads = threads;
    cfg.obs = obs;
    SolveRun run;
    const BoruvkaResult res = timed(run, [&] {
      return mst_ ? minimum_spanning_forest(cluster, *dg_, cfg)
                  : connected_components(cluster, *dg_, cfg);
    });
    count_boruvka(run, res);
    if (mst_) {
      const auto edges = res.mst_edges();
      Weight weight = 0;
      for (const WeightedEdge& e : edges) weight += e.w;
      if (edges.size() != ref_edges_ || weight != ref_weight_) {
        run.error = "mst: " + std::to_string(edges.size()) + " edges of weight " +
                    std::to_string(weight) + ", reference " + std::to_string(ref_edges_) +
                    " of weight " + std::to_string(ref_weight_);
      }
    } else if (smallest_member(res.labels) != ref_labels_) {
      run.error = "conn: component labels differ from the reference";
    }
    return run;
  }

  [[nodiscard]] const char* core_call() const override {
    return mst_ ? "core.minimum_spanning_forest" : "core.connected_components";
  }
  [[nodiscard]] QueryKind service_kind() const override {
    return mst_ ? QueryKind::kMst : QueryKind::kConnectivity;
  }
  [[nodiscard]] std::uint64_t service_value() const override {
    return mst_ ? ref_edges_ : count_roots(ref_labels_);
  }
  [[nodiscard]] double machine_bytes(MachineId m) const override {
    return hosted_adjacency_bytes(*dg_, m);
  }
  [[nodiscard]] Weight median_weight() const override { return median_edge_weight(*graph_); }

 private:
  bool mst_;
  std::unique_ptr<Graph> graph_;
  std::vector<Vertex> ref_labels_;
  std::size_t ref_edges_ = 0;
  Weight ref_weight_ = 0;
};

/// flood: shard-direct ingest of a gnm stream; the global graph never exists.
class StreamFloodBatch : public Batch {
 public:
  using Batch::Batch;

  void generate() override {
    stream_ = gen::gnm_stream_source(n_, 3 * n_, gen_config(opt_.seed, 0), &pool_);
  }

  void generate_traced() override {
    generate();
    stream_([](std::size_t, std::span<const WeightedEdge>) {});
  }

  void distribute() override {
    dg_.reset();
    StreamIngestOptions io;
    io.threads = kThreads;
    io.pool = &pool_;
    auto ingest = stream_ingest(n_, partition_for(n_, opt_.seed), stream_, io);
    if (!ingest.ok()) throw std::runtime_error("stream_ingest: " + ingest.error().message);
    dg_.emplace(std::move(ingest).value());
  }

  void reference() override {
    const std::vector<Vertex> low = stream_component_labels(n_, stream_);
    ref_labels_.assign(low.begin(), low.end());
    ref_components_ = count_roots(low);
  }

  SolveRun solve(unsigned threads, const ObsSink* obs) override {
    Cluster cluster = make_cluster();
    FloodingConfig cfg;
    cfg.threads = threads;
    cfg.obs = obs;
    SolveRun run;
    const FloodingResult res =
        timed(run, [&] { return flooding_connectivity(cluster, *dg_, cfg); });
    run.stats = res.stats;
    if (!res.converged || res.labels != ref_labels_) {
      run.error = "flood: labels differ from the union-find replay of the stream";
    }
    return run;
  }

  [[nodiscard]] const char* core_call() const override { return "core.flooding_connectivity"; }
  [[nodiscard]] QueryKind service_kind() const override { return QueryKind::kFlooding; }
  [[nodiscard]] std::uint64_t service_value() const override { return ref_components_; }
  [[nodiscard]] double machine_bytes(MachineId m) const override {
    return static_cast<double>(dg_->shard_bytes(m));
  }

 private:
  gen::EdgeStream stream_;
  std::vector<Label> ref_labels_;  // FloodingResult's label type
  std::uint64_t ref_components_ = 0;
};

std::unique_ptr<Batch> make_batch(const Options& o, std::size_t n, ThreadPool& pool) {
  if (o.workload == "conn-gnm-1e5") return std::make_unique<MaterializedBatch>(o, n, pool, false);
  if (o.workload == "mst-gnm-5e4") return std::make_unique<MaterializedBatch>(o, n, pool, true);
  return std::make_unique<StreamFloodBatch>(o, n, pool);
}

void put_end_to_end(Report& rep, double setup_s, double solve_s, double solve_cpu_s,
                    const RunStats& ledger, double qps, double lat_p50_ms, double lat_p95_ms) {
  rep.put("setup_s", setup_s, "s");
  rep.put("solve_s", solve_s, "s");
  rep.put("solve_cpu_s", solve_cpu_s, "s");
  rep.put("peak_rss_mb", vm_hwm_mb(), "MB");
  rep.put("rounds", static_cast<double>(ledger.rounds), "count");
  rep.put("bits", static_cast<double>(ledger.bits), "bits");
  rep.put("qps", qps, "1/s");
  rep.put("latency_p50_ms", lat_p50_ms, "ms");
  rep.put("latency_p95_ms", lat_p95_ms, "ms");
}

void run_batch(const Options& o, const Sizes& sz, Report& rep) {
  ThreadPool pool(kThreads);
  const auto w = make_batch(o, sz.n, pool);
  std::vector<double> setups;
  for (int r = 0; r < sz.setups; ++r) {
    const Clock::time_point t0 = Clock::now();
    w->generate();
    w->distribute();
    setups.push_back(since(t0));
  }
  w->reference();

  // One untimed warm-up solve (checked like the rest): the heap grows to
  // its working size once, as in any long-running caller.
  const SolveRun warm = w->solve(kThreads, nullptr);
  rep.attempt(warm.error);
  const RunStats ledger = warm.stats;

  std::vector<double> walls, cpus;
  const Clock::time_point deadline = deadline_after(o.seconds);
  do {
    SolveRun run = w->solve(kThreads, nullptr);
    if (run.error.empty() && !same_ledger(run.stats, ledger)) {
      run.error = "ledger differs between repeated solves of one input";
    }
    rep.attempt(run.error);
    walls.push_back(run.wall_s);
    cpus.push_back(run.cpu_s);
  } while (Clock::now() < deadline || walls.size() < static_cast<std::size_t>(sz.min_solves));

  std::printf("solve wall/cpu s:");
  for (std::size_t i = 0; i < walls.size(); ++i) std::printf(" %.3f/%.3f", walls[i], cpus[i]);
  std::printf("\nsolves=%zu setups=%zu (latency percentiles are over solves)\n", walls.size(),
              setups.size());
  put_end_to_end(rep, median(setups), median(walls), median(cpus), ledger, 1.0 / median(walls),
                 median(walls) * 1e3, p95(walls) * 1e3);
}

void put_runtime(Report& rep, const RuntimeRows& rows, double idle_frac, double speedup) {
  const double steps = static_cast<double>(std::max<std::uint64_t>(rows.rows, 1));
  rep.put("runtime.supersteps", static_cast<double>(rows.rows), "count");
  rep.put("runtime.handler_s", static_cast<double>(rows.handler_ns) * 1e-9, "s");
  rep.put("runtime.deliver_s", static_cast<double>(rows.deliver_ns) * 1e-9, "s");
  rep.put("runtime.reduce_s", static_cast<double>(rows.reduce_ns) * 1e-9, "s");
  rep.put("runtime.superstep_p50_us", median(rows.step_us), "us");
  rep.put("runtime.superstep_p95_us", p95(rows.step_us), "us");
  rep.put("runtime.allocs_per_superstep", static_cast<double>(rows.allocs) / steps, "count");
  rep.put("runtime.idle_frac", idle_frac, "ratio");
  rep.put("runtime.speedup_vs_t1", speedup, "x");
}

void put_sketch(Report& rep, const SketchFigures& sk) {
  rep.put("sketch.build_ns_per_edge", sk.build_ns_per_edge, "ns");
  rep.put("sketch.restricted_build_ns_per_edge", sk.restricted_build_ns_per_edge, "ns");
  rep.put("sketch.merge_words_per_s", sk.merge_words_per_s, "words/s");
  rep.put("sketch.wire_words", sk.wire_words, "count");
}

struct CoreFigures {
  std::uint64_t phases = 0, elimination_iterations = 0, merge_iterations = 0,
                sampler_retries = 0, messages = 0, allocs = 0;
  double peak_heap_mb = 0.0;
};

void put_core(Report& rep, const CoreFigures& c) {
  rep.put("core.phases", static_cast<double>(c.phases), "count");
  rep.put("core.elimination_iterations", static_cast<double>(c.elimination_iterations), "count");
  rep.put("core.merge_iterations", static_cast<double>(c.merge_iterations), "count");
  rep.put("core.sampler_retries", static_cast<double>(c.sampler_retries), "count");
  rep.put("core.messages", static_cast<double>(c.messages), "count");
  rep.put("core.allocs", static_cast<double>(c.allocs), "count");
  rep.put("core.peak_heap_mb", c.peak_heap_mb, "MB");
}

struct ServeFigures {
  std::vector<double> exec_ms, queue_ms;
  std::uint64_t rejected = 0, attempts = 0;
};

void put_serve(Report& rep, const ServeFigures& s) {
  rep.put("serve.exec_ms_p50", median(s.exec_ms), "ms");
  rep.put("serve.exec_ms_p95", p95(s.exec_ms), "ms");
  rep.put("serve.queue_wait_ms_p50", median(s.queue_ms), "ms");
  rep.put("serve.queue_wait_ms_p95", p95(s.queue_ms), "ms");
  rep.put("serve.rejected", static_cast<double>(s.rejected), "count");
  rep.put("serve.attempts", static_cast<double>(s.attempts), "count");
}

template <typename BytesOf>
double max_machine_mb(BytesOf bytes_of) {
  double best = 0.0;
  for (MachineId m = 0; m < kMachines; ++m) best = std::max(best, bytes_of(m));
  return mb(best);
}

void trace_batch(const Options& o, const Sizes& sz, Report& rep, Tracer& tr) {
  ThreadPool pool(kThreads);
  const auto w = make_batch(o, sz.n, pool);
  Scope root(tr, "bench.run");
  {
    Scope span(tr, "graph.gen");
    w->generate_traced();
  }
  {
    Scope span(tr, "cluster.distribute");
    w->distribute();
  }
  w->reference();

  // Warm-up and untraced baseline, then the traced solve with the timeline
  // attached and the counting allocator on, so trace_overhead covers both.
  rep.attempt(w->solve(kThreads, nullptr).error);
  const SolveRun base = w->solve(kThreads, nullptr);
  rep.attempt(base.error);
  MetricsTimeline timeline;
  const ObsSink sink{&timeline, nullptr};
  perf::set_counting(true);
  const std::uint64_t allocs0 = perf::alloc_count();
  const std::int64_t live0 = perf::live_heap_bytes();
  perf::reset_peak_heap();
  SolveRun traced;
  {
    Scope span(tr, w->core_call());
    traced = w->solve(kThreads, &sink);
  }
  perf::set_counting(false);
  const std::uint64_t allocs = perf::alloc_count() - allocs0;
  const double peak_heap = mb(static_cast<double>(perf::peak_heap_bytes() - live0));
  if (traced.error.empty() && !same_ledger(traced.stats, base.stats)) {
    traced.error = "ledger differs with the timeline attached";
  }
  rep.attempt(traced.error);

  // The same solve at threads=1, through the service (one worker, one
  // query thread): it must reproduce the threads=4 ledger exactly.
  ServiceConfig sc;
  sc.k = kMachines;
  sc.workers = 1;
  sc.query_threads = 1;
  ClusterService svc(w->dg(), sc);
  QueryRequest req;
  req.kind = w->service_kind();
  req.seed = w->algo_seed();
  const Clock::time_point q0 = Clock::now();
  const auto ticket = svc.submit(req);
  const QueryOutcome& out = ticket->wait();
  const Clock::time_point q1 = Clock::now();
  tr.record("serve.query", q0, q1, ticket->id());
  ServeFigures serve;
  double t1_wall_s = 0.0;
  std::string t1_error;
  if (!out.ok()) {
    t1_error = std::string("threads=1 query failed: ") + out.error().message;
  } else {
    const QueryResult& r = out.value();
    t1_wall_s = static_cast<double>(r.wall_us) * 1e-6;
    serve.exec_ms.push_back(static_cast<double>(r.wall_us) * 1e-3);
    const double latency_ms = std::chrono::duration<double, std::milli>(q1 - q0).count();
    serve.queue_ms.push_back(std::max(0.0, latency_ms - serve.exec_ms.back()));
    if (r.value != w->service_value()) {
      t1_error = "threads=1 answer " + std::to_string(r.value) + ", reference " +
                 std::to_string(w->service_value());
    } else if (!same_ledger(ledger_of(r.ledger), base.stats)) {
      t1_error = "threads=1 ledger differs from the threads=4 ledger";
    }
  }
  rep.attempt(t1_error);
  const ServiceStats st = svc.stats();
  serve.rejected = st.rejected_overload;
  serve.attempts = st.attempts;

  SketchFigures sk;
  {
    Scope span(tr, "sketch.pass");
    sk = sketch_pass(w->dg(), split(o.seed, 5), w->median_weight(), tr);
  }

  RuntimeRows rows;
  rows.add(timeline);
  rep.put("graph.gen_s", tr.seconds("graph.gen"), "s");
  rep.put("cluster.distribute_s", tr.seconds("cluster.distribute"), "s");
  rep.put("cluster.max_shard_mb", max_machine_mb([&](MachineId m) { return w->machine_bytes(m); }),
          "MB");
  put_runtime(rep, rows, 1.0 - traced.cpu_s / (traced.wall_s * kThreads),
              t1_wall_s / base.wall_s);
  put_sketch(rep, sk);
  put_core(rep, CoreFigures{traced.phases, traced.elimination_iterations,
                            traced.merge_iterations, traced.sampler_retries,
                            traced.stats.messages, allocs, peak_heap});
  put_serve(rep, serve);
  rep.put("trace_overhead", traced.wall_s / base.wall_s, "ratio");
}

// ---------------------------------------------------------------------------
// serve-mixed-4k

struct ServeQuery {
  QueryRequest request;
  std::uint64_t value = 0;  // the reference's QueryResult::value
  bool verdict = false;     // the reference's QueryResult::verdict
};

struct QueryRecord {
  RunStats ledger;
  double latency_ms = 0.0;
  double exec_ms = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<QueryRecord> queries;  // by index in the fixed set
};

std::string check_outcome(const QueryOutcome& out, const ServeQuery& q) {
  const char* kind = query_kind_name(q.request.kind);
  if (!out.ok()) return std::string(kind) + ": " + query_error_name(out.error().code);
  const QueryResult& r = out.value();
  if (r.value != q.value || r.verdict != q.verdict) {
    return std::string(kind) + ": answer (" + std::to_string(r.value) + ", " +
           std::to_string(r.verdict) + "), reference (" + std::to_string(q.value) + ", " +
           std::to_string(q.verdict) + ")";
  }
  return {};
}

class ServeWorkload {
 public:
  ServeWorkload(const Options& o, const Sizes& sz) : opt_(o), sz_(sz), pool_(kThreads) {}

  void generate() {
    service_.reset();
    dg_.reset();
    graph_.reset();
    graph_ = std::make_unique<Graph>(with_unique_weights(
        gen::gnm_par(sz_.n, 3 * sz_.n, gen_config(opt_.seed, kWeightLimit), &pool_)));
  }

  void distribute() {
    service_.reset();
    dg_.reset();
    dg_.emplace(*graph_, partition_for(sz_.n, opt_.seed), &pool_);
  }

  void construct() {
    service_.reset();
    service_.emplace(*dg_, config(false));
  }

  /// The fixed query set and every answer, from the sequential references.
  void reference() {
    const std::vector<Vertex> low = ref::component_labels(*graph_);
    const std::uint64_t comps = count_roots(low);
    const std::uint64_t mst_edges = ref::minimum_spanning_forest(*graph_).size();
    queries_.clear();
    for (std::size_t q = 0; q < sz_.pass_queries; ++q) {
      ServeQuery sq;
      sq.request.kind = kServeMix[q % kServeKinds];
      sq.request.seed = split(opt_.seed, 0x5e0000 + q);
      sq.value = comps;
      sq.verdict = comps <= 1;
      switch (sq.request.kind) {
        case QueryKind::kMst:
          sq.value = mst_edges;
          sq.verdict = true;
          break;
        case QueryKind::kVerifyStConnectivity:
          sq.request.s = static_cast<Vertex>(split(sq.request.seed, 1) % sz_.n);
          sq.request.t = static_cast<Vertex>(split(sq.request.seed, 2) % sz_.n);
          sq.verdict = low[sq.request.s] == low[sq.request.t];
          break;
        case QueryKind::kLeaderElection: {
          std::pair<std::uint64_t, MachineId> best{~0ULL, 0};
          for (MachineId m = 0; m < kMachines; ++m) {
            best = std::min(best, {split(sq.request.seed, m), m});
          }
          sq.value = best.second;
          sq.verdict = true;
          break;
        }
        default:
          break;
      }
      queries_.push_back(sq);
    }
  }

  /// One pass over the fixed set: a closed loop keeping kServeOutstanding
  /// queries submitted-but-unresolved. The client thread submits and checks;
  /// each ticket gets a waiter thread that blocks in wait() and stamps the
  /// resolve time, so nothing polls the cores the workers need.
  Pass run_pass(ClusterService& svc, Report& rep, Tracer* tr) {
    const std::size_t n = queries_.size();
    std::vector<std::shared_ptr<QueryTicket>> tickets(n);
    std::vector<std::thread> waiters(n);
    std::vector<Clock::time_point> submitted(n), resolved(n);
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::size_t> finished;  // guarded by mutex, with resolved[]
    Pass pass;
    pass.queries.resize(n);
    std::size_t next = 0, handled = 0;
    const double c0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    while (handled < n) {
      while (next - handled < kServeOutstanding && next < n) {
        submitted[next] = Clock::now();
        tickets[next] = svc.submit(queries_[next].request);
        waiters[next] = std::thread([&, q = next] {
          (void)tickets[q]->wait();
          const Clock::time_point at = Clock::now();
          {
            std::lock_guard<std::mutex> lock(mutex);
            resolved[q] = at;
            finished.push_back(q);
          }
          cv.notify_one();
        });
        ++next;
      }
      std::vector<std::size_t> batch;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !finished.empty(); });
        batch.swap(finished);
      }
      for (const std::size_t q : batch) {
        waiters[q].join();
        const QueryOutcome& out = tickets[q]->wait();
        QueryRecord& rec = pass.queries[q];
        rec.latency_ms =
            std::chrono::duration<double, std::milli>(resolved[q] - submitted[q]).count();
        if (out.ok()) {
          rec.ledger = ledger_of(out.value().ledger);
          rec.exec_ms = static_cast<double>(out.value().wall_us) * 1e-3;
        }
        rep.attempt(check_outcome(out, queries_[q]));
        if (tr != nullptr) tr->record("serve.query", submitted[q], resolved[q], tickets[q]->id());
        ++handled;
      }
    }
    pass.wall_s = since(t0);
    pass.cpu_s = cpu_now() - c0;
    return pass;
  }

  [[nodiscard]] ServiceConfig config(bool record_timelines) const {
    ServiceConfig sc;
    sc.k = kMachines;
    sc.workers = kThreads;
    sc.query_threads = 1;
    sc.record_timelines = record_timelines;
    return sc;
  }

  [[nodiscard]] const std::vector<ServeQuery>& queries() const { return queries_; }
  [[nodiscard]] ClusterService& service() { return *service_; }
  [[nodiscard]] const DistributedGraph& dg() const { return *dg_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  const Options& opt_;
  Sizes sz_;
  ThreadPool pool_;
  std::unique_ptr<Graph> graph_;
  std::optional<DistributedGraph> dg_;
  std::optional<ClusterService> service_;
  std::vector<ServeQuery> queries_;
};

RunStats pass_ledger(const Pass& p) {
  RunStats sum;
  for (const QueryRecord& r : p.queries) {
    sum.rounds += r.ledger.rounds;
    sum.messages += r.ledger.messages;
    sum.bits += r.ledger.bits;
    sum.supersteps += r.ledger.supersteps;
  }
  return sum;
}

/// Query i of every pass must cost exactly what it cost in the first.
void check_pass_ledgers(const Pass& first, const Pass& p, Report& rep) {
  for (std::size_t i = 0; i < p.queries.size(); ++i) {
    if (!same_ledger(first.queries[i].ledger, p.queries[i].ledger)) {
      rep.attempt("serve: query " + std::to_string(i) + " ledger differs between passes");
      return;
    }
  }
}

void run_serve(const Options& o, const Sizes& sz, Report& rep) {
  ServeWorkload w(o, sz);
  std::vector<double> setups;
  for (int r = 0; r < sz.setups; ++r) {
    const Clock::time_point t0 = Clock::now();
    w.generate();
    w.distribute();
    w.construct();
    setups.push_back(since(t0));
  }
  w.reference();

  // One untimed warm-up pass (checked like the rest).
  const Pass warm = w.run_pass(w.service(), rep, nullptr);
  std::vector<Pass> passes;
  const Clock::time_point deadline = deadline_after(o.seconds);
  do {
    passes.push_back(w.run_pass(w.service(), rep, nullptr));
    check_pass_ledgers(warm, passes.back(), rep);
  } while (Clock::now() < deadline || passes.size() < static_cast<std::size_t>(sz.min_passes));

  std::vector<double> walls, cpus, latency;
  std::printf("pass wall/cpu s:");
  for (const Pass& p : passes) {
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    std::printf(" %.3f/%.3f", p.wall_s, p.cpu_s);
    for (const QueryRecord& r : p.queries) latency.push_back(r.latency_ms);
  }
  std::printf("\n");
  std::printf("passes=%zu queries=%zu setups=%zu (latency samples=%zu, %zu beyond p95)\n",
              passes.size(), w.queries().size(), setups.size(), latency.size(),
              latency.size() / 20);
  put_end_to_end(rep, median(setups), median(walls), median(cpus), pass_ledger(warm),
                 static_cast<double>(w.queries().size()) / median(walls), median(latency),
                 p95(latency));
}

void trace_serve(const Options& o, const Sizes& sz, Report& rep, Tracer& tr) {
  ServeWorkload w(o, sz);
  Scope root(tr, "bench.run");
  {
    Scope span(tr, "graph.gen");
    w.generate();
  }
  {
    Scope span(tr, "cluster.distribute");
    w.distribute();
  }
  {
    Scope span(tr, "serve.construct");
    w.construct();
  }
  w.reference();

  // Warm-up and untraced passes, then a pass on a service that records
  // timelines, with the counting allocator on.
  const Pass warm = w.run_pass(w.service(), rep, nullptr);
  const Pass base = w.run_pass(w.service(), rep, nullptr);
  check_pass_ledgers(warm, base, rep);
  ClusterService traced_svc(w.dg(), w.config(true));
  perf::set_counting(true);
  const std::uint64_t allocs0 = perf::alloc_count();
  const std::int64_t live0 = perf::live_heap_bytes();
  perf::reset_peak_heap();
  Pass traced;
  {
    Scope span(tr, "serve.pass");
    traced = w.run_pass(traced_svc, rep, &tr);
  }
  perf::set_counting(false);
  const std::uint64_t allocs = perf::alloc_count() - allocs0;
  const double peak_heap = mb(static_cast<double>(perf::peak_heap_bytes() - live0));
  check_pass_ledgers(base, traced, rep);

  RuntimeRows rows;
  ServeFigures serve;
  for (const QueryLogEntry& e : traced_svc.log()) {
    if (const MetricsTimeline* tl = traced_svc.timeline(e.id)) rows.add(*tl);
  }
  for (const QueryRecord& r : traced.queries) {
    serve.exec_ms.push_back(r.exec_ms);
    serve.queue_ms.push_back(std::max(0.0, r.latency_ms - r.exec_ms));
  }
  const ServiceStats st = traced_svc.stats();
  serve.rejected = st.rejected_overload;
  serve.attempts = st.attempts;

  // The first seq_queries of the set again, one at a time on the caller's
  // thread: the throughput baseline, and each ledger must match the pass.
  double seq_s = 0.0;
  {
    Scope span(tr, "serve.run_query");
    for (std::size_t i = 0; i < sz.seq_queries; ++i) {
      const ServeQuery& q = w.queries()[i];
      const Clock::time_point t0 = Clock::now();
      const QueryOutcome out = w.service().run_query(q.request);
      seq_s += since(t0);
      std::string error = check_outcome(out, q);
      if (error.empty() && !same_ledger(ledger_of(out.value().ledger), base.queries[i].ledger)) {
        error = "serve: sequential query " + std::to_string(i) + " ledger differs from the pool's";
      }
      rep.attempt(error);
    }
  }

  SketchFigures sk;
  {
    Scope span(tr, "sketch.pass");
    sk = sketch_pass(w.dg(), split(o.seed, 5), median_edge_weight(w.graph()), tr);
  }

  const RunStats ledger = pass_ledger(traced);
  const double pass_qps = static_cast<double>(base.queries.size()) / base.wall_s;
  const double seq_qps = static_cast<double>(sz.seq_queries) / seq_s;
  rep.put("graph.gen_s", tr.seconds("graph.gen"), "s");
  rep.put("cluster.distribute_s", tr.seconds("cluster.distribute"), "s");
  rep.put("cluster.max_shard_mb",
          max_machine_mb([&](MachineId m) { return hosted_adjacency_bytes(w.dg(), m); }), "MB");
  put_runtime(rep, rows, 1.0 - traced.cpu_s / (traced.wall_s * kThreads), pass_qps / seq_qps);
  put_sketch(rep, sk);
  put_core(rep, CoreFigures{0, 0, 0, 0, ledger.messages, allocs, peak_heap});
  put_serve(rep, serve);
  rep.put("trace_overhead", traced.wall_s / base.wall_s, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::string build_type = KMM_PERF_BUILD_TYPE;
#ifdef NDEBUG
  const bool optimized = build_type == "Release";
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr, "kmm_perf: refusing to report numbers from a '%s' build; build Release\n",
                 build_type.c_str());
    return 3;
  }
  if (o.trace) obs::set_alloc_count_source(&perf::alloc_count);
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"toy\": %s, \"nproc\": %ld, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\"}}\n",
              o.workload.c_str(), o.seed, o.trace ? 1 : 0, o.toy ? "true" : "false",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, build_type.c_str(), o.commit.c_str());

  const Sizes sz = sizes_for(o);
  const bool serve = o.workload == "serve-mixed-4k";
  Report rep;
  try {
    if (o.trace) {
      Tracer tr(o.seed);
      if (serve) {
        trace_serve(o, sz, rep, tr);
      } else {
        trace_batch(o, sz, rep, tr);
      }
      if (!o.spans_out.empty() && !tr.write_json(o.spans_out)) {
        std::fprintf(stderr, "kmm_perf: cannot write %s\n", o.spans_out.c_str());
        return 1;
      }
    } else if (serve) {
      run_serve(o, sz, rep);
    } else {
      run_batch(o, sz, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kmm_perf: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  rep.print_result();
  return rep.correct() ? 0 : 1;
}
