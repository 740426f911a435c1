// Tier-1 counting-allocator proof of the allocation-free sketch plane.
//
// A standalone binary (not part of kmm_tests): it replaces the global
// operator new/delete with the counting hook from bench/alloc_counter.hpp,
// which must not leak into the GoogleTest suite, so it registers with ctest
// as its own test with a plain main().
//
// What it asserts: one steady-state Borůvka elimination iteration — builder
// rebind, part sketching into the machine's one reused sampler,
// serialization of the trimmed wire image into a reused WordWriter, and on
// the proxy side sorting the sketch messages by label and summing each
// label's images into one reused sampler before its sample/is_zero state
// transition — performs ZERO heap allocations once the capacity-retaining
// structures are warm. It is checked at n = 512 and again at n = 2*10^4,
// where far more parts and labels pass through the same structures. This
// is the compute-plane analogue of the message plane's 0 allocs/superstep
// (PR 3); bench_boruvka_hotpath reports the same quantity with throughput
// numbers against the checked-in baseline.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "kmm.hpp"

namespace {

using namespace kmm;
using kmmbench::alloc_count;

constexpr int kWarmupIters = 3;
constexpr int kMeasureIters = 8;

int failures = 0;

#define EXPECT_ZERO(expr, what)                                                      \
  do {                                                                               \
    const auto v = (expr);                                                           \
    if (v != 0) {                                                                    \
      std::printf("FAIL: %s = %llu, expected 0\n", what,                             \
                  static_cast<unsigned long long>(v));                               \
      ++failures;                                                                    \
    }                                                                                \
  } while (0)

/// The sketch plane of one machine pair, with every capacity-retaining
/// structure the engine's hot path keeps across iterations.
struct SketchPlane {
  SketchPlane(std::size_t n, std::size_t labels, std::size_t parts_per_label)
      : labels(labels),
        parts(labels * parts_per_label),
        graph(make_graph(n)),
        dg(graph, VertexPartition::random(n, 4, 7)),
        builder(n, /*seed=*/1),
        home(builder.empty_sketch()),
        proxy(builder.empty_sketch()),
        wire(parts.size()) {
    // Disjoint vertex slices standing in for component parts.
    const std::size_t chunk = n / parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      for (std::size_t j = 0; j < chunk; ++j) {
        parts[i].push_back(static_cast<Vertex>(i * chunk + j));
      }
    }
    // Stand-in message slots, pre-sized to the longest possible image
    // (label word + untrimmed sketch): trimmed images vary in length from
    // one iteration to the next, so warm-up alone does not size them.
    for (auto& slot : wire) slot.reserve(1 + home.max_image_words());
  }

  static Graph make_graph(std::size_t n) {
    Rng rng(5);
    return gen::gnm(n, 3 * n, rng);
  }

  /// One elimination iteration over the pre-partitioned component parts:
  /// the home-side sketch+serialize half and the proxy-side merge+transition
  /// half, exactly the containers and calls the engine's hot path uses.
  void run_iteration(std::uint64_t seed) {
    builder.rebind(seed);

    // Home side: sketch each part into the reused sampler, serialize into
    // the reused writer, "send" by copying into the wire slots (stand-in for
    // the already allocation-free message plane).
    for (std::size_t p = 0; p < parts.size(); ++p) {
      home.reset(builder.seed());
      builder.accumulate_part(dg, parts[p], kNoWeightLimit, home);
      writer.clear();
      writer.u64(p % labels);
      home.serialize(writer);
      wire[p].assign(writer.words().begin(), writer.words().end());
    }

    // Proxy side: sort by label, sum each label's images, then transition.
    order.clear();
    for (std::uint32_t m = 0; m < wire.size(); ++m) order.emplace_back(wire[m][0], m);
    std::sort(order.begin(), order.end());
    for (std::size_t lo = 0; lo < order.size();) {
      const Label label = order[lo].first;
      proxy.reset(builder.seed());
      for (; lo < order.size() && order[lo].first == label; ++lo) {
        WordReader r(wire[order[lo].second]);
        (void)r.u64();
        proxy.add_serialized(r);
      }
      if (proxy.is_zero()) continue;
      if (const auto rec = proxy.sample()) sink += rec->index + label;
    }
  }

  /// Warm up, then count the allocations of the measured iterations.
  std::uint64_t steady_allocs() {
    for (int it = 0; it < kWarmupIters; ++it) {
      run_iteration(100 + static_cast<std::uint64_t>(it));
    }
    const auto a0 = alloc_count();
    for (int it = 0; it < kMeasureIters; ++it) {
      run_iteration(200 + static_cast<std::uint64_t>(it));
    }
    return alloc_count() - a0;
  }

  std::size_t labels;
  std::vector<std::vector<Vertex>> parts;
  Graph graph;
  DistributedGraph dg;
  GraphSketchBuilder builder;
  L0Sampler home, proxy;
  WordWriter writer;
  std::vector<std::vector<std::uint64_t>> wire;
  std::vector<std::pair<Label, std::uint32_t>> order;
  std::uint64_t sink = 0;
};

}  // namespace

int main() {
  struct PlaneCase {
    std::size_t n, labels, parts_per_label;
  };
  for (const PlaneCase pc : {PlaneCase{512, 16, 4}, PlaneCase{20000, 256, 8}}) {
    SketchPlane plane(pc.n, pc.labels, pc.parts_per_label);
    const auto steady_allocs = plane.steady_allocs();
    char what[96];
    std::snprintf(what, sizeof what, "steady-state sketch-plane allocations (n=%zu)", pc.n);
    EXPECT_ZERO(steady_allocs, what);
    std::printf("sketch plane n=%zu: %d warm iterations, %llu allocations (sink=%llu)\n",
                pc.n, kMeasureIters, static_cast<unsigned long long>(steady_allocs),
                static_cast<unsigned long long>(plane.sink));
  }

  // Full-engine regression guard: the registry/pool representation must
  // keep allocations-per-superstep far below the pre-registry ~290 (see
  // bench/baselines/BENCH_boruvka_hotpath.pre-registry.json). The bound is
  // loose — it catches representation regressions, not stdlib noise.
  {
    Rng grng(17);
    const Graph eg = gen::gnm(600, 1800, grng);
    Cluster cluster(ClusterConfig::for_graph(600, 8));
    const DistributedGraph edg(eg, VertexPartition::random(600, 8, 19));
    BoruvkaConfig cfg;
    cfg.seed = 29;
    const auto e0 = alloc_count();
    const auto res = connected_components(cluster, edg, cfg);
    const auto engine_allocs = alloc_count() - e0;
    const double per_superstep =
        static_cast<double>(engine_allocs) / static_cast<double>(res.stats.supersteps);
    std::printf("full engine: %llu allocations / %llu supersteps = %.1f per superstep\n",
                static_cast<unsigned long long>(engine_allocs),
                static_cast<unsigned long long>(res.stats.supersteps), per_superstep);
    if (per_superstep > 100.0) {
      std::printf("FAIL: allocations per superstep %.1f > 100 — registry/pool "
                  "representation regressed\n",
                  per_superstep);
      ++failures;
    }
  }

  // Observability-plane steady state. Three claims, measured on the same
  // warmed runtime loop (a charged all-to-successor ring superstep):
  //   1. sinks disabled: the obs seam adds ZERO allocations per superstep
  //      on top of the allocation-free message plane;
  //   2. sinks attached (summarized timeline, pre-reserved; warm trace
  //      rings): recording is also allocation-free per superstep;
  //   3. with the alloc-count source registered, the timeline's own allocs
  //      column agrees — every steady-state row records 0.
  {
    obs::set_alloc_count_source(&kmmbench::alloc_count);
    constexpr MachineId kMachines = 8;
    constexpr int kSteps = 64;
    const auto ring_step = [](Runtime& rt) {
      rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
        out.send((self + 1) % kMachines, 1, {std::uint64_t{self}}, 64);
      });
    };

    for (const unsigned threads : {1u, 4u}) {
      // Sinks disabled.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        Runtime rt(cluster, RuntimeConfig{threads});
        for (int i = 0; i < 4; ++i) ring_step(rt);  // warm pool + arenas
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-off runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
      }

      // Sinks attached.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        MetricsTimelineConfig tcfg;
        tcfg.full_traffic_steps = 0;  // summarized rows: O(top_traffic) each
        MetricsTimeline timeline(tcfg);
        timeline.reserve(1024, kMachines);
        TraceRecorder trace;  // rings pre-reserved at construction
        const ObsSink sink{&timeline, &trace};
        Runtime rt(cluster, RuntimeConfig{threads, &sink});
        for (int i = 0; i < 4; ++i) ring_step(rt);
        const std::size_t warm_rows = timeline.size();
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-on runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
        for (std::size_t i = warm_rows; i < timeline.size(); ++i) {
          EXPECT_ZERO(timeline.row(i).allocs, "timeline row alloc column");
        }
      }
    }
    obs::set_alloc_count_source(nullptr);
    std::printf("obs plane: steady-state supersteps allocation-free with sinks "
                "off and on\n");
  }

  if (failures == 0) std::printf("PASS\n");
  return failures == 0 ? 0 : 1;
}
