// FloodKernel (core/flood_kernel.hpp) against the code it replaced, run
// side by side on random and adversarial inputs, at k in {2, 16}, on both
// the materialized and the shard-direct backends:
//   * exchange: each destination's messages must equal, in order, the
//     reference collect + sort + unique of (remote target, label) over the
//     changed hosted vertices — the sequence the ledger was pinned on;
//   * propagation: receive + propagate (and seed) must reach the labels and
//     changed bits of the reference FIFO fixpoint over the machine-local
//     subgraph.
// Kernel state is set through restore(), whose words are the snapshot
// layout: label, then changed bit, per hosted vertex in vertices_of order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

constexpr std::uint32_t kTag = 7;

struct Case {
  std::string name;
  Graph graph;
  VertexPartition partition;
};

/// Random gnm graphs plus one adversarial graph per k: isolated vertices,
/// a vertex whose neighbours are all local, one whose neighbours are all
/// remote, and a hub adjacent to every machine; at k = 16 the last machine
/// hosts no vertex at all.
std::vector<Case> cases(MachineId k) {
  std::vector<Case> out;
  for (const std::uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    const std::size_t n = 300;
    out.push_back({"gnm" + std::to_string(seed), gen::gnm(n, 3 * n, rng),
                   VertexPartition::random(n, k, seed)});
  }

  const std::size_t n = 240;
  std::vector<MachineId> table(n);
  const MachineId used = k > 2 ? k - 1 : k;  // at k = 16 machine 15 hosts nothing
  for (Vertex v = 0; v < n; ++v) table[v] = static_cast<MachineId>((v * 7 + v / 5) % used);
  std::vector<WeightedEdge> edges;
  const auto add = [&](Vertex a, Vertex b) {
    if (a != b) edges.push_back({std::min(a, b), std::max(a, b), 1});
  };
  // Vertices 200..239 stay isolated. The hub 0 touches every machine.
  for (Vertex v = 1; v < 200; v += 3) add(0, v);
  // Vertex 1: only same-machine neighbours; vertex 2: only remote ones.
  for (Vertex v = 3; v < 200; ++v) {
    if (table[v] == table[1]) add(1, v);
    if (table[v] != table[2] && v % 4 == 0) add(2, v);
  }
  Rng rng(99);
  for (int e = 0; e < 400; ++e) {
    add(static_cast<Vertex>(3 + rng.next_below(197)),
        static_cast<Vertex>(3 + rng.next_below(197)));
  }
  const auto by_ends = [](const WeightedEdge& a, const WeightedEdge& b) {
    return std::pair(a.u, a.v) < std::pair(b.u, b.v);
  };
  std::sort(edges.begin(), edges.end(), by_ends);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  out.push_back({"adversarial", Graph(n, edges), VertexPartition::from_table(table, k)});
  return out;
}

/// Both backends over one graph; the materialized one views `g`.
std::vector<DistributedGraph> backends(const Graph& g, const VertexPartition& part) {
  std::vector<DistributedGraph> out;
  out.emplace_back(g, part);
  out.push_back(
      stream_ingest(g.num_vertices(), part, gen::edge_list_stream(g.edges(), 64), {}).value());
  return out;
}

/// Reference per-vertex state, indexed by vertex id.
struct RefState {
  std::vector<Label> label;
  std::vector<char> changed;
};

/// Random labels below n and random changed bits, written into the kernel
/// through restore() and mirrored into `ref`.
void randomize(const DistributedGraph& dg, FloodKernel& kernel, RefState& ref, Rng& rng) {
  const std::size_t n = dg.num_vertices();
  ref.label.assign(n, 0);
  ref.changed.assign(n, 0);
  for (MachineId i = 0; i < dg.machines(); ++i) {
    WordWriter w;
    for (const Vertex v : dg.vertices_of(i)) {
      ref.label[v] = rng.next_below(n);
      ref.changed[v] = rng.next_below(3) == 0 ? 1 : 0;
      w.u64(ref.label[v]);
      w.u64(static_cast<std::uint64_t>(ref.changed[v]));
    }
    const auto words = std::move(w).take();
    WordReader r(words);
    kernel.restore(i, r);
    EXPECT_TRUE(r.done());
  }
}

/// The kernel's state of machine i, as (label, changed) per hosted vertex.
std::vector<std::uint64_t> kernel_words(FloodKernel& kernel, MachineId i) {
  WordWriter w;
  kernel.snapshot(i, w);
  return std::move(w).take();
}

std::vector<std::uint64_t> ref_words(const DistributedGraph& dg, const RefState& ref,
                                     MachineId i) {
  std::vector<std::uint64_t> words;
  for (const Vertex v : dg.vertices_of(i)) {
    words.push_back(ref.label[v]);
    words.push_back(static_cast<std::uint64_t>(ref.changed[v]));
  }
  return words;
}

/// The pre-kernel machine-local fixpoint: FIFO over the hosted subgraph.
void ref_propagate(const DistributedGraph& dg, MachineId i, RefState& ref,
                   std::deque<Vertex>& queue) {
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const auto& he : dg.neighbors(v)) {
      if (dg.home(he.to) != i) continue;
      if (ref.label[v] < ref.label[he.to]) {
        ref.label[he.to] = ref.label[v];
        ref.changed[he.to] = 1;
        queue.push_back(he.to);
      }
    }
  }
}

template <typename Body>
void for_each_input(Body body) {
  for (const MachineId k : {MachineId{2}, MachineId{16}}) {
    for (const Case& c : cases(k)) {
      const auto dgs = backends(c.graph, c.partition);
      for (std::size_t b = 0; b < dgs.size(); ++b) {
        SCOPED_TRACE(c.name + " k=" + std::to_string(k) +
                     (b == 0 ? " materialized" : " shard-direct"));
        body(dgs[b], k);
      }
    }
  }
}

TEST(FloodKernel, ExchangeMatchesSortedUniqueCandidates) {
  for_each_input([](const DistributedGraph& dg, MachineId k) {
    const std::uint64_t bits = 2 * bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2));
    FloodKernel kernel(dg);
    Rng rng(split(k, dg.num_edges()));
    for (int round = 0; round < 3; ++round) {
      RefState ref;
      randomize(dg, kernel, ref, rng);
      for (MachineId i = 0; i < k; ++i) {
        kernel.prepare(i);
        std::vector<std::pair<Vertex, Label>> cand;
        for (const Vertex v : dg.vertices_of(i)) {
          if (ref.changed[v] == 0) continue;
          for (const auto& he : dg.neighbors(v)) {
            if (dg.home(he.to) != i) cand.emplace_back(he.to, ref.label[v]);
          }
          ref.changed[v] = 0;
        }
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end(),
                               [](const auto& a, const auto& b) { return a.first == b.first; }),
                   cand.end());

        OutboxShard shard;
        shard.resize(k);
        Outbox out(shard, i, k);
        EXPECT_EQ(kernel.exchange(i, out, kTag), cand.size());
        for (MachineId d = 0; d < k; ++d) {
          std::vector<std::pair<Vertex, Label>> want;
          for (const auto& c : cand) {
            if (dg.home(c.first) == d) want.push_back(c);
          }
          std::vector<std::pair<Vertex, Label>> got;
          for (const Message& msg : shard.buckets[d]) {
            ASSERT_EQ(msg.payload_words(), 2u);
            EXPECT_EQ(msg.tag, kTag);
            EXPECT_EQ(msg.bits, bits);
            got.emplace_back(static_cast<Vertex>(msg.payload()[0]), msg.payload()[1]);
          }
          EXPECT_EQ(got, want) << "machine " << i << " -> " << d;
        }
        // Labels are untouched, every changed bit is cleared, and every
        // slot was reset: a second exchange sends nothing.
        EXPECT_EQ(kernel_words(kernel, i), ref_words(dg, ref, i));
        shard.clear();
        EXPECT_EQ(kernel.exchange(i, out, kTag), 0u);
      }
    }
  });
}

TEST(FloodKernel, PropagationMatchesReferenceFixpoint) {
  for_each_input([](const DistributedGraph& dg, MachineId k) {
    const std::size_t n = dg.num_vertices();
    const std::uint64_t bits = 2 * bits_for(std::max<std::uint64_t>(n, 2));
    FloodKernel kernel(dg);
    Rng rng(split(k + 1, dg.num_edges()));
    PayloadArena arena;
    for (int round = 0; round < 3; ++round) {
      RefState ref;
      randomize(dg, kernel, ref, rng);
      for (MachineId i = 0; i < k; ++i) {
        kernel.prepare(i);
        const auto hosted = dg.vertices_of(i);
        std::deque<Vertex> queue;
        for (std::size_t j = 0; j < hosted.size() / 4; ++j) {
          const Vertex v = hosted[rng.next_below(hosted.size())];
          const Label label = rng.next_below(n);
          const std::uint64_t payload[2] = {v, label};
          kernel.receive(i, Message::make((i + 1) % k, i, kTag, payload, bits, arena));
          if (label < ref.label[v]) {
            ref.label[v] = label;
            ref.changed[v] = 1;
            queue.push_back(v);
          }
        }
        kernel.propagate(i);
        ref_propagate(dg, i, ref, queue);
        EXPECT_EQ(kernel_words(kernel, i), ref_words(dg, ref, i)) << "machine " << i;
      }
    }

    // seed(): the fixpoint from every hosted vertex, from a random state.
    FloodKernel fresh(dg);
    RefState ref;
    randomize(dg, fresh, ref, rng);
    for (MachineId i = 0; i < k; ++i) {
      fresh.seed(i);
      std::deque<Vertex> queue(dg.vertices_of(i).begin(), dg.vertices_of(i).end());
      ref_propagate(dg, i, ref, queue);
      EXPECT_EQ(kernel_words(fresh, i), ref_words(dg, ref, i)) << "machine " << i;
    }
    std::vector<Label> want(ref.label.begin(), ref.label.end());
    EXPECT_EQ(fresh.labels(), want);
  });
}

TEST(FloodKernel, FreshSnapshotIsIdentityLabelsAllChanged) {
  // The resume-frame layout: an unstarted machine snapshots its hosted ids
  // as labels, each followed by a set changed bit.
  for_each_input([](const DistributedGraph& dg, MachineId k) {
    FloodKernel kernel(dg);
    for (MachineId i = 0; i < k; ++i) {
      std::vector<std::uint64_t> want;
      for (const Vertex v : dg.vertices_of(i)) {
        want.push_back(v);
        want.push_back(1);
      }
      EXPECT_EQ(kernel_words(kernel, i), want);
    }
    std::vector<Label> identity(dg.num_vertices());
    for (Vertex v = 0; v < identity.size(); ++v) identity[v] = v;
    EXPECT_EQ(kernel.labels(), identity);
  });
}

TEST(FloodKernel, EnginesAgreeAcrossThreadCounts) {
  // Both engines on the kernel with concurrent handlers: each machine's
  // first handler builds its index and writes its cells of the shared
  // position table while the others do the same.
  for_each_input([](const DistributedGraph& dg, MachineId k) {
    // Reference: smallest vertex id per component, by a sequential search.
    const std::size_t n = dg.num_vertices();
    std::vector<Label> want(n, n);
    for (Vertex s = 0; s < n; ++s) {
      if (want[s] != n) continue;
      std::vector<Vertex> todo = {s};
      want[s] = s;
      while (!todo.empty()) {
        const Vertex v = todo.back();
        todo.pop_back();
        for (const auto& he : dg.neighbors(v)) {
          if (want[he.to] == n) {
            want[he.to] = s;
            todo.push_back(he.to);
          }
        }
      }
    }
    std::vector<std::uint64_t> flood_ledger;
    std::vector<std::uint64_t> program_ledger;
    for (const unsigned threads : {1u, 2u, 8u}) {
      Cluster c1(ClusterConfig::for_graph(dg.num_vertices(), k));
      const FloodingResult a = flooding_connectivity(c1, dg, FloodingConfig{.threads = threads});
      Cluster c2(ClusterConfig::for_graph(dg.num_vertices(), k));
      ResumableFloodConfig cfg;
      cfg.threads = threads;
      const ResumableFloodResult b = resumable_flood_connectivity(c2, dg, cfg);
      ASSERT_TRUE(a.converged);
      ASSERT_TRUE(b.converged);
      EXPECT_EQ(a.labels, want) << "threads=" << threads;
      EXPECT_EQ(b.labels, want) << "threads=" << threads;
      const std::vector<std::uint64_t> la = {c1.stats().rounds, c1.stats().messages,
                                             c1.stats().total_bits};
      const std::vector<std::uint64_t> lb = {c2.stats().rounds, c2.stats().messages,
                                             c2.stats().total_bits};
      if (threads == 1) {
        flood_ledger = la;
        program_ledger = lb;
      }
      EXPECT_EQ(la, flood_ledger) << "threads=" << threads;
      EXPECT_EQ(lb, program_ledger) << "threads=" << threads;
    }
  });
}

}  // namespace
}  // namespace kmm
