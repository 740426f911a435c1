#pragma once
// The machine-local half of min-label flooding, shared by both flooding
// engines (flooding_connectivity and FloodProgram). The engines differ only
// in how they detect convergence; propagation and boundary exchange live
// here, once.
//
// State is per machine and indexed by *hosted position* p, the index of a
// vertex in dg.vertices_of(i): its label, its changed bit, and a LIFO work
// stack of positions. Each machine also builds, in its own first handler
// call, an index over data it already holds in the model (its incident
// edges and, under RVP, the homes of its neighbours):
//   * a local CSR of same-machine neighbours stored as positions, so the
//     fixpoint does no home() lookups;
//   * a boundary index: the machine's distinct remote neighbours, one
//     *slot* each, grouped by home machine and ascending by id within a
//     group; per hosted vertex, the slots of its remote half-edges; and a
//     best[slot] scratch array whose sentinel means "untouched".
// One exchange min-reduces every changed vertex's label into its slots,
// then walks the slots and sends (target, best) for each touched one. Each
// destination therefore receives the ascending (target, minimum label)
// sequence a collect + sort + unique of the candidates would produce, and
// the ledger is that of the sort-based exchange. The index is O(hosted
// half-edges) words per machine.
//
// Concurrency: handler i touches only machine i's state and the cells
// pos_[v] of the vertices it hosts (written while indexing, read when
// labels arrive), so the k handlers run concurrently without locks.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "core/common.hpp"
#include "runtime/outbox.hpp"
#include "util/codec.hpp"

namespace kmm {

class FloodKernel {
 public:
  explicit FloodKernel(const DistributedGraph& dg);

  /// Build machine `self`'s state and index if not yet built. Every handler
  /// calls this (or seed) before receive/propagate/exchange.
  void prepare(MachineId self);
  /// First step: prepare, then run the local fixpoint from every hosted
  /// vertex (all changed bits start set).
  void seed(MachineId self);
  /// Adopt an inbound (vertex, label) flood message if it lowers the label.
  void receive(MachineId self, const Message& msg);
  /// Run the local fixpoint from every vertex queued since the last call.
  void propagate(MachineId self);
  /// Send the minimum label per remote neighbour of the changed hosted
  /// vertices, then clear every changed bit. Returns the messages sent.
  std::size_t exchange(MachineId self, Outbox& out, std::uint32_t tag);

  /// The words machine m's snapshot writes: label, then changed bit, per
  /// hosted vertex in vertices_of(m) order. restore reads exactly those.
  void snapshot(MachineId m, WordWriter& w);
  void restore(MachineId m, WordReader& r);

  /// Every vertex's current label, by vertex id (a gather over machines).
  [[nodiscard]] std::vector<Label> labels() const;

 private:
  static constexpr std::uint8_t kChanged = 1;
  static constexpr std::uint8_t kQueued = 2;

  struct alignas(64) Machine {
    bool has_state = false;
    bool indexed = false;
    std::vector<Label> label;          // [p]
    std::vector<std::uint8_t> flags;   // [p] kChanged | kQueued
    std::vector<std::uint32_t> stack;  // queued positions, capacity |hosted|
    std::vector<std::size_t> local_off;     // [p..p+1) into local_adj
    std::vector<std::uint32_t> local_adj;   // positions of local neighbours
    std::vector<std::size_t> remote_off;    // [p..p+1) into remote_slot
    std::vector<std::uint32_t> remote_slot; // slot of each remote half-edge
    std::vector<std::size_t> home_off;      // [h..h+1): slots homed on h
    std::vector<Vertex> slot_vertex;        // [slot] remote neighbour id
    std::vector<Label> best;                // [slot] min label, or kUntouched
  };

  void ensure_state(MachineId self);
  void build_index(MachineId self);
  void enqueue(Machine& m, std::uint32_t p) {
    if ((m.flags[p] & kQueued) != 0) return;
    m.flags[p] |= kQueued;
    m.stack.push_back(p);
  }

  const DistributedGraph* dg_;
  std::uint64_t message_bits_;
  std::vector<std::uint32_t> pos_;  // [v] hosted position of v on its home
  std::vector<Machine> machines_;
};

}  // namespace kmm
