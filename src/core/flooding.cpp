#include "core/flooding.hpp"

#include "core/flood_kernel.hpp"
#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagFlood = 1;
constexpr std::uint32_t kTagCtrl = 2;
}  // namespace

FloodingResult flooding_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                     const FloodingConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const MachineId k = cluster.k();
  Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                    config.pool});

  FloodingResult result;
  // The kernel holds every machine's labels and changed bits; bit[i] is
  // written once per exchange by handler i only.
  FloodKernel kernel(dg);
  std::vector<char> bit(k, 0);  // bit[i] = machine i sent this iteration

  // Fault-plane state hooks (porting recipe rule 8b): machine m's complete
  // cross-step state is its sent-bit plus its kernel snapshot (the
  // label/changed cells of its hosted vertices).
  const StateHookScope fault_scope(
      config.fault,
      [&](MachineId m, WordWriter& w) {
        w.u64(static_cast<std::uint64_t>(bit[m]));
        kernel.snapshot(m, w);
      },
      [&](MachineId m, WordReader& r) {
        bit[m] = static_cast<char>(r.u64());
        kernel.restore(m, r);
      });

  // Initial machine-local fixpoint before any exchange. No handler sends,
  // so this superstep is free — pure parallel local computation.
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) { kernel.seed(i); });

  for (std::uint64_t step = 0;; ++step) {
    // n + 1 exchanges always suffice: the smallest label crosses at least
    // one boundary hop per exchange, and the last one sends nothing.
    KMM_CHECK_MSG(step <= n, "flooding failed to converge");
    // Boundary exchange: per machine, send the best candidate label per
    // remote target vertex among changed local vertices.
    rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
      bit[i] = kernel.exchange(i, out, kTagFlood) != 0 ? 1 : 0;
    });
    // Apply the labels that just arrived and re-run the local fixpoint.
    // Nothing is sent, so this superstep is free — it must run before the
    // or-reduce below, whose own supersteps clear every inbox.
    rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
      for (const auto& msg : inbox) {
        if (msg.tag == kTagFlood) kernel.receive(i, msg);
      }
      kernel.propagate(i);
    });
    result.supersteps = step + 1;
    if (!or_reduce_broadcast(rt, bit, kTagCtrl)) {
      result.converged = true;
      break;
    }
  }

  result.labels = kernel.labels();
  // Component count for convenience (instrumentation over final labels).
  std::vector<char> seen(n, 0);
  for (const Label label : result.labels) {
    if (!seen[label]) {
      seen[label] = 1;
      ++result.num_components;
    }
  }
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
