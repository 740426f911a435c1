#include "core/flood_program.hpp"

#include <algorithm>

#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagFlood = 1;
constexpr std::uint32_t kTagCtrl = 2;
}  // namespace

FloodProgram::FloodProgram(const DistributedGraph& dg, MachineId k)
    : k_(k), kernel_(dg), sent_(k, 0), done_(k, 0), steps_(k, 0) {}

bool FloodProgram::done() const {
  return std::all_of(done_.begin(), done_.end(), [](char d) { return d != 0; });
}

void FloodProgram::on_superstep(MachineId self, std::span<const Message> inbox,
                                Outbox& out) {
  bool active_prev = sent_[self] != 0;
  if (steps_[self] == 0) {
    // First superstep: seed the local fixpoint from every hosted vertex
    // (all changed bits start set). Nothing arrived yet and termination is
    // impossible before at least one exchange.
    kernel_.seed(self);
    active_prev = true;
  } else {
    kernel_.prepare(self);
    for (const Message& msg : inbox) {
      if (msg.tag == kTagCtrl) {
        active_prev = active_prev || msg.payload()[0] != 0;
        continue;
      }
      KMM_DCHECK(msg.tag == kTagFlood);
      kernel_.receive(self, msg);
    }
    kernel_.propagate(self);
  }

  if (!active_prev) {
    // No machine emitted flood messages last superstep, so nothing arrived,
    // no changed bit is set anywhere, and every machine observes the same
    // all-zero OR this superstep: global fixpoint. Send nothing (free step).
    done_[self] = 1;
    ++steps_[self];
    return;
  }

  // Boundary exchange, then the convergence plane: broadcast this
  // superstep's activity flag. Replaces the lambda engine's or-reduce
  // steps — flattened into the data superstep so the program stays uniform
  // (and therefore resumable).
  sent_[self] = kernel_.exchange(self, out, kTagFlood) != 0 ? 1 : 0;
  const auto flag = static_cast<std::uint64_t>(sent_[self]);
  for (MachineId j = 0; j < k_; ++j) {
    if (j != self) out.send(j, kTagCtrl, {flag}, 1);
  }
  ++steps_[self];
}

void FloodProgram::snapshot(MachineId m, WordWriter& out) {
  out.u64(steps_[m]);
  out.u64(static_cast<std::uint64_t>(sent_[m]));
  out.u64(static_cast<std::uint64_t>(done_[m]));
  kernel_.snapshot(m, out);
}

void FloodProgram::restore(MachineId m, WordReader& in) {
  steps_[m] = in.u64();
  sent_[m] = static_cast<char>(in.u64());
  done_[m] = static_cast<char>(in.u64());
  kernel_.restore(m, in);
}

ResumableFloodResult resumable_flood_connectivity(Cluster& cluster,
                                                  const DistributedGraph& dg,
                                                  const ResumableFloodConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const std::uint64_t cap =
      config.max_supersteps != 0 ? config.max_supersteps : static_cast<std::uint64_t>(n) + 8;
  FloodProgram program(dg, cluster.k());
  Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                    config.pool});
  // Driven step-by-step rather than via Runtime::run so exhausting the cap
  // reports converged=false instead of aborting — a durable first lifetime
  // is "killed" exactly this way, with its state living on in the store.
  for (std::uint64_t s = 0; s < cap && !program.done(); ++s) {
    (void)rt.step(program);
  }

  ResumableFloodResult result;
  result.converged = program.done();
  result.supersteps = program.supersteps();
  result.labels = program.labels();
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
