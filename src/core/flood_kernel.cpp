#include "core/flood_kernel.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace kmm {

namespace {
constexpr Label kUntouched = std::numeric_limits<Label>::max();
}  // namespace

FloodKernel::FloodKernel(const DistributedGraph& dg)
    : dg_(&dg),
      message_bits_(2 * bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2))),
      pos_(dg.num_vertices()),
      machines_(dg.machines()) {}

void FloodKernel::ensure_state(MachineId self) {
  Machine& m = machines_[self];
  if (m.has_state) return;
  const auto verts = dg_->vertices_of(self);
  m.label.assign(verts.begin(), verts.end());
  m.flags.assign(verts.size(), kChanged);
  m.stack.reserve(verts.size());
  m.has_state = true;
}

void FloodKernel::build_index(MachineId self) {
  Machine& m = machines_[self];
  const auto verts = dg_->vertices_of(self);
  const std::size_t hosted = verts.size();
  for (std::size_t p = 0; p < hosted; ++p) pos_[verts[p]] = static_cast<std::uint32_t>(p);

  // Pass 1: the home of every half-edge, evaluated once.
  std::size_t num_half_edges = 0;
  for (const Vertex v : verts) num_half_edges += dg_->degree(v);
  KMM_CHECK_MSG(num_half_edges < (std::uint64_t{1} << 32),
                "flood kernel: a machine's half-edges must fit 32-bit indices");
  std::vector<MachineId> homes;
  homes.reserve(num_half_edges);
  std::size_t num_local = 0;
  for (const Vertex v : verts) {
    for (const auto& he : dg_->neighbors(v)) {
      const MachineId h = dg_->home(he.to);
      homes.push_back(h);
      num_local += h == self ? 1 : 0;
    }
  }
  const std::size_t num_remote = homes.size() - num_local;

  // Pass 2: split each adjacency into local positions and remote
  // half-edges, the latter keyed (neighbour id, half-edge index).
  m.local_off.resize(hosted + 1);
  m.remote_off.resize(hosted + 1);
  m.local_adj.resize(num_local);
  m.remote_slot.resize(num_remote);
  std::vector<std::uint64_t> keys(num_remote);
  std::vector<MachineId> remote_home(num_remote);
  std::size_t li = 0;
  std::size_t ri = 0;
  std::size_t e = 0;
  for (std::size_t p = 0; p < hosted; ++p) {
    m.local_off[p] = li;
    m.remote_off[p] = ri;
    for (const auto& he : dg_->neighbors(verts[p])) {
      const MachineId h = homes[e++];
      if (h == self) {
        m.local_adj[li++] = pos_[he.to];
      } else {
        keys[ri] = (static_cast<std::uint64_t>(he.to) << 32) | ri;
        remote_home[ri++] = h;
      }
    }
  }
  m.local_off[hosted] = li;
  m.remote_off[hosted] = ri;
  homes = {};

  // Slots: distinct remote neighbours, counted per home machine, then laid
  // out grouped by home and ascending by id within each group.
  std::sort(keys.begin(), keys.end());
  const MachineId k = dg_->machines();
  m.home_off.assign(k + 1, 0);
  std::size_t num_slots = 0;
  for (std::size_t i = 0; i < num_remote; ++i) {
    if (i > 0 && (keys[i] >> 32) == (keys[i - 1] >> 32)) continue;
    ++m.home_off[remote_home[keys[i] & 0xffffffffu] + 1];
    ++num_slots;
  }
  for (MachineId h = 0; h < k; ++h) m.home_off[h + 1] += m.home_off[h];
  std::vector<std::size_t> cursor(m.home_off.begin(), m.home_off.end() - 1);
  m.slot_vertex.resize(num_slots);
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < num_remote; ++i) {
    const auto half_edge = static_cast<std::size_t>(keys[i] & 0xffffffffu);
    if (i == 0 || (keys[i] >> 32) != (keys[i - 1] >> 32)) {
      slot = static_cast<std::uint32_t>(cursor[remote_home[half_edge]]++);
      m.slot_vertex[slot] = static_cast<Vertex>(keys[i] >> 32);
    }
    m.remote_slot[half_edge] = slot;
  }
  m.best.assign(num_slots, kUntouched);
  m.indexed = true;
}

void FloodKernel::prepare(MachineId self) {
  ensure_state(self);
  if (!machines_[self].indexed) build_index(self);
}

void FloodKernel::seed(MachineId self) {
  prepare(self);
  Machine& m = machines_[self];
  // Smallest ids on top, so the smallest labels spread first.
  for (std::size_t p = m.label.size(); p-- > 0;) enqueue(m, static_cast<std::uint32_t>(p));
  propagate(self);
}

void FloodKernel::receive(MachineId self, const Message& msg) {
  KMM_DCHECK(msg.payload_words() >= 2);
  const auto v = static_cast<Vertex>(msg.payload()[0]);
  KMM_CHECK_MSG(dg_->home(v) == self, "flood label for a vertex homed elsewhere");
  const Label label = msg.payload()[1];
  Machine& m = machines_[self];
  const std::uint32_t p = pos_[v];
  if (label < m.label[p]) {
    m.label[p] = label;
    m.flags[p] |= kChanged;
    enqueue(m, p);
  }
}

void FloodKernel::propagate(MachineId self) {
  Machine& m = machines_[self];
  Label* const label = m.label.data();
  std::uint8_t* const flags = m.flags.data();
  while (!m.stack.empty()) {
    const std::uint32_t p = m.stack.back();
    m.stack.pop_back();
    flags[p] &= static_cast<std::uint8_t>(~kQueued);
    const Label l = label[p];
    for (std::size_t e = m.local_off[p]; e < m.local_off[p + 1]; ++e) {
      const std::uint32_t q = m.local_adj[e];
      if (l < label[q]) {
        label[q] = l;
        flags[q] |= kChanged;
        enqueue(m, q);
      }
    }
  }
}

std::size_t FloodKernel::exchange(MachineId self, Outbox& out, std::uint32_t tag) {
  Machine& m = machines_[self];
  Label* const best = m.best.data();
  const std::size_t hosted = m.label.size();
  for (std::size_t p = 0; p < hosted; ++p) {
    if ((m.flags[p] & kChanged) == 0) continue;
    m.flags[p] = 0;
    const Label l = m.label[p];
    for (std::size_t e = m.remote_off[p]; e < m.remote_off[p + 1]; ++e) {
      Label& b = best[m.remote_slot[e]];
      b = std::min(b, l);
    }
  }
  std::size_t sent = 0;
  for (MachineId h = 0; h + 1 < m.home_off.size(); ++h) {
    for (std::size_t s = m.home_off[h]; s < m.home_off[h + 1]; ++s) {
      if (best[s] == kUntouched) continue;
      out.send(h, tag, {m.slot_vertex[s], best[s]}, message_bits_);
      best[s] = kUntouched;
      ++sent;
    }
  }
  return sent;
}

void FloodKernel::snapshot(MachineId mi, WordWriter& w) {
  ensure_state(mi);
  const Machine& m = machines_[mi];
  for (std::size_t p = 0; p < m.label.size(); ++p) {
    w.u64(m.label[p]);
    w.u64(m.flags[p] & kChanged);
  }
}

void FloodKernel::restore(MachineId mi, WordReader& r) {
  ensure_state(mi);
  Machine& m = machines_[mi];
  for (std::size_t p = 0; p < m.label.size(); ++p) {
    m.label[p] = r.u64();
    m.flags[p] = r.u64() != 0 ? kChanged : 0;
  }
  m.stack.clear();
}

std::vector<Label> FloodKernel::labels() const {
  std::vector<Label> out(dg_->num_vertices());
  for (MachineId i = 0; i < machines_.size(); ++i) {
    const auto verts = dg_->vertices_of(i);
    const Machine& m = machines_[i];
    for (std::size_t p = 0; p < verts.size(); ++p) {
      out[verts[p]] = m.has_state ? m.label[p] : verts[p];
    }
  }
  return out;
}

}  // namespace kmm
