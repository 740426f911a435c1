#pragma once
// Linear graph sketches over incidence vectors (Section 2.3).
//
// Vertex u's incidence vector a_u lives on the edge-index universe [0, n^2):
//   a_u[(x,y)] = +1 if u = x < y and (x,y) ∈ E,
//                -1 if x < y = u and (x,y) ∈ E.
// Summing a_u over a vertex set S cancels intra-S edges, leaving exactly
// the outgoing edges of S — the property the connectivity algorithm rides.
//
// GraphSketchBuilder fixes the shared per-phase randomness (seed) and
// precomputes, per sampler copy, fingerprint power tables
//   r^(x*n + y) = (r^n)^x * r^y
// so that building a sketch costs O(1) field mults per incident edge. The
// tables are interleaved: vertex v's row holds r_c^v and (r_c^n)^v for every
// copy c side by side, so a neighbour's powers cost one row load instead of
// 2 x copies scattered ones. The per-copy level-hash seeds are precomputed
// with the tables, leaving one splitmix64 per half-edge and copy.
//
// The weight threshold (`max_weight`) implements the MST elimination step
// of Section 3.1: entries for edges heavier than the threshold are zeroed
// *at construction*, a purely local operation for the home machine.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "sketch/l0_sampler.hpp"
#include "util/prime_field.hpp"

namespace kmm {

inline constexpr Weight kNoWeightLimit = std::numeric_limits<Weight>::max();

class GraphSketchBuilder {
 public:
  /// `seed` is the shared per-(phase, iteration) sketch seed; `copies`
  /// trades failure probability against sketch size.
  GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies = 3);

  /// Rebind to a new per-iteration seed: recomputes the fingerprint power
  /// tables in place (O(n * copies) field mults, zero allocations), so a
  /// long-lived builder costs no heap traffic per iteration. n and copies
  /// are fixed at construction.
  void rebind(std::uint64_t seed);

  /// Sketch of a single vertex's incidence vector, restricted to edges of
  /// weight <= max_weight.
  [[nodiscard]] L0Sampler sketch_vertex(const DistributedGraph& dg, Vertex u,
                                        Weight max_weight = kNoWeightLimit) const;

  /// Combined sketch of a component part (sum over the part's vertices),
  /// built directly without materializing per-vertex sketches.
  [[nodiscard]] L0Sampler sketch_part(const DistributedGraph& dg,
                                      std::span<const Vertex> part,
                                      Weight max_weight = kNoWeightLimit) const;

  /// Allocation-free flavor: accumulate the part into a caller-provided
  /// (typically reused) sampler. `sink` must be bound to this builder's
  /// (universe, params, seed); accumulating adds to what it holds. The
  /// engine's SS1 hot path.
  void accumulate_part(const DistributedGraph& dg, std::span<const Vertex> part,
                       Weight max_weight, L0Sampler& sink) const;
  /// Same, for callers written against the kernel that needed per-edge
  /// power scratch; the fused kernel leaves `power_scratch` untouched.
  void accumulate_part(const DistributedGraph& dg, std::span<const Vertex> part,
                       Weight max_weight, L0Sampler& sink,
                       std::vector<std::uint64_t>& /*power_scratch*/) const {
    accumulate_part(dg, part, max_weight, sink);
  }

  /// An empty sketch with this builder's construction parameters
  /// (accumulator for proxy-side summation / deserialization target).
  [[nodiscard]] L0Sampler empty_sketch() const;

  /// Decode a sampled edge index back to endpoints (x < y).
  [[nodiscard]] std::pair<Vertex, Vertex> decode(std::uint64_t index) const;

  /// r_c^(x*n + y) as the build kernel forms it from the power tables.
  [[nodiscard]] std::uint64_t edge_power(Vertex x, Vertex y, int copy) const noexcept {
    return fp::mul(row(x)[params_.copies + copy], row(y)[copy]);
  }

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  void accumulate(const DistributedGraph& dg, Vertex u, Weight max_weight,
                  L0Sampler& sink) const;

  /// Vertex v's row: r_c^v for c in [0, copies), then (r_c^n)^v likewise.
  [[nodiscard]] const std::uint64_t* row(Vertex v) const noexcept {
    return powers_.data() + static_cast<std::size_t>(v) * 2 * params_.copies;
  }

  std::size_t n_;
  std::uint64_t universe_;
  L0Params params_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> powers_;       // n rows of 2 * copies words
  std::vector<std::uint64_t> level_seeds_;  // per copy
};

}  // namespace kmm
