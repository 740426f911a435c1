#include "sketch/graph_sketch.hpp"

#include "util/assert.hpp"
#include "util/hashing.hpp"

namespace kmm {

GraphSketchBuilder::GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies)
    : n_(n),
      universe_(static_cast<std::uint64_t>(n) * n),
      params_(L0Params::for_universe(static_cast<std::uint64_t>(n) * n, copies)),
      seed_(seed) {
  KMM_CHECK(n >= 2);
  powers_.resize(n * 2 * static_cast<std::size_t>(params_.copies));
  level_seeds_.resize(static_cast<std::size_t>(params_.copies));
  rebind(seed);
}

void GraphSketchBuilder::rebind(std::uint64_t seed) {
  seed_ = seed;
  const auto copies = static_cast<std::size_t>(params_.copies);
  const std::size_t stride = 2 * copies;
  for (std::size_t c = 0; c < copies; ++c) {
    level_seeds_[c] = L0Sampler::level_seed_for(seed_, static_cast<int>(c));
    const std::uint64_t r = L0Sampler::fingerprint_base_for(seed_, static_cast<int>(c));
    std::uint64_t* low = powers_.data() + c;
    low[0] = 1;
    for (std::size_t y = 1; y < n_; ++y) low[y * stride] = fp::mul(low[(y - 1) * stride], r);
    const std::uint64_t r_n = fp::mul(low[(n_ - 1) * stride], r);  // r^n
    std::uint64_t* high = low + copies;
    high[0] = 1;
    for (std::size_t x = 1; x < n_; ++x) high[x * stride] = fp::mul(high[(x - 1) * stride], r_n);
  }
}

L0Sampler GraphSketchBuilder::empty_sketch() const {
  return L0Sampler(universe_, params_, seed_);
}

void GraphSketchBuilder::accumulate(const DistributedGraph& dg, Vertex u, Weight max_weight,
                                    L0Sampler& sink) const {
  const int copies = params_.copies;
  const int levels = params_.levels;
  const std::uint64_t* own = row(u);
  for (const auto& he : dg.neighbors(u)) {
    if (he.weight > max_weight) continue;
    // u's own row supplies the power of its endpoint role, the neighbour's
    // row the other: high powers belong to x, low powers to y.
    const bool u_is_x = u <= he.to;
    const std::uint64_t* other = row(he.to);
    const std::uint64_t* high_x = (u_is_x ? own : other) + copies;
    const std::uint64_t* low_y = u_is_x ? other : own;
    const std::uint64_t index = u_is_x ? static_cast<std::uint64_t>(u) * n_ + he.to
                                       : static_cast<std::uint64_t>(he.to) * n_ + u;
    const int value = u_is_x ? 1 : -1;
    for (int c = 0; c < copies; ++c) {
      const std::uint64_t r_pow = fp::mul(high_x[c], low_y[c]);
      const int top = geometric_level(split(level_seeds_[static_cast<std::size_t>(c)], index),
                                      levels - 1);
      OneSparseCell* cells = &sink.cell(c, 0);
      for (int l = 0; l <= top; ++l) cells[l].update(index, value, r_pow);
    }
  }
}

void GraphSketchBuilder::accumulate_part(const DistributedGraph& dg,
                                         std::span<const Vertex> part, Weight max_weight,
                                         L0Sampler& sink) const {
  KMM_DCHECK(sink.universe() == universe_ && sink.seed() == seed_);
  for (const Vertex u : part) accumulate(dg, u, max_weight, sink);
}

L0Sampler GraphSketchBuilder::sketch_vertex(const DistributedGraph& dg, Vertex u,
                                            Weight max_weight) const {
  L0Sampler s = empty_sketch();
  accumulate(dg, u, max_weight, s);
  return s;
}

L0Sampler GraphSketchBuilder::sketch_part(const DistributedGraph& dg,
                                          std::span<const Vertex> part,
                                          Weight max_weight) const {
  L0Sampler s = empty_sketch();
  accumulate_part(dg, part, max_weight, s);
  return s;
}

std::pair<Vertex, Vertex> GraphSketchBuilder::decode(std::uint64_t index) const {
  KMM_CHECK(index < universe_);
  const auto x = static_cast<Vertex>(index / n_);
  const auto y = static_cast<Vertex>(index % n_);
  KMM_CHECK_MSG(x < y, "decoded edge index is not canonical");
  return {x, y};
}

}  // namespace kmm
