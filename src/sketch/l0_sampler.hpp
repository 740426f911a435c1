#pragma once
// Multi-level l0-sampler over a universe [0, U) with values in {-1,0,+1}
// (Section 2.3; [10],[17],[32]).
//
// Structure: `copies` independent repetitions; each repetition holds
// `levels` one-sparse cells. Item i participates in levels 0..z(i) of copy
// c, where z(i) is the number of trailing zeros of h_c(i) — i.e. level l
// subsamples the universe at rate 2^-l. If the vector has support s, the
// level near log2(s) is 1-sparse with constant probability, so a query
// succeeds w.h.p. across copies and recovers a (near-)uniform support
// element.
//
// Linearity: samplers built from the same (universe, params, seed) add
// coordinate-wise; sketch(a) + sketch(b) = sketch(a+b) exactly.
//
// All randomness comes from `seed` — machines sharing a seed build
// combinable sketches, which is how the k-machine algorithm ships per-part
// sketches to proxies and sums them there.
//
// Wire image (serialize / add_serialized / deserialize): a trimmed,
// self-delimiting word sequence. A header of ceil(copies / 8) words holds
// one byte per copy — byte c % 8 of word c / 8 — giving that copy's level
// count: its highest non-zero level + 1, at least 1 and at most `levels`.
// Then, copy by copy, each copy's cells of levels 0..count-1 as 3 words
// (s0, s1, s2). Level 0 of every copy is always present, so the image
// carries is_zero()'s fingerprints and its last word is always a
// fingerprint (s2) word. Geometric subsampling leaves most high levels
// empty, so images are a fraction of the full copies x levels x 3 words.
// The physical image length is not the sketch's cost: wire_bits() stays the
// logical size of every cell, so the ClusterStats ledger does not depend on
// trimming (the bandwidth ledger charges declared bits, never payload words).

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/one_sparse.hpp"
#include "util/codec.hpp"
#include "util/hashing.hpp"

namespace kmm {

struct L0Params {
  int levels = 16;
  int copies = 3;

  /// Levels to cover a universe of `universe` indices: log2(U) + 2 slack.
  [[nodiscard]] static L0Params for_universe(std::uint64_t universe, int copies = 3);

  [[nodiscard]] int cells() const noexcept { return levels * copies; }
};

class L0Sampler {
 public:
  L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed);

  /// Add `value` (±1) at `index`. O(1) expected cell updates per copy.
  /// `r_pow_index` per copy must equal r_c^index; callers with many updates
  /// use precomputed power tables (GraphSketchBuilder), casual callers use
  /// the convenience overload below.
  void update(std::uint64_t index, int value, const std::uint64_t* r_pow_index_per_copy);

  /// Convenience overload computing the fingerprint powers directly
  /// (O(log U) field mults per copy).
  void update(std::uint64_t index, int value);

  /// Linear combination; other must share (universe, params, seed).
  void add(const L0Sampler& other);

  /// Linear combination with a sketch in wire form: reads one trimmed
  /// image (see the top of this file) off `reader` and adds its cells
  /// straight into this sampler, without materializing the sending sketch —
  /// the proxy-side merge path of the Borůvka engine. Consumes exactly one
  /// image, so images written back-to-back read back-to-back. A level count
  /// outside [1, levels] or a truncated image fails a KMM_CHECK before any
  /// out-of-bounds read.
  void add_serialized(WordReader& reader);

  /// Re-zero all cells and rebind to `seed`, retaining cell storage — how
  /// the engine reuses one sampler per machine (universe/params stay fixed).
  void reset(std::uint64_t seed) noexcept;

  /// Recover some nonzero index, or nullopt if the vector appears empty /
  /// recovery failed everywhere (probability polynomially small for
  /// nonzero vectors).
  [[nodiscard]] std::optional<Recovered> sample() const;

  /// Whole-vector zero test via the level-0 fingerprints of every copy:
  /// exact for the zero vector; a nonzero vector passes with probability
  /// <= (U/p)^copies. Used for algorithm termination and the MST
  /// MWOE confirmation step.
  [[nodiscard]] bool is_zero() const;

  /// Fingerprint base of copy c (needed by power-table builders).
  [[nodiscard]] std::uint64_t fingerprint_base(int copy) const;
  /// Same derivation without an instance — power-table builders rebind to a
  /// new seed without constructing a probe sampler.
  [[nodiscard]] static std::uint64_t fingerprint_base_for(std::uint64_t seed, int copy);
  /// Level-hash seed of copy c, without an instance (the build kernel
  /// precomputes these once per rebind).
  [[nodiscard]] static std::uint64_t level_seed_for(std::uint64_t seed, int copy);
  /// Level (0..levels-1) that index participates up to, in copy c.
  [[nodiscard]] int level_of(std::uint64_t index, int copy) const;

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Logical wire size of the sketch: every cell of every copy, whatever
  /// the physical image length.
  [[nodiscard]] std::uint64_t wire_bits() const;

  /// Append the trimmed wire image. Reserves the untrimmed maximum, so a
  /// reused writer reaches its steady-state capacity on first use.
  void serialize(WordWriter& out) const;

  /// Longest possible wire image: the header plus every cell.
  [[nodiscard]] std::size_t max_image_words() const noexcept {
    return header_words() + cells_.size() * 3;
  }

  /// Rebuild a sketch from one image on `reader` given matching
  /// construction parameters (add_serialized into a fresh sampler).
  static L0Sampler deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                               WordReader& reader);

 private:
  // The build kernel walks a copy's cells directly instead of calling
  // update() per half-edge.
  friend class GraphSketchBuilder;

  [[nodiscard]] std::size_t header_words() const noexcept {
    return (static_cast<std::size_t>(params_.copies) + 7) / 8;
  }
  /// Levels of copy c the wire image carries: highest non-zero level + 1.
  [[nodiscard]] int present_levels(int copy) const noexcept;

  [[nodiscard]] OneSparseCell& cell(int copy, int level) {
    return cells_[static_cast<std::size_t>(copy) * static_cast<std::size_t>(params_.levels) +
                  static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const OneSparseCell& cell(int copy, int level) const {
    return cells_[static_cast<std::size_t>(copy) * static_cast<std::size_t>(params_.levels) +
                  static_cast<std::size_t>(level)];
  }

  std::uint64_t universe_;
  L0Params params_;
  std::uint64_t seed_;
  std::vector<OneSparseCell> cells_;
};

}  // namespace kmm
