#include "sketch/l0_sampler.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/prime_field.hpp"

namespace kmm {

L0Params L0Params::for_universe(std::uint64_t universe, int copies) {
  L0Params p;
  p.copies = copies;
  p.levels = 2;
  while ((1ULL << p.levels) < universe && p.levels < 62) ++p.levels;
  p.levels += 2;  // slack so sparse tails still isolate single items
  return p;
}

L0Sampler::L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed)
    : universe_(universe), params_(params), seed_(seed) {
  // A wire-image header byte holds each copy's level count; 64 levels
  // already exhaust a 64-bit level hash.
  KMM_CHECK(universe >= 1 && params.levels >= 1 && params.levels <= 64 && params.copies >= 1);
  cells_.resize(static_cast<std::size_t>(params_.cells()));
}

std::uint64_t L0Sampler::fingerprint_base(int copy) const {
  return fingerprint_base_for(seed_, copy);
}

std::uint64_t L0Sampler::fingerprint_base_for(std::uint64_t seed, int copy) {
  // Nonzero field element derived from the shared seed.
  return 2 + split3(seed, 0xf1a9, static_cast<std::uint64_t>(copy)) % (kMersenne61 - 2);
}

std::uint64_t L0Sampler::level_seed_for(std::uint64_t seed, int copy) {
  return split3(seed, 0x1e7e, static_cast<std::uint64_t>(copy));
}

int L0Sampler::level_of(std::uint64_t index, int copy) const {
  const std::uint64_t h = split(level_seed_for(seed_, copy), index);
  return geometric_level(h, params_.levels - 1);
}

void L0Sampler::update(std::uint64_t index, int value,
                       const std::uint64_t* r_pow_index_per_copy) {
  KMM_CHECK_MSG(index < universe_, "l0 update outside universe");
  KMM_CHECK_MSG(value == 1 || value == -1, "l0 values must be +-1");
  for (int c = 0; c < params_.copies; ++c) {
    const int top = level_of(index, c);
    const std::uint64_t rp = r_pow_index_per_copy[c];
    for (int l = 0; l <= top; ++l) cell(c, l).update(index, value, rp);
  }
}

void L0Sampler::update(std::uint64_t index, int value) {
  std::vector<std::uint64_t> powers(static_cast<std::size_t>(params_.copies));
  for (int c = 0; c < params_.copies; ++c) {
    powers[static_cast<std::size_t>(c)] = fp::pow(fingerprint_base(c), index);
  }
  update(index, value, powers.data());
}

void L0Sampler::add(const L0Sampler& other) {
  KMM_CHECK_MSG(universe_ == other.universe_ && seed_ == other.seed_ &&
                    params_.levels == other.params_.levels &&
                    params_.copies == other.params_.copies,
                "cannot combine sketches with different construction");
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i].add(other.cells_[i]);
}

void L0Sampler::add_serialized(WordReader& reader) {
  const auto header = reader.span(header_words());
  for (int c = 0; c < params_.copies; ++c) {
    const std::uint64_t count = (header[static_cast<std::size_t>(c) / 8] >> (8 * (c % 8))) & 0xff;
    KMM_CHECK_MSG(count >= 1 && count <= static_cast<std::uint64_t>(params_.levels),
                  "sketch image: copy level count outside [1, levels]");
    const std::uint64_t* words = reader.span(count * 3).data();
    OneSparseCell* cells = &cell(c, 0);
    for (std::uint64_t l = 0; l < count; ++l, words += 3) {
      cells[l].add_raw(static_cast<std::int64_t>(words[0]), words[1], words[2]);
    }
  }
}

void L0Sampler::reset(std::uint64_t seed) noexcept {
  seed_ = seed;
  std::fill(cells_.begin(), cells_.end(), OneSparseCell{});
}

std::optional<Recovered> L0Sampler::sample() const {
  // Scan levels from the full vector downward in sampling rate; the first
  // verified 1-sparse cell yields the sample. Copies give independence.
  for (int c = 0; c < params_.copies; ++c) {
    const std::uint64_t r = fingerprint_base(c);
    for (int l = 0; l < params_.levels; ++l) {
      if (auto rec = cell(c, l).recover(r, universe_)) return rec;
    }
  }
  return std::nullopt;
}

bool L0Sampler::is_zero() const {
  // Level 0 of each copy sees every index; its fingerprint s2 is a random
  // polynomial evaluation, nonzero w.h.p. for nonzero vectors.
  for (int c = 0; c < params_.copies; ++c) {
    if (cell(c, 0).s2() != 0 || cell(c, 0).s0() != 0) return false;
  }
  return true;
}

std::uint64_t L0Sampler::wire_bits() const {
  return static_cast<std::uint64_t>(params_.cells()) * OneSparseCell::wire_bits(universe_);
}

int L0Sampler::present_levels(int copy) const noexcept {
  int top = params_.levels - 1;
  while (top > 0 && cell(copy, top).all_zero()) --top;
  return top + 1;
}

void L0Sampler::serialize(WordWriter& out) const {
  out.reserve(out.size() + max_image_words());
  for (std::size_t h = 0; h < header_words(); ++h) {
    std::uint64_t word = 0;
    for (int c = static_cast<int>(8 * h); c < params_.copies && c < static_cast<int>(8 * h + 8);
         ++c) {
      word |= static_cast<std::uint64_t>(present_levels(c)) << (8 * (c % 8));
    }
    out.u64(word);
  }
  for (int c = 0; c < params_.copies; ++c) {
    const int count = present_levels(c);
    for (int l = 0; l < count; ++l) {
      const OneSparseCell& cl = cell(c, l);
      out.u64(static_cast<std::uint64_t>(cl.s0())).u64(cl.s1()).u64(cl.s2());
    }
  }
}

L0Sampler L0Sampler::deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                                 WordReader& reader) {
  L0Sampler s(universe, params, seed);
  s.add_serialized(reader);
  return s;
}

}  // namespace kmm
