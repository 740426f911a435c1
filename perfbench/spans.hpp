#pragma once
// Harness-side spans for the traced run.
//
// A span is named `<layer>.<call>` and wraps one call from the harness into
// a layer's public functions. It carries start, end, its parent's id and
// the run id: the benchmark run's seed for the harness's own calls, the
// query id for a service query (one request, one run). Spans are kept in
// memory and written as JSON when the run ends. A span's self time is its
// duration minus the part of its interval that its children cover. Nothing
// inside the library is instrumented.
//
// Scoped spans nest through a stack and must be opened and closed on one
// thread. record() adds an already-finished span under the current parent,
// for work that overlaps other work (concurrent service queries).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t run = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(std::uint64_t run_id) : run_(run_id) {}

  std::uint64_t open(std::string name) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{std::move(name), id, current(), run_, Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint64_t id) {
    spans_[id - 1].end = Clock::now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t run) {
    spans_.push_back(Span{std::move(name), spans_.size() + 1, current(), run, start, end});
  }

  /// Summed duration of every span with this name, in seconds.
  [[nodiscard]] double seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += std::chrono::duration<double>(s.end - s.start).count();
    }
    return total;
  }

  /// Write every span as {"spans": [...]}, with duration and self time in
  /// nanoseconds. Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    const auto ns = [&](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
    };
    std::vector<std::vector<std::size_t>> kids(spans_.size() + 1);
    for (std::size_t i = 0; i < spans_.size(); ++i) kids[spans_[i].parent].push_back(i);
    std::fprintf(out, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"run\": %llu, "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}%s\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run), ns(s.start), ns(s.end),
                   self_ns(s, kids[s.id]), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  [[nodiscard]] std::uint64_t current() const noexcept {
    return stack_.empty() ? 0 : stack_.back();
  }

  /// Duration minus the union of the children's intervals (clipped to the
  /// span, since concurrent children may overlap each other).
  [[nodiscard]] long long self_ns(const Span& s, const std::vector<std::size_t>& children) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    kids.reserve(children.size());
    for (const std::size_t c : children) {
      kids.emplace_back(std::max(spans_[c].start, s.start), std::min(spans_[c].end, s.end));
    }
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(s.end - s.start - covered).count());
  }

  std::uint64_t run_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perf
