// Host wall-clock spans for the benchmark's traced run.
//
// A span brackets one call from the benchmark into a layer's public stage
// function (snn::Simulator::run, core::PsoPartitioner::optimize,
// noc::NocSimulator::run, ...), so the library itself stays clock-free.
// Spans nest through parent ids; a span's self time is its duration minus
// the time its direct children cover, which attributes every second of a
// traced pass to exactly one layer (the root's self time is the remainder
// no layer span covers).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = static_cast<std::uint32_t>(-1);

struct Span {
  std::string name;   ///< stage, e.g. "snn.run"
  std::string layer;  ///< owning module, e.g. "snn"
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  /// Deterministic work counts observed at this boundary.
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Keeps every span in memory until the run ends; single-threaded.
class SpanRecorder {
 public:
  /// Closes its span when destroyed.  A scope opened on a null recorder
  /// records nothing, so untraced passes run the same code.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void count(const char* name, std::uint64_t value);

   private:
    SpanRecorder* recorder_;
    std::uint32_t id_ = 0;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double now_s() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the open spans, innermost last
};

/// Self time of every span, indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Structural problems in a recorded span list: a parent id that does not
/// name an earlier span, a child outside its parent's interval, siblings
/// that overlap, a negative self time, or a root whose subtree's self times
/// do not add up to its duration.  Empty when the list is well formed.
std::vector<std::string> check_spans(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events on one thread, ids and work
/// counts in args) that Perfetto and chrome://tracing load.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

}  // namespace perfbench
