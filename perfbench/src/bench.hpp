// Shared types of the end-to-end benchmark program (perfbench).
//
// A run repeats one workload in rounds until its time budget is spent.
// Every round does identical, seed-determined work on freshly built
// engines and records its wall time as a list of contiguous steps
// (set-up steps and work steps). main.cpp turns the rounds into the
// end-to-end metrics; with tracing on, every other round also records
// spans around each public library call and yields the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// In-memory span recorder. Spans nest through an open-span stack (all
/// calls come from the benchmark's own thread); spans measured elsewhere
/// (study cells, timed from callbacks) are added after the fact.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the tracer's origin
    double end_s = 0.0;
    int parent = -1;
    int cell = -1;  ///< workload-defined cell id, -1 for none
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int cell);
  void close(int id);
  /// A finished span under the innermost open span.
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int cell);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration per span name, from span index `first` on.
  std::map<std::string, double> total_seconds(std::size_t first) const;
  /// Summed self time (duration minus what child spans cover) per name.
  std::map<std::string, double> self_seconds(std::size_t first) const;

 private:
  double since_origin(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (untraced rounds).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, int cell = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, cell) : -1) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Set-up and work steps make up a round's wall time; check steps
/// (output verification, scratch-file handling) are excluded from it.
enum class StepKind { Setup, Work, Check };

/// One contiguous slice of a round's time.
struct Step {
  double seconds = 0.0;
  StepKind kind = StepKind::Work;
  std::string label;  ///< kernel or cell the step belongs to, if any
};

struct RoundResult {
  std::vector<Step> steps;
  /// Experiments executed outside set-up (ThroughputStats counting).
  std::uint64_t experiments = 0;
  /// FNV-1a over the round's deterministic outputs.
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Per-layer metrics (traced rounds only): call-boundary totals and
  /// counts, keyed by the names in per_layer_metrics().
  std::map<std::string, double> layers;
};

/// Appends the time since the previous mark as one step.
class StepClock {
 public:
  explicit StepClock(RoundResult& round) : round_(round), last_(Clock::now()) {}
  void mark(StepKind kind, std::string label = "",
            Clock::time_point at = Clock::now()) {
    round_.steps.push_back({seconds_between(last_, at), kind,
                            std::move(label)});
    last_ = at;
  }

 private:
  RoundResult& round_;
  Clock::time_point last_;
};

struct RoundContext {
  std::uint64_t seed = 1;
  unsigned round = 0;
  /// Scratch directory for sockets, journals and stores (inside the
  /// checkout); emptied by the workload after each round.
  std::string run_dir;
  Tracer* tracer = nullptr;  ///< null in untraced rounds
};

struct MetricDef {
  const char* name;
  const char* unit;
  /// Deterministic count: must repeat exactly between traced rounds.
  bool exact = false;
};

const std::vector<std::string>& workload_names();
const std::vector<MetricDef>& per_layer_metrics();
RoundResult run_round(const std::string& workload, const RoundContext& ctx);

}  // namespace perfbench
