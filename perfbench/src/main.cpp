// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX]
//
// Repeats the workload in rounds until S seconds have passed, checks
// every round's outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones:
//   setup_s            set-up time of a round
//   wall_s             wall time of a round (set-up plus work)
//   experiments_per_s  experiments outside set-up / a round's work time
//   peak_rss_mb        the process's ru_maxrss after its first round: the
//                      peak of a process that runs the workload once
// Rounds repeat identical work (same seed, fresh engines) and record their
// time as a fixed sequence of steps. Each time above is, per step, the
// median over the run's rounds, summed over the steps: a slow host phase
// that covers a step in fewer than half of the rounds does not show, and
// set-up and wall time come from the same estimate, so wall_s >= setup_s.
//
// With --trace 1 rounds alternate untraced and traced; the traced ones
// record spans around every public library call and yield the per-layer
// metrics (counts from the first traced round, which later traced rounds
// must repeat exactly; times as the median over traced rounds), plus
// trace.overhead_s, the median traced minus the median untraced round.
// Spans are written to .bench_run/trace-<workload>-<seed>.json when the
// run ends. Sockets, journals and stores live under .bench_run too.
//
// Exit status: 0 when every round's outputs were correct, 1 otherwise
// (the JSON line is still printed), 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double kind_seconds(const RoundResult& round, StepKind kind) {
  double total = 0.0;
  for (const Step& step : round.steps) {
    if (step.kind == kind) total += step.seconds;
  }
  return total;
}

double wall_seconds(const RoundResult& round) {
  return kind_seconds(round, StepKind::Setup) +
         kind_seconds(round, StepKind::Work);
}

/// The set-up and work steps of a round, in order (check steps, which
/// only some rounds have, dropped).
std::vector<Step> timed_steps(const RoundResult& round) {
  std::vector<Step> steps;
  for (const Step& step : round.steps) {
    if (step.kind != StepKind::Check) steps.push_back(step);
  }
  return steps;
}

/// Sum over step positions of the median over rounds at that position,
/// restricted to steps of `kind`. Every round has the same timed steps
/// (checked by the caller). `by_label`, when given, receives the same sums
/// per step label.
double median_steps(const std::vector<const RoundResult*>& rounds,
                    StepKind kind,
                    std::map<std::string, double>* by_label = nullptr) {
  std::vector<std::vector<Step>> steps;
  for (const RoundResult* round : rounds) steps.push_back(timed_steps(*round));
  double total = 0.0;
  for (std::size_t i = 0; i < steps.front().size(); ++i) {
    if (steps.front()[i].kind != kind) continue;
    std::vector<double> times;
    for (const std::vector<Step>& round : steps) {
      times.push_back(round[i].seconds);
    }
    const double typical = median(times);
    total += typical;
    if (by_label != nullptr) (*by_label)[steps.front()[i].label] += typical;
  }
  return total;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const Tracer& tracer) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"self_ms\":{";
  bool first = true;
  for (const auto& [name, seconds] : tracer.self_seconds(0)) {
    out << (first ? "" : ",") << "\"" << name << "\":" << seconds * 1e3;
    first = false;
  }
  out << "},\"spans\":[\n";
  char line[256];
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    std::snprintf(line, sizeof line,
                  "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"cell\":%d}",
                  i == 0 ? "" : ",\n", i, span.name.c_str(), span.start_s,
                  span.end_s, span.parent, span.cell);
    out << line;
  }
  out << "\n]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expect-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tracing = false;
  std::string expect_digest;
  const std::string run_dir = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      tracing = value == "1";
    } else if (flag == "--expect-digest") {
      expect_digest = value;
    } else {
      return usage();
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (argc % 2 == 0 ||
      std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);

  const Clock::time_point start = Clock::now();
  Tracer tracer(start);
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  unsigned traced_rounds = 0;
  long peak_rss_kb = 0;  ///< ru_maxrss after the first round
  while (rounds.empty() || seconds_between(start, Clock::now()) < seconds ||
         (tracing && traced_rounds == 0)) {
    RoundContext ctx;
    ctx.seed = seed;
    ctx.round = static_cast<unsigned>(rounds.size());
    ctx.run_dir = run_dir;
    const bool this_traced = tracing && rounds.size() % 2 == 1;
    if (this_traced) ctx.tracer = &tracer;
    rounds.push_back(run_round(workload, ctx));
    traced.push_back(this_traced);
    traced_rounds += this_traced ? 1 : 0;
    const RoundResult& round = rounds.back();
    std::fprintf(stderr,
                 "perfbench: %s round %zu%s: wall %.4f s, set-up %.4f s, "
                 "%" PRIu64 " experiments, digest %016" PRIx64 "%s\n",
                 workload.c_str(), rounds.size() - 1,
                 this_traced ? " (traced)" : "", wall_seconds(round),
                 kind_seconds(round, StepKind::Setup), round.experiments,
                 round.digest, round.errors.empty() ? "" : ", FAILED");
    for (const std::string& error : round.errors) {
      std::fprintf(stderr, "perfbench:   %s\n", error.c_str());
    }
    if (rounds.size() == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_kb = usage.ru_maxrss;
    }
  }

  // Correctness: every round's own checks, identical digests across
  // rounds, and the pinned digest when one was given.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64,
                rounds.front().digest);
  for (const RoundResult& round : rounds) {
    attempted += round.attempted;
    failed += round.failed;
    if (round.digest != rounds.front().digest) {
      std::fprintf(stderr, "perfbench: round digests differ\n");
      failed += 1;
    }
  }
  if (!expect_digest.empty() && expect_digest != digest_hex) {
    std::fprintf(stderr, "perfbench: digest %s, pinned %s\n", digest_hex,
                 expect_digest.c_str());
    failed += 1;
  }
  std::fprintf(stderr, "perfbench: digest %s\n", digest_hex);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<const RoundResult*> plain;
  std::vector<const RoundResult*> with_spans;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    (traced[r] ? with_spans : plain).push_back(&rounds[r]);
  }
  if (!tracing) {
    bool same_shape = true;
    const std::vector<Step> first = timed_steps(*plain.front());
    for (const RoundResult* round : plain) {
      const std::vector<Step> steps = timed_steps(*round);
      same_shape = same_shape && steps.size() == first.size();
      for (std::size_t i = 0; same_shape && i < steps.size(); ++i) {
        same_shape = steps[i].kind == first[i].kind;
      }
    }
    if (!same_shape) {
      // Only a failed round ends early; estimate from the first round alone.
      std::fprintf(stderr, "perfbench: rounds differ in their steps\n");
      failed += 1;
      plain.resize(1);
    }
    const double setup = median_steps(plain, StepKind::Setup);
    std::map<std::string, double> work_by_label;
    const double work = median_steps(plain, StepKind::Work, &work_by_label);
    for (const auto& [label, typical] : work_by_label) {
      if (label.empty()) continue;
      std::fprintf(stderr, "perfbench: work %s %.6f s\n", label.c_str(),
                   typical);
    }
    const double experiments =
        static_cast<double>(plain.front()->experiments);
    metrics.push_back({"setup_s", {setup, "s"}});
    metrics.push_back({"wall_s", {setup + work, "s"}});
    metrics.push_back({"experiments_per_s",
                       {work > 0.0 ? experiments / work : 0.0, "1/s"}});
    metrics.push_back(
        {"peak_rss_mb", {static_cast<double>(peak_rss_kb) / 1024.0, "MB"}});
  } else {
    const RoundResult& first = *with_spans.front();
    std::vector<double> traced_walls;
    std::vector<double> plain_walls;
    for (const RoundResult* round : with_spans) {
      traced_walls.push_back(wall_seconds(*round));
    }
    for (const RoundResult* round : plain) {
      plain_walls.push_back(wall_seconds(*round));
    }
    for (const MetricDef& def : per_layer_metrics()) {
      const std::string name = def.name;
      double value = 0.0;
      if (name == "trace.overhead_s") {
        value = median(traced_walls) - median(plain_walls);
      } else if (def.exact) {
        auto it = first.layers.find(name);
        value = it == first.layers.end() ? 0.0 : it->second;
        for (const RoundResult* round : with_spans) {
          auto other = round->layers.find(name);
          const double v = other == round->layers.end() ? 0.0 : other->second;
          if (v != value) {
            std::fprintf(stderr, "perfbench: %s differs between traced "
                                 "rounds (%.17g vs %.17g)\n",
                         def.name, value, v);
            failed += 1;
          }
        }
      } else {
        std::vector<double> values;
        for (const RoundResult* round : with_spans) {
          auto it = round->layers.find(name);
          values.push_back(it == round->layers.end() ? 0.0 : it->second);
        }
        value = median(values);
      }
      metrics.push_back({name, {value, def.unit}});
    }
    write_trace(run_dir + "/trace-" + workload + "-" + std::to_string(seed) +
                    ".json",
                workload, seed, tracer);
  }
  correct = failed == 0;

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json_escape(metrics[i].first).c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
