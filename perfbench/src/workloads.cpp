// The benchmark workloads. Each round builds everything it uses from
// scratch, so rounds are independent repetitions of identical work.
//
//   hot-campaign  long fixed control campaigns on warm engines (9 kernels
//                 x {AVX, SSE}), jobs 1, kernels interleaved round-robin.
//   daemon-study  an in-process vulfid on a Unix socket driven by
//                 run_study (window 1): a cold pass, warm passes with new
//                 seeds, and a summary-store reuse pass.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include "analysis/analysis_manager.hpp"
#include "bench.hpp"
#include "detect/detector_runtime.hpp"
#include "detect/foreach_detector.hpp"
#include "ir/verifier.hpp"
#include "kernels/benchmark.hpp"
#include "serve/server.hpp"
#include "study/study.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "vulfi/campaign.hpp"
#include "vulfi/fault_site.hpp"
#include "vulfi/instrument.hpp"
#include "vulfi/prune.hpp"
#include "vulfi/summary.hpp"

namespace perfbench {

namespace {

using vulfi::CampaignResult;
using vulfi::InjectionEngine;
using vulfi::analysis::FaultSiteCategory;

// Seed-derivation salts: every campaign seed is derive_stream_seed(run
// seed, salt, unit index), so one --seed fixes all of a run's inputs.
constexpr std::uint64_t kHotSalt = 0x407;
constexpr std::uint64_t kStudySalt = 0x57D7;

// Per-kernel amounts below are in Table I order (fluidanimate, swaptions,
// blackscholes, sorting, stencil, chebyshev, jacobi, cg, raytracing) and
// inverse to each kernel's per-experiment cost, so that every kernel takes
// a similar share of a workload's experiment time. Raytracing (the
// costliest, and the noisiest on a shared host) and swaptions (whose rare
// hangs, faulty runs that exhaust the 64x instruction budget, make its
// time vary most with the seed) get the smallest shares.

/// hot-campaign: 100-experiment campaigns per kernel and ISA in one round,
/// spread evenly over the round-robin passes.
constexpr unsigned kHotExperiments = 100;
constexpr unsigned kHotCampaigns[] = {64, 2, 96, 4, 16, 32, 16, 12, 2};
constexpr unsigned kHotPasses = 4;

/// daemon-study plan and passes.
constexpr unsigned kStudyWarmPasses = 3;
constexpr unsigned kStudyExperiments = 50;
constexpr unsigned kStudyCampaigns = 2;
const std::vector<std::string> kStudyBenchmarks = {"chebyshev", "stencil"};

/// Per-round tallies behind the per-layer metrics (traced rounds only).
struct Layers {
  explicit Layers(Tracer* t)
      : tracer(t), first_span(t != nullptr ? t->spans().size() : 0) {}

  Tracer* tracer = nullptr;
  std::size_t first_span = 0;  ///< this round's spans start here
  std::uint64_t instrumented_sites = 0;
  std::uint64_t dynamic_sites = 0;
  std::uint64_t experiments = 0;
  std::uint64_t faulty_runs = 0;
  std::uint64_t native_runs = 0;
  std::uint64_t fallback_runs = 0;
  double compile_s = 0.0;
  double clean_run_s = 0.0;
  std::uint64_t clean_runs = 0;
  double fallback_clean_s = 0.0;
  std::uint64_t fallback_cleans = 0;
};

struct EngineSet {
  std::vector<std::unique_ptr<InjectionEngine>> engines;
  std::vector<InjectionEngine*> pointers;
};

void fail(RoundResult& round, const std::string& message) {
  round.failed += 1;
  round.errors.push_back(message);
}

/// Traced rounds only: the engine constructor's layers, split out on a
/// pristine copy of the spec (clone, prune analyses, instrumentation,
/// verification) so each shows as its own span.
void split_constructor(const vulfi::RunSpec& spec, int cell, Layers& layers,
                       RoundResult& round) {
  Tracer* tracer = layers.tracer;
  vulfi::RunSpec pristine;
  {
    SpanGuard span(tracer, "ir.clone_spec", cell);
    pristine = vulfi::clone_spec(spec);
  }
  {
    SpanGuard span(tracer, "vulfi.prune_plan", cell);
    vulfi::analysis::AnalysisManager am;
    const std::vector<vulfi::FaultSite> sites = vulfi::enumerate_fault_sites(
        *pristine.entry, vulfi::analysis::AddressRule::GepOnly, am);
    const vulfi::PrunePlan plan =
        vulfi::build_prune_plan(*pristine.entry, sites, am);
    (void)plan;
  }
  {
    SpanGuard span(tracer, "vulfi.instrument", cell);
    vulfi::Instrumentor instrumentor;
    layers.instrumented_sites += instrumentor.run(*pristine.entry).size();
  }
  SpanGuard span(tracer, "ir.verify", cell);
  const std::vector<std::string> errors = vulfi::ir::verify(*pristine.module);
  if (!errors.empty()) {
    fail(round, "instrumented module fails verification: " + errors.front());
  }
}

/// Traced rounds only: two clean JIT runs (the first compiles) and one
/// clone, each timed on its own.
void split_runs(InjectionEngine& engine, int cell, Layers& layers,
                RoundResult& round) {
  vulfi::jit::JitExecutor* jit = nullptr;
  const Clock::time_point t0 = Clock::now();
  const bool first_ok = engine.run_clean().ok();
  const Clock::time_point t1 = Clock::now();
  jit = engine.jit_backend();
  const std::uint64_t native_before = jit != nullptr ? jit->native_runs() : 0;
  const bool second_ok = engine.run_clean().ok();
  const Clock::time_point t2 = Clock::now();
  if (!first_ok || !second_ok) fail(round, "clean run trapped");
  const bool native = jit != nullptr && jit->native_runs() > native_before;
  layers.tracer->add("jit.first_clean_run", t0, t1, cell);
  layers.tracer->add(native ? "vulfi.clean_run" : "interp.fallback_clean_run",
                     t1, t2, cell);
  layers.compile_s += seconds_between(t0, t1) - seconds_between(t1, t2);
  if (native) {
    layers.clean_run_s += seconds_between(t1, t2);
    layers.clean_runs += 1;
  } else {
    layers.fallback_clean_s += seconds_between(t1, t2);
    layers.fallback_cleans += 1;
  }
}

/// One engine per predefined input, built exactly as `vulfi campaign`
/// (and the daemon's engine cache) builds them, switched to the JIT and
/// warmed. `layers` is null in untraced rounds.
EngineSet build_engines(const vulfi::kernels::Benchmark& bench,
                        const vulfi::spmd::Target& target,
                        FaultSiteCategory category, bool detectors, int cell,
                        Layers* layers, RoundResult& round) {
  Tracer* tracer = layers != nullptr ? layers->tracer : nullptr;
  EngineSet set;
  for (unsigned input = 0; input < bench.num_inputs(); ++input) {
    vulfi::RunSpec spec;
    {
      SpanGuard span(tracer, "kernels.build", cell);
      spec = bench.build(target, input);
      if (detectors) vulfi::detect::insert_foreach_detectors(*spec.module);
    }
    if (layers != nullptr) split_constructor(spec, cell, *layers, round);
    std::unique_ptr<InjectionEngine> engine;
    {
      SpanGuard span(tracer, "vulfi.engine", cell);
      engine = std::make_unique<InjectionEngine>(std::move(spec), category);
    }
    if (detectors) {
      engine->setup_runtime([](vulfi::interp::RuntimeEnv& env,
                               vulfi::interp::DetectionLog& log) {
        vulfi::detect::attach_detector_runtime(env, log);
      });
    }
    engine->set_backend(vulfi::interp::ExecMode::Jit);
    if (layers != nullptr) split_runs(*engine, cell, *layers, round);
    {
      SpanGuard span(tracer, "vulfi.golden", cell);
      engine->warm_golden_cache();
    }
    if (layers != nullptr) {
      std::unique_ptr<InjectionEngine> replica;
      {
        SpanGuard span(tracer, "vulfi.clone", cell);
        replica = engine->clone();
      }
    }
    set.pointers.push_back(engine.get());
    set.engines.push_back(std::move(engine));
  }
  return set;
}

/// The golden run's outputs against the kernel's scalar reference, with
/// the tolerance the kernel test-suite uses (printed-output kernels are
/// parsed back from their text).
void check_outputs(const vulfi::kernels::Benchmark& bench,
                   const vulfi::spmd::Target& target, EngineSet& set,
                   RoundResult& round) {
  for (unsigned input = 0; input < set.engines.size(); ++input) {
    InjectionEngine& engine = *set.engines[input];
    const std::vector<std::uint8_t>& bytes = engine.golden().output_bytes;
    const vulfi::RunSpec& spec = engine.spec();
    const std::vector<vulfi::kernels::RegionRef> refs =
        bench.reference(target, input);
    std::size_t offset = 0;
    const std::string where =
        vulfi::strf("%s/%s input %u", bench.name().c_str(), target.name(),
                    input);
    for (const std::string& name : spec.output_regions) {
      const std::uint64_t region_bytes = spec.arena.region(name).bytes;
      const std::size_t count = region_bytes / 4;
      std::vector<float> values(count);
      std::vector<std::int32_t> ints(count);
      if (spec.f32_compare_decimals < 0) {
        if (offset + region_bytes > bytes.size()) {
          fail(round, where + ": golden output shorter than its regions");
          return;
        }
        std::memcpy(values.data(), bytes.data() + offset, count * 4);
        std::memcpy(ints.data(), bytes.data() + offset, count * 4);
        offset += region_bytes;
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          if (offset >= bytes.size()) {
            fail(round, where + ": golden output shorter than its regions");
            return;
          }
          const std::size_t end = std::find(bytes.begin() + offset,
                                            bytes.end(), '\n') -
                                  bytes.begin();
          values[i] = std::strtof(
              std::string(bytes.begin() + offset, bytes.begin() + end)
                  .c_str(),
              nullptr);
          offset = end + 1;
        }
      }
      const double printed =
          spec.f32_compare_decimals < 0
              ? 0.0
              : 0.5 * std::pow(10.0, -spec.f32_compare_decimals);
      for (const vulfi::kernels::RegionRef& ref : refs) {
        if (ref.region != name) continue;
        bool ok = ref.i32.empty() ? ref.f32.size() <= count
                                  : ref.i32.size() <= count;
        for (std::size_t i = 0; ok && i < ref.i32.size(); ++i) {
          ok = ints[i] == ref.i32[i];
        }
        for (std::size_t i = 0; ok && i < ref.f32.size(); ++i) {
          const double tolerance =
              1e-5 + 1e-4 * std::fabs(ref.f32[i]) + printed;
          ok = std::fabs(values[i] - ref.f32[i]) <= tolerance;
        }
        if (!ok) fail(round, where + ": region " + name +
                                 " differs from the scalar reference");
      }
    }
  }
}

/// One fixed-size campaign (min == max campaigns, jobs 1, JIT). Exit 4
/// ("unconverged") is the expected outcome and counts as success.
void run_fixed(EngineSet& set, unsigned experiments, unsigned campaigns,
               std::uint64_t seed, int cell, Layers* layers,
               RoundResult& round, vulfi::Fnv1a& digest) {
  vulfi::CampaignConfig config;
  config.experiments_per_campaign = experiments;
  config.min_campaigns = campaigns;
  config.max_campaigns = campaigns;
  config.seed = seed;
  config.num_threads = 1;
  config.backend = vulfi::interp::ExecMode::Jit;
  CampaignResult result;
  {
    SpanGuard span(layers != nullptr ? layers->tracer : nullptr,
                   "vulfi.campaign", cell);
    result = vulfi::run_campaigns(set.pointers, config);
  }
  round.attempted += 1;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(campaigns) * experiments;
  const int exit_code = vulfi::campaign_exit_code(result);
  if (!result.ok() || result.campaigns != campaigns ||
      result.experiments != expected ||
      result.benign + result.sdc + result.crash != expected ||
      (exit_code != vulfi::kCampaignExitConverged &&
       exit_code != vulfi::kCampaignExitUnconverged)) {
    fail(round, vulfi::strf("cell %d: campaign failed (exit %d) %s", cell,
                            exit_code, result.error.c_str()));
  }
  // Every counter except prune_memo_hits, which is indicative only.
  digest.u64(result.campaigns)
      .u64(result.experiments)
      .u64(result.benign)
      .u64(result.sdc)
      .u64(result.crash)
      .u64(result.detected_sdc)
      .u64(result.detected_total)
      .u64(result.prune_adjudicated)
      .u64(result.prune_remapped);
  round.experiments += result.throughput.experiments;
  if (layers != nullptr) {
    layers->experiments += result.experiments;
    layers->faulty_runs +=
        result.experiments - result.prune_adjudicated - result.prune_memo_hits;
  }
}

/// Golden dynamic sites and JIT run counters of a finished engine set.
void tally_engines(EngineSet& set, Layers* layers) {
  if (layers == nullptr) return;
  for (InjectionEngine* engine : set.pointers) {
    layers->dynamic_sites += engine->golden().dynamic_sites;
    if (vulfi::jit::JitExecutor* jit = engine->jit_backend()) {
      layers->native_runs += jit->native_runs();
      layers->fallback_runs += jit->fallback_runs();
    }
  }
}

/// Engine-layer metrics shared by every workload.
void engine_layers(const Layers& layers, RoundResult& round) {
  const std::map<std::string, double> totals =
      layers.tracer->total_seconds(layers.first_span);
  auto ms = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second * 1e3;
  };
  std::map<std::string, double>& out = round.layers;
  out["kernels.build_ms"] = ms("kernels.build");
  out["ir.clone_spec_ms"] = ms("ir.clone_spec");
  out["ir.verify_ms"] = ms("ir.verify");
  out["vulfi.prune_plan_ms"] = ms("vulfi.prune_plan");
  out["vulfi.instrument_ms"] = ms("vulfi.instrument");
  out["vulfi.engine_ms"] = ms("vulfi.engine");
  out["jit.compile_ms"] = layers.compile_s * 1e3;
  out["vulfi.golden_ms"] = ms("vulfi.golden");
  out["vulfi.clone_ms"] = ms("vulfi.clone");
  out["vulfi.clean_run_us"] =
      layers.clean_runs == 0 ? 0.0
                             : layers.clean_run_s * 1e6 / layers.clean_runs;
  out["interp.fallback_clean_us"] =
      layers.fallback_cleans == 0
          ? 0.0
          : layers.fallback_clean_s * 1e6 / layers.fallback_cleans;
  out["vulfi.campaign_ms"] = ms("vulfi.campaign");
  out["vulfi.faulty_run_us"] =
      layers.faulty_runs == 0
          ? 0.0
          : ms("vulfi.campaign") * 1e3 / static_cast<double>(layers.faulty_runs);
  out["vulfi.instrumented_sites"] =
      static_cast<double>(layers.instrumented_sites);
  out["vulfi.faulty_runs"] = static_cast<double>(layers.faulty_runs);
  out["vulfi.prune_skip_frac"] =
      layers.experiments == 0
          ? 0.0
          : 1.0 - static_cast<double>(layers.faulty_runs) /
                      static_cast<double>(layers.experiments);
  out["vulfi.dynamic_sites"] = static_cast<double>(layers.dynamic_sites);
  out["jit.native_runs"] = static_cast<double>(layers.native_runs);
  out["jit.fallback_runs"] = static_cast<double>(layers.fallback_runs);
  const std::uint64_t runs = layers.native_runs + layers.fallback_runs;
  out["jit.native_frac"] =
      runs == 0 ? 0.0
                : static_cast<double>(layers.native_runs) /
                      static_cast<double>(runs);
}

// --- hot-campaign -----------------------------------------------------------

RoundResult hot_campaign(const RoundContext& ctx) {
  RoundResult round;
  Layers layers(ctx.tracer);
  Layers* traced = ctx.tracer != nullptr ? &layers : nullptr;
  vulfi::Fnv1a digest;
  const auto& benches = vulfi::kernels::all_benchmarks();
  const vulfi::spmd::Target targets[] = {vulfi::spmd::Target::avx(),
                                         vulfi::spmd::Target::sse4()};
  StepClock clock(round);
  std::vector<EngineSet> sets;
  for (const vulfi::spmd::Target& target : targets) {
    for (const vulfi::kernels::Benchmark* bench : benches) {
      sets.push_back(build_engines(*bench, target, FaultSiteCategory::Control,
                                   false, static_cast<int>(sets.size()),
                                   traced, round));
      clock.mark(StepKind::Setup, bench->name());
    }
  }
  if (ctx.round == 0) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      check_outputs(*benches[s % benches.size()], targets[s / benches.size()],
                    sets[s], round);
    }
    clock.mark(StepKind::Check);
  }
  for (unsigned pass = 0; pass < kHotPasses; ++pass) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const unsigned total = kHotCampaigns[s % benches.size()];
      const unsigned campaigns =
          total * (pass + 1) / kHotPasses - total * pass / kHotPasses;
      if (campaigns == 0) continue;
      const std::uint64_t unit = pass * sets.size() + s;
      run_fixed(sets[s], kHotExperiments, campaigns,
                vulfi::derive_stream_seed(ctx.seed, kHotSalt, unit),
                static_cast<int>(s), traced, round, digest);
      clock.mark(StepKind::Work, benches[s % benches.size()]->name());
    }
  }
  for (EngineSet& set : sets) tally_engines(set, traced);
  sets.clear();
  clock.mark(StepKind::Work);
  if (traced != nullptr) engine_layers(layers, round);
  round.digest = digest.value();
  return round;
}

// --- daemon-study -----------------------------------------------------------

std::optional<vulfi::study::StudyPlan> study_plan(std::uint64_t seed,
                                                  std::string* error) {
  vulfi::study::StudyPlanConfig config;
  config.benchmarks = kStudyBenchmarks;
  config.widths = {8, 16};
  config.isas = {"avx"};
  config.categories = {"control"};
  config.detectors_off = true;
  config.detectors_on = true;
  config.base.experiments = kStudyExperiments;
  config.base.min_campaigns = kStudyCampaigns;
  config.base.max_campaigns = kStudyCampaigns;
  config.base.seed = seed;
  config.base.jobs = 2;
  config.base.backend = "jit";
  return vulfi::study::StudyPlan::make(config, error);
}

/// p50 of a width's daemon cell latencies and their number. A round has
/// too few cells per width (16) for a higher percentile to leave ten
/// samples above it, so none is reported.
void cell_latency(std::vector<double> samples, const std::string& prefix,
                  std::map<std::string, double>& out) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out[prefix + ".p50"] = n == 0 ? 0.0 : samples[(n - 1) / 2];
  out[prefix + ".n"] = static_cast<double>(n);
}

RoundResult daemon_study(const RoundContext& ctx) {
  RoundResult round;
  Tracer* tracer = ctx.tracer;
  Layers layers(tracer);  // engine layers of the split probes below
  vulfi::Fnv1a digest;
  StepClock clock(round);
  const std::string dir = ctx.run_dir + vulfi::strf("/study%u", ctx.round);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir + "/store", ec);
  clock.mark(StepKind::Check);

  vulfi::serve::ServerConfig server_config;
  server_config.socket_path = dir + "/vulfid.sock";
  server_config.workers = 1;
  vulfi::serve::CampaignServer server(server_config);
  std::string error;
  bool started = false;
  {
    SpanGuard span(tracer, "serve.start");
    started = server.start(&error);
  }
  clock.mark(StepKind::Setup);
  if (!started) {
    fail(round, "server start: " + error);
    return round;
  }

  // Cell latency: window 1 runs cells one at a time, so a cell spans from
  // the previous cell's completion to its own.
  std::mutex mutex;
  std::vector<std::pair<Clock::time_point, vulfi::study::StudyCellOutcome>>
      finished;
  std::map<unsigned, std::vector<double>> cell_ms;  // by vector width
  std::uint64_t streamed = 0;
  double report_s = 0.0;
  double cold_s = 0.0, warm_s = 0.0, reuse_s = 0.0;
  std::uint64_t new_experiments = 0, from_store = 0;
  std::vector<std::string> journals;
  std::string last_warm_report;
  unsigned cells = 0;

  const unsigned passes = kStudyWarmPasses + 2;  // cold, warm..., reuse
  for (unsigned pass = 0; pass < passes; ++pass) {
    const bool cold = pass == 0;
    const bool reuse = pass == passes - 1;
    const std::uint64_t base_seed = vulfi::derive_stream_seed(
        ctx.seed, kStudySalt, reuse ? pass - 1 : pass);
    const std::optional<vulfi::study::StudyPlan> plan =
        study_plan(base_seed, &error);
    if (!plan) {
      fail(round, "study plan: " + error);
      break;
    }
    cells = static_cast<unsigned>(plan->cells().size());
    vulfi::study::StudyOptions options;
    options.socket = server_config.socket_path;
    options.window = 1;
    options.retry.attempts = 5;
    options.retry.base_ms = 50;
    options.journal_path = dir + vulfi::strf("/journal%u.jsonl", pass);
    options.journal_sync = vulfi::JournalSync::Batch;
    options.summaries_dir = dir + "/store";
    options.on_cell = [&](const vulfi::study::StudyCellOutcome& outcome) {
      const std::lock_guard<std::mutex> lock(mutex);
      finished.push_back({Clock::now(), outcome});
    };
    journals.push_back(options.journal_path);
    finished.clear();

    const vulfi::serve::EngineCacheStats before = server.cache().stats();
    const Clock::time_point start = Clock::now();
    const int pass_span = tracer != nullptr
                              ? tracer->open(cold    ? "study.cold_pass"
                                             : reuse ? "study.reuse_pass"
                                                     : "study.warm_pass",
                                             -1)
                              : -1;
    const vulfi::study::StudyResult result =
        vulfi::study::run_study(*plan, options);
    if (tracer != nullptr) tracer->close(pass_span);
    const Clock::time_point end = Clock::now();
    const vulfi::serve::EngineCacheStats after = server.cache().stats();
    (cold ? cold_s : reuse ? reuse_s : warm_s) += seconds_between(start, end);

    // One step per cell, then the pass's remainder (report rendering).
    Clock::time_point previous = start;
    for (const auto& [when, outcome] : finished) {
      if (tracer != nullptr) {
        tracer->add("study.cell", previous, when,
                    static_cast<int>(pass * cells));
      }
      if (outcome.source == "daemon") {
        cell_ms[outcome.cell.vl].push_back(seconds_between(previous, when) *
                                           1e3);
        streamed += outcome.counts.campaigns;
      }
      clock.mark(cold ? StepKind::Setup : StepKind::Work,
                 vulfi::strf("vl%u", outcome.cell.vl), when);
      previous = when;
    }

    round.attempted += cells;
    new_experiments += result.new_experiments;
    from_store += result.cells_from_store;
    if (!result.complete() || !result.error.empty() ||
        (result.exit_code != vulfi::kCampaignExitConverged &&
         result.exit_code != vulfi::kCampaignExitUnconverged)) {
      fail(round, vulfi::strf("study pass %u: exit %d %s", pass,
                              result.exit_code, result.error.c_str()));
    }
    const std::uint64_t want_experiments =
        reuse ? 0
              : static_cast<std::uint64_t>(cells) * kStudyExperiments *
                    kStudyCampaigns;
    if (result.new_experiments != want_experiments) {
      fail(round, vulfi::strf("study pass %u: %llu new experiments, want %llu",
                              pass,
                              static_cast<unsigned long long>(
                                  result.new_experiments),
                              static_cast<unsigned long long>(
                                  want_experiments)));
    }
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    const bool cache_ok = reuse   ? hits + misses == 0
                          : cold  ? misses == cells && hits == 0
                                  : hits == cells && misses == 0;
    if (!cache_ok || (reuse && result.cells_from_store != cells)) {
      fail(round, vulfi::strf("study pass %u: %llu cache hits, %llu misses, "
                              "%u cells from the store",
                              pass, static_cast<unsigned long long>(hits),
                              static_cast<unsigned long long>(misses),
                              result.cells_from_store));
    }
    if (!cold) round.experiments += result.new_experiments;

    std::string report;
    {
      SpanGuard span(tracer, "study.report");
      const Clock::time_point report_start = Clock::now();
      report = vulfi::study::study_report_json(*plan, result);
      const std::string markdown =
          vulfi::study::study_report_markdown(*plan, result);
      const std::string csv = vulfi::study::study_report_csv(*plan, result);
      if (markdown.empty() || csv.empty()) fail(round, "empty study report");
      report_s += seconds_between(report_start, Clock::now());
    }
    if (reuse) {
      if (report != last_warm_report) {
        fail(round, "reuse pass report differs from the last warm pass");
      }
    } else {
      digest.str(report);
      if (!cold) last_warm_report = report;
    }
    clock.mark(cold ? StepKind::Setup : StepKind::Work);
  }

  const vulfi::serve::EngineCacheStats stats = server.cache().stats();
  {
    SpanGuard span(tracer, "serve.shutdown");
    server.request_shutdown();
    server.wait();
  }
  clock.mark(StepKind::Work);

  if (tracer != nullptr) {
    std::map<std::string, double>& out = round.layers;
    out["serve.cache_hits"] = static_cast<double>(stats.hits);
    out["serve.cache_misses"] = static_cast<double>(stats.misses);
    out["serve.cache_entries"] = static_cast<double>(stats.entries);
    out["serve.records"] = static_cast<double>(streamed);
    out["study.cold_pass_s"] = cold_s;
    out["study.warm_pass_s"] = warm_s / kStudyWarmPasses;
    out["study.reuse_pass_s"] = reuse_s;
    out["study.new_experiments"] = static_cast<double>(new_experiments);
    out["study.cells_from_store"] = static_cast<double>(from_store);
    out["study.report_ms"] = report_s * 1e3;
    cell_latency(cell_ms[8], "study.cell_ms.vl8", out);
    cell_latency(cell_ms[16], "study.cell_ms.vl16", out);

    // Extra calls, traced rounds only: journal recovery, a read-only
    // store open, and the engine layers of every cell shape, split.
    std::uint64_t records = 0, bytes = 0;
    double recover_s = 0.0;
    for (const std::string& path : journals) {
      SpanGuard span(tracer, "support.recover_journal");
      const Clock::time_point t = Clock::now();
      const vulfi::JournalRecovery recovery = vulfi::recover_journal(path);
      recover_s += seconds_between(t, Clock::now());
      records += recovery.records.size();
      bytes += recovery.valid_bytes;
    }
    out["support.journal_records"] = static_cast<double>(records);
    out["support.journal_bytes"] = static_cast<double>(bytes);
    out["support.journal_recover_ms"] = recover_s * 1e3;
    vulfi::SummaryStore store;
    const Clock::time_point t = Clock::now();
    bool opened = false;
    {
      SpanGuard span(tracer, "vulfi.summary_open");
      opened = store.open_read_only(dir + "/store", &error);
    }
    out["vulfi.summary_open_ms"] = seconds_between(t, Clock::now()) * 1e3;
    if (!opened) fail(round, "summary store open: " + error);
    out["vulfi.summary_records"] = static_cast<double>(store.records().size());

    std::string plan_error;
    const std::optional<vulfi::study::StudyPlan> plan =
        study_plan(0, &plan_error);
    std::map<unsigned, std::uint64_t> fallback_by_width;
    for (std::size_t c = 0; plan && c < plan->cells().size(); ++c) {
      const vulfi::study::StudyCell& cell = plan->cells()[c];
      const vulfi::kernels::Benchmark* bench =
          vulfi::kernels::find_benchmark(cell.benchmark);
      vulfi::spmd::Target target = vulfi::spmd::Target::avx();
      target.vector_width = cell.vl;
      EngineSet set = build_engines(*bench, target, FaultSiteCategory::Control,
                                    cell.detectors, static_cast<int>(c),
                                    &layers, round);
      check_outputs(*bench, target, set, round);
      const std::uint64_t fallbacks_before = layers.fallback_runs;
      tally_engines(set, &layers);
      fallback_by_width[cell.vl] += layers.fallback_runs - fallbacks_before;
    }
    engine_layers(layers, round);
    out["jit.fallback_runs.vl8"] =
        static_cast<double>(fallback_by_width[8]);
    out["jit.fallback_runs.vl16"] =
        static_cast<double>(fallback_by_width[16]);
    // Only the split probes ran campaigns-free engines here; the cells'
    // campaigns ran inside the daemon at jobs 2.
    out["vulfi.campaign_ms"] = 0.0;
    out["vulfi.faulty_run_us"] = 0.0;
    clock.mark(StepKind::Work);
  }

  std::filesystem::remove_all(dir, ec);
  clock.mark(StepKind::Check);
  round.digest = digest.value();
  return round;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hot-campaign",
                                                 "daemon-study"};
  return names;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"kernels.build_ms", "ms"},
      {"ir.clone_spec_ms", "ms"},
      {"ir.verify_ms", "ms"},
      {"vulfi.prune_plan_ms", "ms"},
      {"vulfi.instrument_ms", "ms"},
      {"vulfi.engine_ms", "ms"},
      {"jit.compile_ms", "ms"},
      {"vulfi.golden_ms", "ms"},
      {"vulfi.clone_ms", "ms"},
      {"vulfi.clean_run_us", "us"},
      {"interp.fallback_clean_us", "us"},
      {"vulfi.campaign_ms", "ms"},
      {"vulfi.faulty_run_us", "us"},
      {"vulfi.instrumented_sites", "count", true},
      {"vulfi.faulty_runs", "count", true},
      {"vulfi.prune_skip_frac", "frac", true},
      {"vulfi.dynamic_sites", "count", true},
      {"jit.native_runs", "count", true},
      {"jit.fallback_runs", "count", true},
      {"jit.fallback_runs.vl8", "count", true},
      {"jit.fallback_runs.vl16", "count", true},
      {"jit.native_frac", "frac", true},
      {"study.cell_ms.vl8.p50", "ms"},
      {"study.cell_ms.vl8.n", "count", true},
      {"study.cell_ms.vl16.p50", "ms"},
      {"study.cell_ms.vl16.n", "count", true},
      {"serve.cache_hits", "count", true},
      {"serve.cache_misses", "count", true},
      {"serve.cache_entries", "count", true},
      {"serve.records", "count", true},
      {"study.cold_pass_s", "s"},
      {"study.warm_pass_s", "s"},
      {"study.reuse_pass_s", "s"},
      {"study.new_experiments", "count", true},
      {"study.cells_from_store", "count", true},
      {"study.report_ms", "ms"},
      {"support.journal_records", "count", true},
      {"support.journal_bytes", "count", true},
      {"support.journal_recover_ms", "ms"},
      {"vulfi.summary_open_ms", "ms"},
      {"vulfi.summary_records", "count", true},
      {"trace.overhead_s", "s"},
  };
  return metrics;
}

RoundResult run_round(const std::string& workload, const RoundContext& ctx) {
  if (workload == "hot-campaign") return hot_campaign(ctx);
  return daemon_study(ctx);
}

}  // namespace perfbench
