// The benchmark program: runs one named workload through the public API
// of the checker, the MBTC pipeline and MBTCG, checks the outputs against
// facts computed apart from the code under test, and prints one JSON
// result line. perfbench/run.py builds it and passes the arguments; see
// perfbench/README.md for the workloads and what each metric means.
//
//   xbench --workload NAME --seed N --seconds S --trace 0|1
//          [--reference FILE] [--out-dir DIR] [--spawn-ns NS]
//
// Untraced (--trace 0): set-up, then whole rounds of the workload's
// operations until S seconds have passed (at least two rounds, three for
// check_budget); prints the end-to-end metrics. Traced (--trace 1): set-up, an untraced round, one
// round with every call into a layer timed as a span, a second untraced
// round to price the tracing, then the spec and fingerprint-set probes on
// a seeded sample of states; prints the per-layer metrics and writes the
// spans to DIR.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mbtcg/generator.h"
#include "mbtcg/testcase.h"
#include "otgo/go_merge.h"
#include "repl/replica_set.h"
#include "repl/rollback_fuzzer.h"
#include "repl/scenarios.h"
#include "specs/array_ot_spec.h"
#include "specs/raft_mongo_spec.h"
#include "tlax/checker.h"
#include "tlax/fpset.h"
#include "tlax/tla_text.h"
#include "tlax/trace_check.h"
#include "tlax/value.h"
#include "trace/event_processor.h"
#include "trace/mbtc_pipeline.h"
#include "trace/trace_event.h"
#include "trace/trace_logger.h"

namespace {

using namespace xmodel;  // NOLINT — benchmark program only.

// ---------------------------------------------------------------------------
// Clocks and resource readings.

int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(MonotonicNs() - start_ns) * 1e-9;
}

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Current anonymous resident memory (RssAnon) in bytes. File-backed
/// pages, such as mapped spill runs, are page cache and not counted.
uint64_t RssAnonBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Samples RssAnon every few milliseconds on its own thread and keeps the
/// peak. Runs for the lifetime of the object.
class PeakRssSampler {
 public:
  PeakRssSampler() : peak_(RssAnonBytes()), thread_([this] { Loop(); }) {}
  ~PeakRssSampler() {
    stop_.store(true);
    thread_.join();
  }
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  double PeakMb() const {
    return static_cast<double>(std::max(peak_.load(), RssAnonBytes())) / 1e6;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      const uint64_t now = RssAnonBytes();
      if (now > peak_.load()) peak_.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_;
  std::thread thread_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Spans: one per call the traced round makes into a layer, kept in memory
// and written out when the run ends.

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Records a span from construction to destruction. Nested scopes on
  /// the same tracer become children of the enclosing one.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          Span{std::move(name), MonotonicNs(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Scope() {
      Span& span = tracer_->spans_[static_cast<size_t>(index_)];
      span.end_ns = MonotonicNs();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = 0;
  };

  /// Total seconds of every closed span named `name`.
  double TotalSeconds(const std::string& name) const {
    double total = 0;
    for (const Span& span : spans_) {
      if (span.name == name && span.end_ns > 0) {
        total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    return total;
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": "
          << s.end_ns << ", \"parent\": " << s.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Times a block as a span when a tracer is given; a no-op otherwise.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, const char* name) {
    if (tracer != nullptr) scope_.emplace(tracer, name);
  }

 private:
  std::optional<Tracer::Scope> scope_;
};

// ---------------------------------------------------------------------------
// Metrics.

/// The per-layer metrics of the traced run, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"check.outside_s", "s"},
      {"check.reported_s", "s"},
      {"check.states_generated", "count"},
      {"check.states_distinct", "count"},
      {"level.busy_ms", "ms"},
      {"level.barrier_wait_ms", "ms"},
      {"level.settle_ms", "ms"},
      {"level.idle_fraction", "fraction"},
      {"relaxed.steals", "count"},
      {"relaxed.steal_ms", "ms"},
      {"relaxed.starve_ms", "ms"},
      {"relaxed.idle_fraction", "fraction"},
      {"spill.generations", "count"},
      {"spill.compactions", "count"},
      {"spill.written_mb", "MB"},
      {"spill.probe_ms", "ms"},
      {"spill.merge_ms", "ms"},
      {"spill.cache_hit_ratio", "ratio"},
      {"spill.frontier_segments", "count"},
      {"value.intern_misses", "count"},
      {"value.intern_hit_ratio", "ratio"},
      {"specs.expand_ns_per_state", "ns"},
      {"specs.invariants_ns_per_state", "ns"},
      {"specs.constraint_ns_per_state", "ns"},
      {"fpset.insert_ns_w1", "ns"},
      {"fpset.insert_ns_w4", "ns"},
      {"trace.merge_s", "s"},
      {"trace.process_s", "s"},
      {"trace.module_text_s", "s"},
      {"trace.module_mb", "MB"},
      {"trace_check.s", "s"},
      {"trace_check.states_explored", "count"},
      {"repl.sim_s", "s"},
      {"mbtcg.model_check_s", "s"},
      {"mbtcg.extract_s", "s"},
      {"ot.run_s", "s"},
      {"otgo.run_s", "s"},
      {"tracing.overhead_s", "s"},
  };
  return kMetrics;
}

using MetricValues = std::map<std::string, double>;

/// Whether a round's outputs were right, and how many of its operations
/// were attempted and failed.
struct RoundOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string error;

  void Fail(std::string message) {
    if (correct) error = std::move(message);
    correct = false;
  }
};

// Worker count for every exploration and trace check (the container this
// benchmark was sized on has 4 cores).
constexpr int kWorkers = 4;

void AddCheckMetrics(const tlax::CheckResult& r, double call_seconds,
                     MetricValues* m) {
  (*m)["check.outside_s"] += call_seconds - r.seconds;
  (*m)["check.reported_s"] += r.seconds;
  (*m)["check.states_generated"] += static_cast<double>(r.generated_states);
  (*m)["check.states_distinct"] += static_cast<double>(r.distinct_states);
  auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  };
  if (r.policy_used == tlax::ExplorationPolicy::kLevelSync) {
    (*m)["level.busy_ms"] += sum(r.worker_busy_ms);
    (*m)["level.barrier_wait_ms"] += sum(r.worker_barrier_wait_ms);
    (*m)["level.settle_ms"] += r.barrier_settle_ms;
    (*m)["level.idle_fraction"] = r.barrier_idle_fraction;
  } else {
    uint64_t steals = 0;
    for (uint64_t s : r.worker_steals) steals += s;
    (*m)["relaxed.steals"] += static_cast<double>(steals);
    (*m)["relaxed.steal_ms"] += sum(r.worker_steal_ms);
    (*m)["relaxed.starve_ms"] += sum(r.worker_starve_ms);
    (*m)["relaxed.idle_fraction"] = r.idle_fraction;
  }
  (*m)["spill.generations"] += static_cast<double>(r.spill_generations);
  (*m)["spill.compactions"] += static_cast<double>(r.spill_compactions);
  (*m)["spill.written_mb"] += static_cast<double>(r.spill_bytes) / 1e6;
  (*m)["spill.probe_ms"] += r.spill_probe_ms;
  (*m)["spill.merge_ms"] += r.spill_merge_ms;
  (*m)["spill.cache_hit_ratio"] =
      Ratio(static_cast<double>(r.spill_cache_hits),
            static_cast<double>(r.spill_cache_hits + r.spill_cache_misses));
  (*m)["spill.frontier_segments"] += static_cast<double>(r.frontier_segments);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed. Returns an error message or "".
  /// Under a tracer, calls into the program's layers are spans.
  virtual std::string Setup(uint64_t seed, Tracer* tracer) = 0;
  /// One round of the timed operations, checked.
  virtual RoundOutcome Round() = 0;
  /// The same round called layer by layer, each call a span; fills the
  /// layer metrics the round touches.
  virtual RoundOutcome TracedRound(Tracer* tracer, MetricValues* m) = 0;
  /// The spec whose actions, invariants and constraint the probes time.
  virtual const tlax::Spec& ProbeSpec() const = 0;
  /// Rounds a run makes at least, however short --seconds is.
  virtual size_t MinRounds() const { return 2; }
};

// -- check_ram / check_budget ------------------------------------------------

/// Distinct/generated/diameter/verdict of the check_* spec, as remade by
/// naive_bfs and committed beside it.
struct ReferenceCounts {
  uint64_t distinct = 0;
  uint64_t generated = 0;
  int64_t diameter = 0;
  std::string verdict;
};

/// Reads a value from the flat one-object JSON naive_bfs writes.
std::optional<std::string> JsonField(const std::string& text,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos < text.size() && text[pos] == '"') {
    const size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) return std::nullopt;
    return text.substr(pos + 1, end - pos - 1);
  }
  const size_t end = text.find_first_of(",}", pos);
  if (end == std::string::npos) return std::nullopt;
  return text.substr(pos, end - pos);
}

class CheckWorkload : public Workload {
 public:
  CheckWorkload(bool budget, std::string reference_path, std::string out_dir)
      : budget_(budget),
        reference_path_(std::move(reference_path)),
        out_dir_(std::move(out_dir)) {}

  std::string Setup(uint64_t /*seed*/, Tracer* /*tracer*/) override {
    specs::RaftMongoConfig config;
    config.variant = specs::RaftMongoVariant::kDetailed;
    config.num_nodes = 3;
    config.max_term = 3;
    config.max_oplog_len = 3;
    spec_ = std::make_unique<specs::RaftMongoSpec>(config);

    std::ifstream in(reference_path_);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    auto distinct = JsonField(json, "distinct");
    auto generated = JsonField(json, "generated");
    auto diameter = JsonField(json, "diameter");
    auto verdict = JsonField(json, "verdict");
    if (!distinct || !generated || !diameter || !verdict) {
      return "cannot read reference counts from " + reference_path_;
    }
    if (JsonField(json, "nodes") != "3" ||
        JsonField(json, "max_term") != "3" ||
        JsonField(json, "max_oplog_len") != "3") {
      return "reference counts describe another configuration";
    }
    reference_.distinct = std::strtoull(distinct->c_str(), nullptr, 10);
    reference_.generated = std::strtoull(generated->c_str(), nullptr, 10);
    reference_.diameter = std::strtoll(diameter->c_str(), nullptr, 10);
    reference_.verdict = *verdict;

    options_.num_workers = kWorkers;
    if (budget_) {
      options_.exploration = tlax::ExplorationPolicy::kRelaxed;
      options_.memory_budget_mb = 16;
      options_.spill_dir =
          out_dir_ + "/spill-" + std::to_string(static_cast<long>(getpid()));
    }
    return "";
  }

  RoundOutcome Round() override {
    return Verify(tlax::ModelChecker(options_).Check(*spec_));
  }

  RoundOutcome TracedRound(Tracer* tracer, MetricValues* m) override {
    tlax::CheckResult result;
    {
      Tracer::Scope span(tracer, "tlax.ModelChecker::Check");
      result = tlax::ModelChecker(options_).Check(*spec_);
    }
    AddCheckMetrics(result, tracer->TotalSeconds("tlax.ModelChecker::Check"),
                    m);
    return Verify(std::move(result));
  }

  const tlax::Spec& ProbeSpec() const override { return *spec_; }

  // Under the budget a check's peak memory takes one of two values (see
  // the main loop); three rounds keep the mean of the peaks steady.
  size_t MinRounds() const override { return budget_ ? 3 : 2; }

 private:
  RoundOutcome Verify(tlax::CheckResult result) {
    if (!options_.spill_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(options_.spill_dir, ec);
    }
    RoundOutcome out;
    out.attempted = 1;
    if (!result.status.ok()) {
      out.failed = 1;
      out.Fail("check failed: " + result.status.ToString());
      return out;
    }
    const std::string verdict =
        result.violation.has_value() ? result.violation->kind : "none";
    if (result.distinct_states != reference_.distinct ||
        result.generated_states != reference_.generated ||
        verdict != reference_.verdict ||
        // The relaxed policy reports the diameter approximately.
        (!result.order_fields_approximate &&
         result.diameter != reference_.diameter)) {
      out.Fail("check counts differ from the naive-BFS reference: distinct " +
               std::to_string(result.distinct_states) + " generated " +
               std::to_string(result.generated_states) + " diameter " +
               std::to_string(result.diameter) + " verdict " + verdict);
    }
    if (budget_ && result.spill_generations == 0) {
      out.Fail("the memory budget never made the checker spill");
    }
    return out;
  }

  bool budget_;
  std::string reference_path_;
  std::string out_dir_;
  std::unique_ptr<specs::RaftMongoSpec> spec_;
  ReferenceCounts reference_;
  tlax::CheckerOptions options_;
};

// -- mbtc_fuzz -----------------------------------------------------------------

// Four mitigated rollback-fuzzer runs, each cut to the same number of
// events so that every seed gives the pipeline the same amount of input.
constexpr int kFuzzRuns = 4;
constexpr size_t kEventsPerFuzzRun = 2250;
// About 0.18 events per step: 14,000 steps log fewer than 2,250 events on
// roughly one seed in twenty.
constexpr int kFuzzSteps = 14000;
constexpr uint64_t kMaxFuzzAttempts = 16;

struct TraceInput {
  std::string name;
  int num_nodes = 3;
  std::vector<std::vector<std::string>> log_files;
  bool expect_accepted = true;
};

/// Keeps the first `max_events` events of the merged log: every line whose
/// timestamp is at most the max_events-th smallest timestamp. Timestamps
/// are distinct across nodes (the logger's clock-tick wait), so exactly
/// max_events lines remain, and a prefix of a behaviour is a behaviour.
/// Returns the number of events before the cut; fewer than max_events
/// leaves the files untouched.
size_t CutToEvents(std::vector<std::vector<std::string>>* files,
                   size_t max_events) {
  std::vector<std::vector<int64_t>> stamps(files->size());
  std::vector<int64_t> all;
  for (size_t n = 0; n < files->size(); ++n) {
    for (const std::string& line : (*files)[n]) {
      auto event = trace::TraceEvent::FromJsonLine(line);
      if (!event.ok()) return 0;
      stamps[n].push_back(event->timestamp_ms);
      all.push_back(event->timestamp_ms);
    }
  }
  if (all.size() < max_events) return all.size();
  std::nth_element(all.begin(), all.begin() + (max_events - 1), all.end());
  const int64_t last = all[max_events - 1];
  for (size_t n = 0; n < files->size(); ++n) {
    std::vector<std::string> kept;
    for (size_t i = 0; i < stamps[n].size(); ++i) {
      if (stamps[n][i] <= last) kept.push_back((*files)[n][i]);
    }
    (*files)[n] = std::move(kept);
  }
  return all.size();
}

class MbtcWorkload : public Workload {
 public:
  std::string Setup(uint64_t seed, Tracer* tracer) override {
    for (int k = 0; k < kFuzzRuns; ++k) {
      // A run that logs too few events is replaced by one with the next
      // fuzzer seed, so every workload seed gets kFuzzRuns full inputs.
      for (uint64_t attempt = 0;; ++attempt) {
        if (attempt == kMaxFuzzAttempts) {
          return "no fuzzer run logged " + std::to_string(kEventsPerFuzzRun) +
                 " events";
        }
        repl::RollbackFuzzerOptions options;
        options.seed = (seed * kFuzzRuns + static_cast<uint64_t>(k)) *
                           kMaxFuzzAttempts + attempt + 1;
        options.num_steps = kFuzzSteps;
        options.sync_all_before_writes = true;
        options.avoid_unclean_restarts = true;
        options.avoid_two_leaders = true;
        repl::ReplicaSet rs(options.config);
        trace::TraceLogger logger(&rs.clock());
        rs.AttachTraceSink(&logger);
        {
          MaybeSpan span(tracer, "repl.RollbackFuzzer::Run");
          repl::RollbackFuzzer(options).Run(&rs);
        }
        TraceInput input;
        input.name = "fuzzer-seed-" + std::to_string(options.seed);
        input.num_nodes = rs.num_nodes();
        input.log_files = logger.LogFiles(rs.num_nodes());
        if (CutToEvents(&input.log_files, kEventsPerFuzzRun) >=
            kEventsPerFuzzRun) {
          inputs_.push_back(std::move(input));
          break;
        }
      }
    }
    for (const repl::Scenario& scenario : repl::BaseScenarios()) {
      if (scenario.uses_arbiters) continue;  // Tracing crashes arbiters.
      repl::ReplicaSet rs(scenario.config);
      trace::TraceLogger logger(&rs.clock());
      rs.AttachTraceSink(&logger);
      common::Status status;
      {
        MaybeSpan span(tracer, "repl.Scenario::run");
        status = scenario.run(rs);
      }
      if (!status.ok()) {
        return "scenario " + scenario.name + " failed: " + status.ToString();
      }
      TraceInput input;
      input.name = scenario.name;
      input.num_nodes = rs.num_nodes();
      input.log_files = logger.LogFiles(rs.num_nodes());
      // Built to exhibit the paper's two discrepancies (§4.2.2).
      input.expect_accepted = scenario.name != "two_leaders_briefly" &&
                              scenario.name != "initial_sync_quorum_bug";
      inputs_.push_back(std::move(input));
    }
    for (const TraceInput& input : inputs_) {
      if (specs_.count(input.num_nodes) != 0) continue;
      specs::RaftMongoConfig config;
      config.variant = specs::RaftMongoVariant::kDetailed;
      config.num_nodes = input.num_nodes;
      config.max_term = 1'000'000;  // Traces are checked unbounded.
      config.max_oplog_len = 1'000'000;
      specs_.emplace(input.num_nodes,
                     std::make_unique<specs::RaftMongoSpec>(config));
    }
    // mbtc_check's defaults, with the trace checker on kWorkers workers.
    options_.checker.allow_stuttering = true;
    options_.checker.num_workers = kWorkers;
    return "";
  }

  RoundOutcome Round() override {
    RoundOutcome out;
    for (const TraceInput& input : inputs_) {
      trace::MbtcPipeline pipeline(specs_.at(input.num_nodes).get(),
                                   options_);
      const trace::MbtcReport report = pipeline.Run(input.log_files);
      Verify(input, report.status, report.num_events, report.num_states,
             report.check.ok(), &out);
    }
    return out;
  }

  RoundOutcome TracedRound(Tracer* tracer, MetricValues* m) override {
    RoundOutcome out;
    for (const TraceInput& input : inputs_) {
      const specs::RaftMongoSpec& spec = *specs_.at(input.num_nodes);
      common::Result<std::vector<trace::TraceEvent>> merged =
          common::Status::Internal("not run");
      {
        Tracer::Scope span(tracer, "trace.MergeLogs");
        merged = trace::MergeLogs(input.log_files);
      }
      if (!merged.ok()) {
        Verify(input, merged.status(), 0, 0, false, &out);
        continue;
      }
      trace::EventProcessorOptions processor_options = options_.processor;
      processor_options.num_nodes = input.num_nodes;
      trace::ProcessedTrace processed;
      {
        Tracer::Scope span(tracer, "trace.EventProcessor::Process");
        processed = trace::EventProcessor(processor_options).Process(*merged);
      }
      if (!processed.ok()) {
        Verify(input, processed.status, merged->size(), 0, false, &out);
        continue;
      }
      std::vector<tlax::TraceState> states;
      std::string module;
      {
        Tracer::Scope span(tracer, "tlax.TraceModuleText");
        states = trace::MbtcPipeline::ToTraceStates(processed.states);
        module = tlax::TraceModuleText("Trace", spec.variables(), states);
      }
      (*m)["trace.module_mb"] += static_cast<double>(module.size()) / 1e6;
      tlax::TraceCheckResult check;
      {
        Tracer::Scope span(tracer, "tlax.TraceChecker::Check");
        check = tlax::TraceChecker(options_.checker).Check(spec, states);
      }
      (*m)["trace_check.states_explored"] +=
          static_cast<double>(check.states_explored);
      Verify(input, common::Status::OK(), merged->size(),
             processed.states.size(), check.ok(), &out);
    }
    (*m)["trace.merge_s"] = tracer->TotalSeconds("trace.MergeLogs");
    (*m)["trace.process_s"] =
        tracer->TotalSeconds("trace.EventProcessor::Process");
    (*m)["trace.module_text_s"] = tracer->TotalSeconds("tlax.TraceModuleText");
    (*m)["trace_check.s"] = tracer->TotalSeconds("tlax.TraceChecker::Check");
    (*m)["repl.sim_s"] = tracer->TotalSeconds("repl.RollbackFuzzer::Run") +
                         tracer->TotalSeconds("repl.Scenario::run");
    return out;
  }

  const tlax::Spec& ProbeSpec() const override { return *specs_.at(3); }

 private:
  static void Verify(const TraceInput& input, const common::Status& status,
                     uint64_t events, size_t states, bool accepted,
                     RoundOutcome* out) {
    ++out->attempted;
    if (!status.ok()) {
      ++out->failed;
      out->Fail(input.name + ": pipeline error " + status.ToString());
      return;
    }
    if (states != events + 1) {
      out->Fail(input.name + ": " + std::to_string(states) +
                " processed states for " + std::to_string(events) +
                " events");
    }
    if (accepted != input.expect_accepted) {
      out->Fail(input.name + (accepted ? " was accepted" : " was rejected"));
    }
  }

  std::vector<TraceInput> inputs_;
  std::map<int, std::unique_ptr<specs::RaftMongoSpec>> specs_;
  trace::MbtcPipelineOptions options_;
};

// -- mbtcg_gen -----------------------------------------------------------------

class MbtcgWorkload : public Workload {
 public:
  std::string Setup(uint64_t /*seed*/, Tracer* /*tracer*/) override {
    config_.num_clients = 4;
    config_.initial_array_len = 3;
    spec_ = std::make_unique<specs::ArrayOtSpec>(config_);
    // One operation per client from Set (L), Insert (L+1), Erase (L),
    // Move (L*(L-1)) and Clear (1): L^2 + 2L + 2 choices, one case for
    // every combination.
    const uint64_t l = static_cast<uint64_t>(config_.initial_array_len);
    expected_cases_ = 1;
    for (int i = 0; i < config_.num_clients; ++i) {
      expected_cases_ *= l * l + 2 * l + 2;
    }
    return "";
  }

  RoundOutcome Round() override {
    std::vector<mbtcg::TestCase> cases;
    mbtcg::GenerateOptions options;
    options.num_workers = kWorkers;
    const mbtcg::GenerationReport report =
        mbtcg::GenerateTestCases(config_, &cases, options);
    RoundOutcome out;
    VerifyGeneration(report.status, cases.size(), &out);
    RunCases(cases, nullptr, &out);
    return out;
  }

  RoundOutcome TracedRound(Tracer* tracer, MetricValues* m) override {
    // GenerateTestCases' two stages, called one by one.
    tlax::CheckerOptions options;
    options.record_graph = true;
    options.num_workers = kWorkers;
    tlax::CheckResult checked;
    {
      Tracer::Scope span(tracer, "tlax.ModelChecker::Check");
      checked = tlax::ModelChecker(options).Check(*spec_);
    }
    AddCheckMetrics(checked, tracer->TotalSeconds("tlax.ModelChecker::Check"),
                    m);
    (*m)["mbtcg.model_check_s"] =
        tracer->TotalSeconds("tlax.ModelChecker::Check");
    RoundOutcome out;
    if (!checked.ok() || checked.graph == nullptr) {
      VerifyGeneration(checked.ok() ? common::Status::Internal("no graph")
                                    : common::Status::Internal("check failed"),
                       0, &out);
      return out;
    }
    common::Result<std::vector<mbtcg::TestCase>> cases =
        common::Status::Internal("not run");
    {
      Tracer::Scope span(tracer, "mbtcg.ExtractTestCases");
      cases = mbtcg::ExtractTestCases(*checked.graph, spec_->variables(),
                                      config_.num_clients, kWorkers);
    }
    (*m)["mbtcg.extract_s"] = tracer->TotalSeconds("mbtcg.ExtractTestCases");
    checked.graph.reset();
    VerifyGeneration(cases.status(), cases.ok() ? cases->size() : 0, &out);
    if (cases.ok()) RunCases(*cases, tracer, &out);
    (*m)["ot.run_s"] = tracer->TotalSeconds("ot.RunTestCases");
    (*m)["otgo.run_s"] = tracer->TotalSeconds("otgo.RunTestCases");
    return out;
  }

  const tlax::Spec& ProbeSpec() const override { return *spec_; }

 private:
  void VerifyGeneration(const common::Status& status, size_t num_cases,
                        RoundOutcome* out) const {
    ++out->attempted;
    if (!status.ok()) {
      ++out->failed;
      out->Fail("generation failed: " + status.ToString());
    } else if (num_cases != expected_cases_) {
      out->Fail("generated " + std::to_string(num_cases) + " cases, not " +
                std::to_string(expected_cases_));
    }
  }

  /// Runs every case on the C++ merge engine and on the Go port; a case
  /// that does not pass is a failed operation.
  static void RunCases(const std::vector<mbtcg::TestCase>& cases,
                       Tracer* tracer, RoundOutcome* out) {
    mbtcg::RunReport cpp;
    {
      MaybeSpan span(tracer, "ot.RunTestCases");
      cpp = mbtcg::RunTestCases(cases);
    }
    otgo::GoMergeEngine go_engine;
    mbtcg::RunReport go;
    {
      MaybeSpan span(tracer, "otgo.RunTestCases");
      go = mbtcg::RunTestCases(cases, &go_engine);
    }
    for (const mbtcg::RunReport* run : {&cpp, &go}) {
      out->attempted += cases.size();
      out->failed += cases.size() - run->passed;
      if (run->total != cases.size()) out->Fail("not every case ran");
      if (!run->failures.empty() && out->error.empty()) {
        out->error = run->failures.front();
      }
    }
  }

  specs::ArrayOtConfig config_;
  std::unique_ptr<specs::ArrayOtSpec> spec_;
  uint64_t expected_cases_ = 0;
};

// ---------------------------------------------------------------------------
// Probes of single layers on a seeded sample of reachable states.

/// Distinct states met on seeded random walks from the initial states,
/// stepping only through states within the constraint.
std::vector<tlax::State> SampleStates(const tlax::Spec& spec, uint64_t seed,
                                      size_t count) {
  common::Rng rng(seed);
  const std::vector<tlax::State> initial = spec.InitialStates();
  std::vector<tlax::State> sample;
  std::unordered_set<uint64_t> seen;
  std::vector<tlax::State> successors;
  constexpr int kMaxWalkDepth = 64;
  for (int walk = 0; sample.size() < count && walk < 100'000; ++walk) {
    tlax::State state = initial[rng.Below(initial.size())];
    for (int depth = 0; depth < kMaxWalkDepth; ++depth) {
      if (seen.insert(state.fingerprint()).second) sample.push_back(state);
      if (sample.size() >= count) break;
      successors.clear();
      for (const tlax::Action& action : spec.actions()) {
        action.next(state, &successors);
      }
      std::vector<tlax::State> allowed;
      for (tlax::State& s : successors) {
        if (spec.WithinConstraint(s)) allowed.push_back(std::move(s));
      }
      if (allowed.empty()) break;
      state = allowed[rng.Below(allowed.size())];
    }
  }
  return sample;
}

/// Repeats `pass` (one sweep over the sample) for at least `min_seconds`
/// and returns the median nanoseconds per sampled state over the passes.
template <typename Pass>
double NsPerState(size_t sample_size, double min_seconds, Pass pass) {
  std::vector<double> per_state;
  const int64_t start = MonotonicNs();
  do {
    const int64_t t0 = MonotonicNs();
    pass();
    per_state.push_back(static_cast<double>(MonotonicNs() - t0) /
                        static_cast<double>(sample_size));
  } while (SecondsSince(start) < min_seconds || per_state.size() < 3);
  return Median(per_state);
}

/// Per-thread nanoseconds per FingerprintSet::Insert when `threads` threads
/// insert `fps` (strided) into a fresh set; median of `repeats` trials.
double InsertNs(const std::vector<uint64_t>& fps, int threads, int repeats) {
  std::vector<double> trials;
  for (int r = 0; r < repeats; ++r) {
    tlax::FingerprintSet set;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto work = [&](int t) {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      for (size_t i = static_cast<size_t>(t); i < fps.size();
           i += static_cast<size_t>(threads)) {
        set.Insert(fps[i], 0, 0, 1, i, 0, nullptr);
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
    while (ready.load() != threads - 1) {
    }
    const int64_t t0 = MonotonicNs();
    go.store(true);
    work(0);
    for (std::thread& th : pool) th.join();
    const double ns = static_cast<double>(MonotonicNs() - t0);
    trials.push_back(ns * threads / static_cast<double>(fps.size()));
  }
  return Median(trials);
}

void ProbeLayers(const tlax::Spec& spec, uint64_t seed, Tracer* tracer,
                 MetricValues* m) {
  Tracer::Scope probe(tracer, "probe.layers");
  std::vector<tlax::State> sample;
  {
    Tracer::Scope span(tracer, "probe.SampleStates");
    sample = SampleStates(spec, seed, 20'000);
  }
  if (sample.empty()) return;
  std::vector<tlax::State> successors;
  std::vector<uint64_t> fps;
  {
    Tracer::Scope span(tracer, "specs.Action::next");
    (*m)["specs.expand_ns_per_state"] =
        NsPerState(sample.size(), 0.3, [&] {
          fps.clear();
          for (const tlax::State& s : sample) {
            successors.clear();
            for (const tlax::Action& action : spec.actions()) {
              action.next(s, &successors);
            }
            for (const tlax::State& succ : successors) {
              fps.push_back(succ.fingerprint());
            }
          }
        });
  }
  uint64_t holds = 0;
  {
    Tracer::Scope span(tracer, "specs.Invariant::predicate");
    (*m)["specs.invariants_ns_per_state"] =
        NsPerState(sample.size(), 0.2, [&] {
          for (const tlax::State& s : sample) {
            for (const tlax::Invariant& inv : spec.invariants()) {
              holds += inv.predicate(s) ? 1 : 0;
            }
          }
        });
  }
  {
    Tracer::Scope span(tracer, "specs.Spec::WithinConstraint");
    (*m)["specs.constraint_ns_per_state"] =
        NsPerState(sample.size(), 0.2, [&] {
          for (const tlax::State& s : sample) {
            holds += spec.WithinConstraint(s) ? 1 : 0;
          }
        });
  }
  if (holds == 0) std::fprintf(stderr, "no sampled state passed a check\n");
  {
    Tracer::Scope span(tracer, "tlax.FingerprintSet::Insert");
    (*m)["fpset.insert_ns_w1"] = InsertNs(fps, 1, 5);
    (*m)["fpset.insert_ns_w4"] = InsertNs(fps, kWorkers, 5);
  }
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference = "perfbench/reference_counts.json";
  std::string out_dir = ".bench_out";
  int64_t spawn_ns = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--reference") {
      args->reference = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--spawn-ns") {
      args->spawn_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "check_ram" || args.workload == "check_budget") {
    return std::make_unique<CheckWorkload>(args.workload == "check_budget",
                                           args.reference, args.out_dir);
  }
  if (args.workload == "mbtc_fuzz") return std::make_unique<MbtcWorkload>();
  if (args.workload == "mbtcg_gen") return std::make_unique<MbtcgWorkload>();
  return nullptr;
}

void PrintResult(const RoundOutcome& outcome,
                 const std::vector<std::pair<std::string, std::string>>& units,
                 const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < units.size(); ++i) {
    const auto& [name, unit] = units[i];
    const double v = values.count(name) ? values.at(name) : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += (i > 0 ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = MonotonicNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--reference FILE] [--out-dir DIR] [--spawn-ns NS]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  // Set-up is timed from the process's spawn when the launcher passes its
  // spawn time, else from entering main.
  const int64_t setup_from = args.spawn_ns > 0 ? args.spawn_ns : start_ns;

  Tracer tracer;
  Tracer* setup_tracer = args.trace ? &tracer : nullptr;
  std::string error;
  {
    MaybeSpan span(setup_tracer, "setup");
    error = workload->Setup(args.seed, setup_tracer);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  const double setup_s = SecondsSince(setup_from);

  RoundOutcome total;
  auto fold = [&](const RoundOutcome& r) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    if (!r.correct) total.Fail(r.error);
  };

  if (!args.trace) {
    // At least MinRounds() rounds, so every figure averages two or more.
    // Wall and CPU time are medians over the rounds; memory is the mean of
    // each round's peak, because a round's peak can hinge on a race
    // (whether a large spill compaction overlaps a full hot table) and the
    // median of a two-valued figure jumps between its values.
    std::vector<double> walls, cpus, peaks;
    const int64_t timed_start = MonotonicNs();
    do {
      PeakRssSampler rss;
      const double cpu0 = ProcessCpuSeconds();
      const int64_t t0 = MonotonicNs();
      fold(workload->Round());
      walls.push_back(SecondsSince(t0));
      cpus.push_back(ProcessCpuSeconds() - cpu0);
      peaks.push_back(rss.PeakMb());
    } while (walls.size() < workload->MinRounds() ||
             SecondsSince(timed_start) < args.seconds);
    double peak_mb = 0;
    for (double p : peaks) peak_mb += p / static_cast<double>(peaks.size());
    std::fprintf(stderr, "%s: %zu rounds, wall s / peak MB:",
                 args.workload.c_str(), walls.size());
    for (size_t i = 0; i < walls.size(); ++i) {
      std::fprintf(stderr, " %.3f/%.1f", walls[i], peaks[i]);
    }
    std::fprintf(stderr, "\n");
    if (!total.correct) {
      std::fprintf(stderr, "INCORRECT: %s\n", total.error.c_str());
    }
    const MetricValues values = {{"wall_s", Median(walls)},
                                 {"cpu_s", Median(cpus)},
                                 {"peak_rss_mb", peak_mb},
                                 {"setup_s", setup_s}};
    PrintResult(total, {{"wall_s", "s"}, {"cpu_s", "s"},
                        {"peak_rss_mb", "MB"}, {"setup_s", "s"}},
                values);
    return 0;
  }

  // An untraced round first: it meets the value intern table as cold as
  // the first timed round does, so the intern counts are taken over it.
  // The traced round and a second untraced round then both run warm, and
  // their difference is the tracing overhead.
  MetricValues values;
  const tlax::Value::InternStats before = tlax::Value::GetInternStats();
  fold(workload->Round());
  const tlax::Value::InternStats after = tlax::Value::GetInternStats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  values["value.intern_misses"] = misses;
  values["value.intern_hit_ratio"] = Ratio(hits, hits + misses);
  {
    Tracer::Scope span(&tracer, "round.traced");
    fold(workload->TracedRound(&tracer, &values));
  }
  const double traced_wall = tracer.TotalSeconds("round.traced");
  const int64_t untraced_start = MonotonicNs();
  fold(workload->Round());
  values["tracing.overhead_s"] = traced_wall - SecondsSince(untraced_start);
  ProbeLayers(workload->ProbeSpec(), args.seed, &tracer, &values);
  if (!total.correct) {
    std::fprintf(stderr, "INCORRECT: %s\n", total.error.c_str());
  }
  const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
  if (!tracer.WriteJson(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> units;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    units.emplace_back(name, unit);
  }
  PrintResult(total, units, values);
  return 0;
}
