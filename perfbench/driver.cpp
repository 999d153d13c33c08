// perfbench driver: runs one benchmark workload closed-loop (one job at a
// time, the next job starting when the previous one ends) for a host-time
// budget, checks every job's outputs, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON object
// on the last line of stdout. Every time is taken from outside the
// simulator, around calls to its public functions; nothing inside the
// program is instrumented, and Simulator::run is never sliced. README.md
// in this directory defines each workload and metric.
//
//   perfbench_driver --workload=ffwd-roi-16c --seed=42 --seconds=50 --trace=0
//                    [--expect=HEX] [--out-dir=DIR]
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/broker.h"
#include "campaign/worker.h"
#include "ckpt/checkpoint.h"
#include "ckpt/fastforward.h"
#include "core/config_io.h"
#include "core/simulator.h"
#include "kernels/program_menu.h"
#include "kernels/workloads.h"
#include "loader/elf.h"
#include "loader/workload.h"
#include "sweep/point_runner.h"
#include "sweep/sweep.h"

using namespace coyote;
namespace fs = std::filesystem;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point g_start = SteadyClock::now();

double now_s() {
  return std::chrono::duration<double>(SteadyClock::now() - g_start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The fast end of a run's samples, which the end-to-end metrics report:
/// the 10th percentile of times, the 90th of rates. Other tenants of the host only ever add time, in episodes of
/// seconds to minutes, so the fast end tracks the program's own cost while
/// the median tracks how much of the run such an episode covered
/// (README.md, "Steadiness").
double fast_time(const std::vector<double>& times) {
  return percentile(times, 10);
}
double fast_rate(const std::vector<double>& rates) {
  return percentile(rates, 90);
}

std::uint64_t fnv(const std::string& text) {
  return loader::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size());
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// ------------------------------------------------------------------ spans --

/// In-memory span recorder. Spans nest by call order on the main thread
/// (each span's parent is the innermost open one) and carry the job they
/// belong to. Recording is on only while a traced job runs; time() always
/// returns the elapsed seconds, since the end-to-end metrics need them.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int job = -1;
  };

  void set_job(int job, bool recording) {
    job_ = job;
    recording_ = recording;
  }

  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const int id = open(name);
    const double t0 = now_s();
    try {
      fn();
    } catch (...) {
      close(id);
      throw;
    }
    const double elapsed = now_s() - t0;
    close(id);
    return elapsed;
  }

  /// Records a span measured elsewhere (another thread's start/end).
  void add(const char* name, double start, double end) {
    if (recording_) spans_.push_back({name, start, end, -1, job_});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of spans named `name` within `job`.
  double job_total(int job, const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.job == job && span.name == name) total += span.end - span.start;
    }
    return total;
  }

  /// Median duration of every recorded span named `name`.
  double call_median(const std::string& name) const {
    std::vector<double> durations;
    for (const Span& span : spans_) {
      if (span.name == name) durations.push_back(span.end - span.start);
    }
    return median(durations);
  }

  /// Writes the spans as Chrome trace-event JSON (ts/dur in microseconds).
  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                    "\"parent\": %d, \"job\": %d}}%s\n",
                    s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i,
                    s.parent, s.job, i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
  }

 private:
  int open(const char* name) {
    if (!recording_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), job_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end = now_s();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int job_ = -1;
  bool recording_ = false;
};

// --------------------------------------------------------- work counters --

/// Exact work counts of a finished machine: every counter and integral
/// statistic of the statistics tree, summed over units of one kind
/// ("core0", "core1" -> "core.<name>"), plus the scheduler's fired events.
using Counts = std::map<std::string, std::uint64_t>;

Counts count_work(core::Simulator& sim) {
  Counts counts;
  sim.root().for_each([&counts](const simfw::Unit& unit) {
    std::string kind = unit.name();
    while (!kind.empty() && std::isdigit(static_cast<unsigned char>(
                                kind.back()))) {
      kind.pop_back();
    }
    for (const auto& counter : unit.stats().counters()) {
      counts[kind + "." + counter->name()] += counter->get();
    }
    for (const auto& stat : unit.stats().statistics()) {
      const double value = stat->evaluate();
      if (value >= 0.0 && value == std::floor(value) &&
          stat->name().find("rate") == std::string::npos) {
        counts[kind + "." + stat->name()] += static_cast<std::uint64_t>(value);
      }
    }
  });
  counts["sched.events_fired"] = sim.scheduler().events_fired();
  return counts;
}

void add_counts(Counts& into, const Counts& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

std::uint64_t get(const Counts& counts, const std::string& name) {
  const auto it = counts.find(name);
  return it == counts.end() ? 0 : it->second;
}

// -------------------------------------------------------------- machines --

/// Per-core fast-forward budget that no workload reaches: a functional
/// replay with it runs every program to its exit.
constexpr const char* kWholeProgram = "1000000000000";

simfw::ConfigMap with(simfw::ConfigMap map,
                      std::initializer_list<std::pair<const char*, const char*>>
                          overrides) {
  for (const auto& [key, value] : overrides) map.set(key, value);
  return map;
}

/// The set-up every job pays: config parse, machine construction, kernel
/// build and program load. Appends the elapsed time to `setups`.
std::unique_ptr<core::Simulator> set_up(const simfw::ConfigMap& map,
                                        Tracer& tracer,
                                        std::vector<double>& setups) {
  std::unique_ptr<core::Simulator> sim;
  setups.push_back(tracer.time("setup", [&] {
    core::SimConfig config;
    tracer.time("core.config", [&] { config = core::config_from_map(map); });
    tracer.time("core.construct",
                [&] { sim = std::make_unique<core::Simulator>(config); });
    kernels::Program program;
    tracer.time("kernels.build", [&] {
      program = kernels::build_named_kernel(
          config.workload.kernel, config.num_cores, config.workload.size,
          config.workload.seed, sim->memory());
    });
    tracer.time("core.load", [&] {
      sim->load_program(program.base, program.words, program.entry);
    });
  }));
  return sim;
}

/// Digest of everything a detailed run computed: cycles, instructions, exit
/// codes and the statistics report. The decoded-block cache's dbb_*
/// counters are left out: they count host-side cache use (a restored
/// machine starts with a cold cache), not simulated behaviour.
std::uint64_t run_digest(const core::RunResult& result,
                         const core::Simulator& sim,
                         const std::string& prefix = "") {
  static const std::regex kHostCounters(R"("dbb_[a-z]+": [0-9]+(, )?)");
  std::ostringstream text;
  text << prefix << "cycles=" << result.cycles
       << " instructions=" << result.instructions << " exits=";
  for (std::int64_t code : result.exit_codes) text << code << ',';
  text << '\n'
       << std::regex_replace(sim.report(simfw::ReportFormat::kJson),
                             kHostCounters, "");
  return fnv(text.str());
}

// --------------------------------------------------------------- checks --

/// Tallies checked operations and their failures (output mismatches,
/// non-ok points, thrown errors); the first few failures are printed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failed <= 8) std::printf("# FAIL %s\n", what.c_str());
  }
};

bool close_enough(const std::vector<double>& got,
                  const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= 1e-9 * std::max(1.0, std::fabs(want[i])))) {
      return false;
    }
  }
  return true;
}

/// Host-side oracle for a simulated kernel's result in memory: the program
/// output must equal the reference computation of the same inputs.
class OutputOracle {
 public:
  OutputOracle(const std::string& kernel, std::uint64_t size,
               std::uint64_t seed)
      : kernel_(kernel), size_(size), seed_(seed) {}

  /// Compares the output with the reference; `digest` receives a digest of
  /// the output's exact bits.
  bool matches(const iss::SparseMemory& memory, std::uint64_t& digest) {
    std::vector<double> got;
    if (kernel_ == "matmul_scalar") {
      if (!matmul_) {
        matmul_ = kernels::MatmulWorkload::generate(size_, seed_);
        want_ = matmul_->reference();
      }
      got = matmul_->result(memory);
    } else {
      if (!spmv_) {  // spmv_scalar, seeded as kernels::build_named_kernel does
        spmv_ = kernels::SpmvWorkload::generate(
            kernels::CsrMatrix::random(size_, size_, 16, seed_), seed_ + 1);
        want_ = spmv_->reference();
      }
      got = spmv_->result(memory);
    }
    digest = loader::fnv1a64(reinterpret_cast<const std::uint8_t*>(got.data()),
                             got.size() * sizeof(double));
    return close_enough(got, want_);
  }

 private:
  std::string kernel_;
  std::uint64_t size_;
  std::uint64_t seed_;
  std::optional<kernels::MatmulWorkload> matmul_;
  std::optional<kernels::SpmvWorkload> spmv_;
  std::vector<double> want_;
};

// ------------------------------------------------------------ workloads --

/// Job id of the spans recorded by Workload::prepare.
constexpr int kPrepareJob = -2;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string expect;  ///< committed digest for this workload and seed
  std::string out_dir = ".bench_build/perfbench-out";
};

/// One closed-loop job's measurements.
struct Job {
  bool traced = false;
  bool warmup = false;       ///< the first job: checked, not reported
  double job_s = 0.0;        ///< host seconds of the job after set-up
  double point_s = 0.0;      ///< set-up + job: one completed point
  double detailed_s = 0.0;   ///< inside detailed Simulator::run
  std::uint64_t detailed_instructions = 0;
  double fast_path_s = 0.0;  ///< the workload's fast path (README.md)
  std::vector<double> fast_path_runs;  ///< each fast-path run of the job
  std::uint64_t digest = 0;
  Counts counts;             ///< exact work counts (traced jobs)
  std::uint64_t ffwd_instructions = 0;
  double ffwd_s = 0.0;       ///< inside ckpt::fast_forward
  // campaign-small-points
  std::size_t points = 0;
  double replay_s = 0.0;
};

/// What each workload contributes beyond the shared loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one job; set-up times go to `setups`.
  virtual Job run_job(Tracer& tracer, std::vector<double>& setups,
                      Ledger& ledger, int index) = 0;
  /// Untimed preparation before the loop.
  virtual void prepare(Tracer&, Ledger&) {}
  /// Checks done once per process after the loop (oracle runs).
  virtual void final_checks(const std::vector<Job>&, Ledger&) {}
  /// Traced runs: layer-isolation replays. `counts` receives work counts
  /// when the jobs cannot read them; `replay_instructions` the instructions
  /// the functional replay executed.
  virtual void isolate(Tracer& tracer, Counts& counts,
                       std::uint64_t& replay_instructions) = 0;
};

/// Functional replays of a whole program on fresh machines: warming off
/// (iss.functional_replay) and on (memhier.warm_replay).
void replay_functional(const simfw::ConfigMap& map, Tracer& tracer,
                       std::uint64_t& instructions) {
  std::vector<double> ignored;
  for (const bool warm : {false, true}) {
    auto sim = set_up(
        with(map, {{"ckpt.ffwd_instructions", kWholeProgram},
                   {"ckpt.warmup", warm ? "true" : "false"},
                   {"ckpt.warmup_window", "0"}}),
        tracer, ignored);
    ckpt::FfwdResult result;
    tracer.time(warm ? "memhier.warm_replay" : "iss.functional_replay",
                [&] { result = ckpt::fast_forward(*sim); });
    if (!warm) instructions += result.instructions;
  }
}

/// matmul-1c and spmv-64c-coherent: one detailed simulation to completion,
/// then the same program fast-forwarded functionally to completion (the
/// fast path), kFastPathRuns times on fresh machines. One fast-path call
/// takes a sixth of the detailed run's time; repeating it gives the fast
/// path more samples per run.
class DetailedWorkload : public Workload {
 public:
  static constexpr int kFastPathRuns = 3;

  DetailedWorkload(simfw::ConfigMap map, const std::string& kernel,
                   std::uint64_t size, std::uint64_t seed)
      : map_(std::move(map)), oracle_(kernel, size, seed) {}

  Job run_job(Tracer& tracer, std::vector<double>& setups, Ledger& ledger,
              int index) override {
    Job job;
    std::uint64_t output = 0;
    {
      auto sim = set_up(map_, tracer, setups);
      core::RunResult result;
      job.detailed_s = tracer.time("core.run", [&] { result = sim->run(); });
      job.detailed_instructions = result.instructions;
      job.point_s = setups.back() + job.detailed_s;
      const bool output_ok = oracle_.matches(sim->memory(), output);
      job.digest = run_digest(result, *sim, "output=" + hex(output) + " ");
      job.counts = count_work(*sim);
      ledger.check(result.all_exited && result.guest_status() == 0 && output_ok,
                   "job " + std::to_string(index) +
                       ": detailed run output differs from the reference");
    }
    job.job_s = job.detailed_s;
    for (int run = 0; run < kFastPathRuns; ++run) {
      auto sim = set_up(with(map_, {{"ckpt.ffwd_instructions", kWholeProgram},
                                    {"ckpt.warmup", "false"}}),
                        tracer, setups);
      ckpt::FfwdResult ffwd;
      const double ffwd_s = tracer.time(
          "ckpt.fast_forward", [&] { ffwd = ckpt::fast_forward(*sim); });
      job.fast_path_runs.push_back(ffwd_s);
      job.job_s += ffwd_s;
      job.ffwd_instructions = ffwd.instructions;
      job.counts["ckpt.ffwd_instructions"] = ffwd.instructions;
      std::uint64_t functional_output = 0;
      ledger.check(ffwd.all_exited &&
                       ffwd.instructions == job.detailed_instructions &&
                       oracle_.matches(sim->memory(), functional_output) &&
                       functional_output == output,
                   "job " + std::to_string(index) +
                       ": functional replay output differs from the detailed "
                       "run's");
    }
    job.fast_path_s = median(job.fast_path_runs);
    job.ffwd_s = job.fast_path_s;
    return job;
  }

  void isolate(Tracer& tracer, Counts&,
               std::uint64_t& replay_instructions) override {
    replay_functional(map_, tracer, replay_instructions);
  }

 private:
  simfw::ConfigMap map_;
  OutputOracle oracle_;
};

/// ffwd-roi-16c: functional fast-forward with cache warming, checkpoint to
/// memory, restore, then the detailed region of interest to completion.
class FfwdRoiWorkload : public Workload {
 public:
  FfwdRoiWorkload(simfw::ConfigMap map, std::uint64_t size, std::uint64_t seed)
      : map_(std::move(map)), oracle_("matmul_scalar", size, seed) {}

  Job run_job(Tracer& tracer, std::vector<double>& setups, Ledger& ledger,
              int index) override {
    Job job;
    std::unique_ptr<core::Simulator> sim = set_up(map_, tracer, setups);
    const std::string label = loader::resume_label(sim->config());
    ckpt::FfwdResult ffwd;
    job.ffwd_s =
        tracer.time("ckpt.fast_forward", [&] { ffwd = ckpt::fast_forward(*sim); });
    std::ostringstream image;
    const double write_s = tracer.time(
        "ckpt.write", [&] { ckpt::write_checkpoint(*sim, label, image); });
    sim.reset();
    std::istringstream in(image.str());
    const double restore_s = tracer.time(
        "ckpt.restore", [&] { sim = ckpt::restore_checkpoint(in); });
    core::RunResult result;
    job.detailed_s = tracer.time("core.run", [&] { result = sim->run(); });

    const std::size_t ckpt_bytes = image.str().size();
    job.ffwd_instructions = ffwd.instructions;
    job.detailed_instructions = result.instructions;
    job.fast_path_s = job.ffwd_s + write_s + restore_s;
    job.fast_path_runs.push_back(job.fast_path_s);
    job.job_s = job.fast_path_s + job.detailed_s;
    job.point_s = setups.back() + job.job_s;
    std::uint64_t output = 0;
    const bool output_ok = oracle_.matches(sim->memory(), output);
    job.digest = run_digest(result, *sim,
                            roi_prefix(ffwd, ckpt_bytes, output));
    job.counts = count_work(*sim);
    job.counts["ckpt.bytes"] = ckpt_bytes;
    job.counts["ckpt.ffwd_instructions"] = ffwd.instructions;
    ledger.check(!ffwd.all_exited && ffwd.instructions > 0 &&
                     result.all_exited && result.guest_status() == 0 &&
                     output_ok,
                 "job " + std::to_string(index) +
                     ": restored ROI output differs from the reference");
    return job;
  }

  /// The restored ROI must match an uninterrupted in-place ffwd -> detailed
  /// run of the same machine (checkpoint bit-identity).
  void final_checks(const std::vector<Job>& jobs, Ledger& ledger) override {
    if (jobs.empty()) return;
    Tracer untraced;
    std::vector<double> ignored;
    auto sim = set_up(map_, untraced, ignored);
    const std::string label = loader::resume_label(sim->config());
    const ckpt::FfwdResult ffwd = ckpt::fast_forward(*sim);
    std::ostringstream image;
    ckpt::write_checkpoint(*sim, label, image);  // byte count only
    const core::RunResult result = sim->run();
    std::uint64_t output = 0;
    oracle_.matches(sim->memory(), output);
    const std::uint64_t digest = run_digest(
        result, *sim, roi_prefix(ffwd, image.str().size(), output));
    ledger.check(digest == jobs.front().digest,
                 "restored ROI differs from the uninterrupted in-place run");
  }

  void isolate(Tracer& tracer, Counts&,
               std::uint64_t& replay_instructions) override {
    replay_functional(map_, tracer, replay_instructions);
  }

 private:
  static std::string roi_prefix(const ckpt::FfwdResult& ffwd,
                                std::size_t ckpt_bytes, std::uint64_t output) {
    return "ffwd=" + std::to_string(ffwd.instructions) +
           " bytes=" + std::to_string(ckpt_bytes) + " output=" + hex(output) +
           " ";
  }

  simfw::ConfigMap map_;
  OutputOracle oracle_;
};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// campaign-small-points: an in-process Broker on loopback served by one
/// Worker with 3 slots, over a grid of small distinct points. Once per
/// process, before the timed loop, a durable pass (state and memo
/// directories: fsync'd .done and .memo writes) fills the memo store. Each
/// job is then a cold pass with in-memory campaign state (broker loop, wire
/// and point execution) and a replay pass served from the warm memo store
/// (memo reads). The replay pass has one worker slot: it executes nothing,
/// and with three a slot that connects after the others have left finds a
/// broker that has stopped accepting and waits out its handshake timeout
/// (Broker::serve returns once every connected worker has gone).
class CampaignWorkload : public Workload {
 public:
  static constexpr unsigned kSlots = 3;

  CampaignWorkload(sweep::SweepSpec spec, fs::path scratch)
      : spec_(std::move(spec)), scratch_(std::move(scratch)) {
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
  }

  /// The file system is flushed after the records are deleted, so their
  /// journal and discard work does not land in a later timed pass.
  ~CampaignWorkload() override {
    std::error_code ignored;
    fs::remove_all(scratch_, ignored);
    flush_filesystem();
  }

  void prepare(Tracer& tracer, Ledger& ledger) override {
    std::vector<double> ignored;
    flush_filesystem();
    const Pass durable =
        serve(tracer, (scratch_ / "state").string(), memo_dir(), ignored,
              {"campaign.durable_init", "campaign.durable_serve",
               "campaign.durable_worker_run"},
              kSlots);
    record_bytes_ = dir_bytes(scratch_ / "state") + dir_bytes(memo_dir());
    table_ = durable.report.to_json(false);
    for (const sweep::PointResult& point : durable.report.points) {
      ledger.check(point.ok, "point " + std::to_string(point.index) +
                                 " failed: " + point.error);
    }
    ledger.check(durable.error.empty() &&
                     durable.executed == durable.report.points.size(),
                 "durable pass did not execute every point: " + durable.error);
  }

  Job run_job(Tracer& tracer, std::vector<double>& setups, Ledger& ledger,
              int index) override {
    Job job;
    const Pass cold =
        serve(tracer, "", "", setups,
              {"campaign.broker_init", "campaign.serve", "campaign.worker_run"},
              kSlots);
    std::vector<double> ignored;
    Pass replay;
    job.replay_s = tracer.time("campaign.replay", [&] {
      replay = serve(tracer, "", memo_dir(), ignored,
                     {"campaign.replay_init", "campaign.replay_serve",
                      "campaign.replay_worker_run"},
                     1);
    });

    job.points = cold.report.points.size();
    for (const sweep::PointResult& point : cold.report.points) {
      ledger.check(point.ok, "point " + std::to_string(point.index) +
                                 " failed: " + point.error);
      job.detailed_instructions += point.run.instructions;
    }
    const std::string table = cold.report.to_json(false);
    const std::string what = "job " + std::to_string(index) + ": ";
    ledger.check(cold.error.empty() && replay.error.empty(),
                 what + "worker error: " + cold.error + replay.error);
    ledger.check(table == table_,
                 what + "cold table differs from the durable pass's");
    ledger.check(replay.report.to_json(false) == table_,
                 what + "memo replay table differs from the durable pass's");
    ledger.check(cold.executed == job.points && replay.executed == 0 &&
                     replay.prefilled == job.points,
                 what + "points not executed cold / replayed warm exactly once");
    job.detailed_s = cold.serve_s;
    job.job_s = cold.serve_s;
    job.point_s = cold.serve_s / std::max<std::size_t>(1, job.points);
    job.fast_path_s = job.replay_s;
    job.fast_path_runs.push_back(job.fast_path_s);
    job.digest = fnv(table);
    job.counts["campaign.points_executed"] = cold.executed;
    job.counts["campaign.points_replayed"] = replay.prefilled;
    job.counts["campaign.record_bytes"] = record_bytes_;
    job.counts["campaign.table_digest"] = job.digest;
    return job;
  }

  /// The service's table must equal the in-process sweep engine's.
  void final_checks(const std::vector<Job>& jobs, Ledger& ledger) override {
    if (jobs.empty()) return;
    sweep::SweepEngine::Options options;
    options.jobs = kSlots;
    const sweep::SweepReport engine = sweep::SweepEngine(options).run(spec_);
    ledger.check(engine.to_json(false) == table_,
                 "campaign table differs from the in-process sweep engine's");
  }

  /// Every point replayed serially: through the sweep layer's executor
  /// (per-point execution time) and directly through the public simulation
  /// calls (set-up/run split, work counts, functional and warm replays).
  void isolate(Tracer& tracer, Counts& counts,
               std::uint64_t& replay_instructions) override {
    const std::vector<simfw::ConfigMap> points =
        spec_.with_workload_keys().expand();
    sweep::PointExecutor executor;
    for (std::size_t i = 0; i < points.size(); ++i) {
      sweep::PointResult point;
      point.index = i;
      point.config = points[i];
      tracer.time("sweep.point_exec", [&] { executor.run_point(point); });
    }
    std::vector<double> ignored;
    for (const simfw::ConfigMap& map : points) {
      auto sim = set_up(map, tracer, ignored);
      tracer.time("core.run", [&] { sim->run(); });
      add_counts(counts, count_work(*sim));
      replay_functional(map, tracer, replay_instructions);
    }
  }

 private:
  struct Pass {
    sweep::SweepReport report;
    double serve_s = 0.0;
    std::size_t executed = 0;
    std::size_t prefilled = 0;
    std::string error;
  };

  std::string memo_dir() const { return (scratch_ / "memo").string(); }

  void flush_filesystem() const {
    const int fd = ::open(scratch_.c_str(), O_RDONLY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }

  /// Span names of one pass's broker set-up, serve call and worker run.
  struct PassSpans {
    const char* init;
    const char* serve;
    const char* worker;
  };

  Pass serve(Tracer& tracer, const std::string& state, const std::string& memo,
             std::vector<double>& setups, const PassSpans& spans,
             unsigned slots) {
    Pass pass;
    campaign::Broker::Options options;
    options.state_dir = state;
    options.memo_dir = memo;
    std::unique_ptr<campaign::Broker> broker;
    std::uint16_t port = 0;
    setups.push_back(tracer.time(spans.init, [&] {
      broker = std::make_unique<campaign::Broker>(spec_, options);
      port = broker->listen("127.0.0.1", 0);
    }));
    pass.prefilled = broker->num_done();

    campaign::Worker::Options worker_options;
    worker_options.port = port;
    worker_options.jobs = slots;
    worker_options.name = "perfbench";
    worker_options.reconnect_window = std::chrono::milliseconds(3'000);
    worker_options.handshake_timeout = std::chrono::milliseconds(2'000);
    double worker_start = 0.0;
    double worker_end = 0.0;
    std::thread worker_thread([&] {
      worker_start = now_s();
      try {
        pass.executed = campaign::Worker(worker_options).run();
      } catch (const std::exception& error) {
        pass.error = error.what();
      }
      worker_end = now_s();
    });
    try {
      pass.serve_s =
          tracer.time(spans.serve, [&] { pass.report = broker->serve(); });
    } catch (...) {
      broker->request_stop();
      worker_thread.join();
      throw;
    }
    worker_thread.join();
    tracer.add(spans.worker, worker_start, worker_end);
    return pass;
  }

  sweep::SweepSpec spec_;
  fs::path scratch_;
  std::string table_;  ///< the durable pass's table, host timing excluded
  std::uint64_t record_bytes_ = 0;
};

/// The grid of campaign-small-points: dot, size 256, 4 x 4 x 4 x 16 points.
sweep::SweepSpec campaign_spec(std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.kernel = "dot";
  spec.size = 256;
  spec.seed = seed;
  spec.axes = {
      {"topo.cores", {"1", "2", "4", "8"}},
      {"l2.size_kb", {"32", "64", "128", "256"}},
      {"l2.ways", {"2", "4", "8", "16"}},
      {"mc.latency", {"40", "50", "60", "70", "80", "90", "100", "110", "120",
                      "130", "140", "150", "160", "170", "180", "190"}},
  };
  return spec;
}

simfw::ConfigMap kernel_map(const std::string& kernel, std::uint64_t size,
                            std::uint32_t cores, std::uint64_t seed) {
  simfw::ConfigMap map;
  map.set("workload.kernel", kernel);
  map.set("workload.size", std::to_string(size));
  map.set("workload.seed", std::to_string(seed));
  map.set("topo.cores", std::to_string(cores));
  return map;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  const std::uint64_t seed = args.seed;
  if (args.workload == "matmul-1c") {
    return std::make_unique<DetailedWorkload>(
        kernel_map("matmul_scalar", 128, 1, seed), "matmul_scalar", 128, seed);
  }
  if (args.workload == "spmv-64c-coherent") {
    return std::make_unique<DetailedWorkload>(
        with(kernel_map("spmv_scalar", 32768, 64, seed),
             {{"l2.coherence", "mesi"},
              {"noc.model", "mesh"},
              {"mc.model", "dram"}}),
        "spmv_scalar", 32768, seed);
  }
  if (args.workload == "ffwd-roi-16c") {
    return std::make_unique<FfwdRoiWorkload>(
        with(kernel_map("matmul_scalar", 192, 16, seed),
             {{"core.l1d_kb", "8"},
              {"l2.size_kb", "64"},
              {"l2.coherence", "mesi"},
              {"noc.model", "mesh"},
              {"mc.model", "dram"},
              {"ckpt.ffwd_instructions", "2800000"},
              {"ckpt.warmup_window", "250000"}}),
        192, seed);
  }
  if (args.workload == "campaign-small-points") {
    return std::make_unique<CampaignWorkload>(
        campaign_spec(seed), fs::path(args.out_dir) /
                                 ("campaign-" + std::to_string(::getpid())));
  }
  return nullptr;
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral = false;
};

std::string render_result(const Ledger& ledger, bool correct,
                          const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (metrics[i].integral) {
      std::snprintf(value, sizeof value, "%llu",
                    static_cast<unsigned long long>(metrics[i].value));
    } else {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the parent's memory from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// `fn` of every job but the warm-up, traced or untraced.
std::vector<double> collect(const std::vector<Job>& jobs, bool traced,
                            const std::function<double(const Job&)>& fn) {
  std::vector<double> values;
  for (const Job& job : jobs) {
    if (!job.warmup && job.traced == traced) values.push_back(fn(job));
  }
  return values;
}

/// Prints, by name and unit, the end-to-end figures that exist on one
/// workload only (README.md explains why they are not in the result line).
void print_workload_metrics(const Args& args, const std::vector<Job>& jobs,
                            const Ledger& ledger) {
  const auto rate = [&](const std::function<double(const Job&)>& fn) {
    return fast_rate(collect(jobs, false, fn));
  };
  if (args.workload == "ffwd-roi-16c") {
    std::printf("# ffwd_mips %.9g M_instr/s\n", rate([](const Job& j) {
                  return ratio(j.ffwd_instructions, j.ffwd_s) / 1e6;
                }));
    std::printf("# roi_handover_s %.9g s\n",
                fast_time(collect(jobs, false,
                                  [](const Job& j) { return j.fast_path_s; })));
  } else {
    std::printf("# ffwd_mips n/a\n# roi_handover_s n/a\n");
  }
  if (args.workload == "campaign-small-points") {
    std::printf("# replay_points_per_s %.9g points/s\n", rate([](const Job& j) {
                  return ratio(j.points, j.replay_s);
                }));
  } else {
    std::printf("# replay_points_per_s n/a\n");
  }
  std::printf("# ops_failed_ratio %.9g ratio (%llu of %llu)\n",
              ratio(ledger.failed, ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
}

/// Per-layer metrics of a traced run (README.md lists each one's meaning
/// and which end-to-end metric it should move).
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const std::vector<Job>& jobs,
                                  int isolation_job, const Counts& iso_counts,
                                  std::uint64_t replay_instructions,
                                  bool campaign) {
  std::vector<int> traced_ids;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].traced) traced_ids.push_back(static_cast<int>(i));
  }
  const auto per_job = [&](const std::string& span) {
    std::vector<double> values;
    for (int id : traced_ids) values.push_back(tracer.job_total(id, span));
    return median(values);
  };
  const auto iso = [&](const std::string& span) {
    return tracer.job_total(isolation_job, span);
  };
  // Work counts: the campaign's come from its isolation replay (its jobs
  // run points inside the worker, out of reach), the others' from a job.
  const Counts& c = campaign ? iso_counts : jobs[traced_ids.front()].counts;
  const Counts& job_counts = jobs[traced_ids.front()].counts;
  const double run_s = campaign ? iso("core.run") : per_job("core.run");
  const double instr = static_cast<double>(get(c, "orchestrator.instructions"));
  const double events = static_cast<double>(get(c, "sched.events_fired"));
  const double functional_s = iso("iss.functional_replay");
  const double warm_s = iso("memhier.warm_replay");
  const double detailed_ns = ratio(run_s, instr);
  const double replay_ns =
      ratio(functional_s, static_cast<double>(replay_instructions));
  const double warm_ns = ratio(warm_s, static_cast<double>(replay_instructions));
  const double dbb_hits = static_cast<double>(get(c, "core.dbb_hits"));
  const double dbb_lookups = dbb_hits + static_cast<double>(get(c, "core.dbb_misses"));
  const double row_hits = static_cast<double>(get(c, "mc.row_hits"));
  const double rows = row_hits + static_cast<double>(get(c, "mc.row_misses"));

  std::vector<double> point_exec_ms;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.name == "sweep.point_exec") {
      point_exec_ms.push_back((span.end - span.start) * 1e3);
    }
  }
  double exec_sum_ms = 0.0;
  for (double ms : point_exec_ms) exec_sum_ms += ms;
  const double serve_s = per_job("campaign.serve");

  const auto traced_job_s = collect(jobs, true, [](const Job& j) { return j.job_s; });
  const auto plain_job_s = collect(jobs, false, [](const Job& j) { return j.job_s; });
  const auto count = [&](const char* name, const Counts& from,
                         const std::string& key) {
    return Metric{name, static_cast<double>(get(from, key)), "count", true};
  };

  return {
      {"kernels.build_s", tracer.call_median("kernels.build"), "s"},
      {"core.construct_s", tracer.call_median("core.construct"), "s"},
      {"core.run_s", run_s, "s"},
      count("orch.cycles", c, "orchestrator.cycles"),
      count("orch.instructions", c, "orchestrator.instructions"),
      count("orch.l1_miss_requests", c, "orchestrator.l1_miss_requests"),
      count("orch.fills", c, "orchestrator.fills"),
      count("coh.probes_delivered", c, "orchestrator.coh_probes_delivered"),
      {"iss.ns_per_instr", detailed_ns * 1e9, "ns"},
      {"iss.dbb_hit_ratio", ratio(dbb_hits, dbb_lookups), "ratio"},
      count("iss.dbb_invalidations", c, "core.dbb_invalidations"),
      {"iss.l1d_miss_ratio",
       ratio(static_cast<double>(get(c, "core.l1d_misses")),
             static_cast<double>(get(c, "core.l1d_accesses"))),
       "ratio"},
      {"iss.functional_replay_s", functional_s, "s"},
      {"iss.functional_share", ratio(replay_ns, detailed_ns), "ratio"},
      count("sched.events_fired", c, "sched.events_fired"),
      {"sched.events_per_instr", ratio(events, instr), "ratio"},
      {"sched.ns_per_event", ratio(run_s, events) * 1e9, "ns"},
      count("noc.messages", c, "noc.messages"),
      count("noc.hops", c, "noc.hops"),
      count("mesh.flits", c, "noc.flits"),
      count("mesh.wait_cycles", c, "noc.wait_cycles"),
      count("l2.accesses", c, "l2bank.accesses"),
      count("l2.misses", c, "l2bank.misses"),
      count("l2.mshr_stalls", c, "l2bank.mshr_stalls"),
      count("mc.reads", c, "mc.reads"),
      {"mc.row_hit_ratio", ratio(row_hits, rows), "ratio"},
      {"memhier.warm_replay_s", warm_s, "s"},
      {"memhier.warm_share", ratio(warm_ns - replay_ns, detailed_ns), "ratio"},
      {"ckpt.ffwd_s", tracer.call_median("ckpt.fast_forward"), "s"},
      count("ckpt.ffwd_instructions", job_counts, "ckpt.ffwd_instructions"),
      {"ckpt.write_s", per_job("ckpt.write"), "s"},
      {"ckpt.restore_s", per_job("ckpt.restore"), "s"},
      count("ckpt.bytes", job_counts, "ckpt.bytes"),
      {"campaign.broker_init_s", per_job("campaign.broker_init"), "s"},
      {"campaign.serve_s", serve_s, "s"},
      {"campaign.worker_run_s", per_job("campaign.worker_run"), "s"},
      {"campaign.replay_s", per_job("campaign.replay"), "s"},
      {"campaign.durable_serve_s",
       tracer.job_total(kPrepareJob, "campaign.durable_serve"), "s"},
      count("campaign.points_executed", job_counts, "campaign.points_executed"),
      count("campaign.points_replayed", job_counts, "campaign.points_replayed"),
      {"sweep.point_exec_p50_ms", percentile(point_exec_ms, 50), "ms"},
      {"sweep.point_exec_p99_ms", percentile(point_exec_ms, 99), "ms"},
      {"campaign.overhead_share",
       serve_s > 0.0
           ? 1.0 - exec_sum_ms / 1e3 / (CampaignWorkload::kSlots * serve_s)
           : 0.0,
       "ratio"},
      count("campaign.record_bytes", job_counts, "campaign.record_bytes"),
      {"trace.overhead_share",
       ratio(median(traced_job_s), median(plain_job_s)) - 1.0, "ratio"},
  };
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed" || key == "seconds") {
      try {
        if (key == "seed") {
          args.seed = std::stoull(value);
        } else {
          args.seconds = std::stod(value);
        }
      } catch (const std::exception&) {
        return false;
      }
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "expect") {
      args.expect = value;
    } else if (key == "out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--expect=HEX] [--out-dir=DIR]\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report from a '%s' build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.out_dir);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s host_threads=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());

  // Closed loop: jobs back to back until the budget is spent. The first
  // job warms caches and the allocator: it is checked like every other but
  // left out of the reported figures, set-ups included. After it, a traced run
  // alternates traced and untraced jobs so the tracing overhead is the
  // difference between the two; it needs two traced jobs to check that
  // the work counts repeat exactly.
  const std::size_t min_jobs = args.trace ? 4 : 3;
  constexpr double kHardStopS = 110.0;
  Tracer tracer;
  Ledger ledger;
  std::vector<Job> jobs;
  std::vector<double> setups;
  std::size_t warmup_setups = 0;
  // Peak resident memory of set-up plus one job: later jobs only add
  // allocator fragmentation, which would tie the figure to the job count.
  double rss_mb = 0.0;
  tracer.set_job(kPrepareJob, args.trace);
  try {
    workload->prepare(tracer, ledger);
  } catch (const std::exception& error) {
    ledger.fail(std::string("preparation threw: ") + error.what());
  }
  const double loop_start = now_s();
  while (jobs.size() < min_jobs || now_s() - loop_start < args.seconds) {
    if (now_s() - loop_start > kHardStopS) break;
    const int index = static_cast<int>(jobs.size());
    const bool traced = args.trace && index % 2 == 1;
    tracer.set_job(index, traced);
    try {
      Job job = workload->run_job(tracer, setups, ledger, index);
      job.traced = traced;
      job.warmup = index == 0;
      if (job.warmup) warmup_setups = setups.size();
      std::printf("# job %d%s point_s=%.4f job_s=%.4f fast_path_s=%.4f "
                  "digest=%s peak_rss_mb=%.1f\n",
                  index, traced ? " traced" : "", job.point_s, job.job_s,
                  job.fast_path_s, hex(job.digest).c_str(), peak_rss_mb());
      jobs.push_back(std::move(job));
      if (jobs.size() == 1) rss_mb = peak_rss_mb();
    } catch (const std::exception& error) {
      ledger.fail("job " + std::to_string(index) + " threw: " + error.what());
      break;
    }
  }
  tracer.set_job(-1, false);
  if (jobs.empty()) {
    std::fprintf(stderr, "perfbench: no job completed\n");
    return 1;
  }

  // Determinism: every job computes the same simulated results, and (for
  // committed seeds) the same ones as expected.json records.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    ledger.check(jobs[i].digest == jobs[0].digest,
                 "job " + std::to_string(i) + " digest " + hex(jobs[i].digest) +
                     " differs from job 0's " + hex(jobs[0].digest));
  }
  if (!args.expect.empty()) {
    ledger.check(hex(jobs[0].digest) == args.expect,
                 "digest " + hex(jobs[0].digest) + " differs from the "
                 "committed " + args.expect);
  }
  std::printf("# digest %s\n", hex(jobs[0].digest).c_str());
  try {
    workload->final_checks(jobs, ledger);
  } catch (const std::exception& error) {
    ledger.fail(std::string("final check threw: ") + error.what());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> fast_path_runs;
    for (const Job& job : jobs) {
      if (job.warmup) continue;
      fast_path_runs.insert(fast_path_runs.end(), job.fast_path_runs.begin(),
                            job.fast_path_runs.end());
    }
    const std::vector<double> mips = collect(jobs, false, [](const Job& j) {
      return ratio(j.detailed_instructions, j.detailed_s) / 1e6;
    });
    const std::vector<double> point_rates = collect(
        jobs, false, [](const Job& j) { return ratio(1.0, j.point_s); });
    const std::vector<double> setup_runs(setups.begin() + warmup_setups,
                                         setups.end());
    metrics = {
        {"host_mips", fast_rate(mips), "M_instr/s"},
        {"setup_s", fast_time(setup_runs), "s"},
        {"points_per_s", fast_rate(point_rates), "1/s"},
        {"fast_path_s", fast_time(fast_path_runs), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    // The median and sample count beside each fast-end figure.
    const std::vector<std::pair<const char*, const std::vector<double>*>>
        samples = {{"host_mips", &mips},
                   {"setup_s", &setup_runs},
                   {"points_per_s", &point_rates},
                   {"fast_path_s", &fast_path_runs}};
    for (const auto& [name, values] : samples) {
      std::printf("# %s median %.9g n=%zu\n", name, median(*values),
                  values->size());
    }
    print_workload_metrics(args, jobs, ledger);
  } else {
    // Exact work counts must repeat across traced jobs.
    const Job* first = nullptr;
    for (const Job& job : jobs) {
      if (!job.traced) continue;
      if (first == nullptr) {
        first = &job;
        continue;
      }
      ledger.check(job.counts == first->counts,
                   "work counts differ between traced jobs");
    }
    const int isolation_job = static_cast<int>(jobs.size());
    Counts iso_counts;
    std::uint64_t replay_instructions = 0;
    tracer.set_job(isolation_job, true);
    try {
      workload->isolate(tracer, iso_counts, replay_instructions);
    } catch (const std::exception& error) {
      ledger.fail(std::string("isolation replay threw: ") + error.what());
    }
    tracer.set_job(-1, false);
    metrics = layer_metrics(tracer, jobs, isolation_job, iso_counts,
                            replay_instructions,
                            args.workload == "campaign-small-points");
    const std::string spans_path =
        (fs::path(args.out_dir) /
         (args.workload + "-seed" + std::to_string(args.seed) + ".spans.json"))
            .string();
    tracer.write_json(spans_path);
    std::printf("# spans %s (%zu)\n", spans_path.c_str(),
                tracer.spans().size());
  }
  for (const Metric& metric : metrics) {
    std::printf("# %s %.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", render_result(ledger, ledger.failed == 0, metrics).c_str());
  return 0;
}
