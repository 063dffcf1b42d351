// fleetbench: the fleet-driver benchmark binary.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>] [--source-id <id>]
//
// A pass builds a driver from the seed (set-up) and runs it to a fixed
// server step, so every pass from one seed does identical work.
// --trace 0 makes at least three passes, and more while another one still
// fits in --seconds of wall time, then prints the end-to-end metrics: set-up
// time (median of the set-ups), updates/s (step by step, fastest pass),
// server-side report latency (report by report, fastest pass), peak RSS, and
// the eval loss at a fixed server step.  Every pass must reach that step with
// a bit-identical model.
// --trace 1 makes one untraced and one traced pass, prints the per-layer
// table and writes the traced spans as Chrome trace-event JSON.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit status is 1 when any output check failed.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "driver.hpp"

#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif
#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fleetbench;

constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source-id <id>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else if (key == "--source-id") {
      a.source_id = v;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double vm_hwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        model.erase(0, model.find_first_not_of(" \t"));
        model.erase(model.find_last_not_of(" \t\n") + 1);
      }
      break;
    }
  }
  std::fclose(f);
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double percentile_of(const std::vector<std::int64_t>& v, double q, double unit) {
  return percentile(v, q) / unit;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void note_run(const RunResult& r) {
    attempted_ += r.ops_attempted;
    failed_ += r.ops_failed;
    for (const auto& f : r.failures) failures_.push_back(f);
  }
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  bool correct() const { return failed_ == 0; }

  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& f : failures_) std::printf("FAILED CHECK: %s\n", f.c_str());
    std::printf("error_rate: %.6g (%llu failed of %llu attempted)\n",
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  }
  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Wall time of a fixed integer loop (xorshift, ~0.5 ms) on the calling
/// thread's core.
std::int64_t probe_ns() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
  return now_ns() - t0;
}

/// One core for the driver thread, the others for the aggregator workers.
///
/// The cores of a shared host are not equally fast: now and then one vCPU
/// runs a compute loop twice as slowly as the others, for seconds at a
/// time.  So before each set-up the plan
/// probes every allowed core and gives the driver the one where the probe
/// ran fastest; a core busy with another process (of this benchmark or not)
/// is slow to the probe as well, so two benchmark processes are not stacked
/// onto one core.  Workers are started during set-up and inherit the
/// set-up thread's affinity, so set-up runs on the worker cores and the
/// driver then moves to its own: a worker woken by an enqueue never
/// preempts the driver.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) cpus_.push_back(cpu);
    }
  }
  /// Picks the currently fastest core for the driver.
  void place() {
    if (cpus_.empty()) return;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const int cpu : cpus_) {
      if (!pin_to(cpu)) continue;
      std::vector<std::int64_t> samples;
      for (int i = 0; i < 7; ++i) samples.push_back(probe_ns());
      std::nth_element(samples.begin(), samples.begin() + 3, samples.end());
      if (samples[3] < best) {
        best = samples[3];
        driver_cpu_ = cpu;
      }
    }
  }
  void for_setup() const {
    if (driver_cpu_ < 0) return;
    cpu_set_t workers;
    CPU_ZERO(&workers);
    for (const int cpu : cpus_) {
      if (cpu != driver_cpu_) CPU_SET(cpu, &workers);
    }
    (void)sched_setaffinity(0, sizeof workers, &workers);
  }
  void for_run() const {
    if (driver_cpu_ >= 0) (void)pin_to(driver_cpu_);
  }

 private:
  static bool pin_to(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  std::vector<int> cpus_;
  int driver_cpu_ = -1;
};

CpuPlan& cpu_plan() {
  static CpuPlan plan;
  return plan;
}

/// Builds a driver and returns its set-up wall time.
double timed_setup(const WorkloadSpec& spec, std::unique_ptr<Driver>& out) {
  cpu_plan().place();
  cpu_plan().for_setup();
  const std::int64_t t0 = now_ns();
  out = make_driver(spec);
  const std::int64_t t1 = now_ns();
  cpu_plan().for_run();
  return 1e-9 * static_cast<double>(t1 - t0);
}

/// Update rate over a pass's server steps, step 1 to the last (the fill
/// before the first step is left out).  Every pass from one seed does
/// identical work, so the interval between steps k and k+1 is the same work
/// in every pass; its duration is taken as the shortest over the passes.
/// Interference from other tenants of the host only adds time, and it comes
/// in bursts shorter than a pass, so the least-disturbed pass of each
/// interval is the best estimate of the program's own cost.
double updates_per_s(const std::vector<RunResult>& passes, std::size_t goal) {
  const std::size_t steps = passes.front().step_s.size();
  if (steps < 2) return 0.0;
  double total_s = 0.0;
  for (std::size_t k = 0; k + 1 < steps; ++k) {
    double shortest = std::numeric_limits<double>::infinity();
    for (const RunResult& p : passes) {
      shortest = std::min(shortest, p.step_s[k + 1] - p.step_s[k]);
    }
    total_s += shortest;
  }
  return static_cast<double>(goal * (steps - 1)) / total_s;
}

/// Server-side time of each report, from the pass in which it was fastest.
/// Report i is the same call on the same bytes in every pass from one seed,
/// so, as for the step intervals, the shortest time is the one least
/// disturbed by the host.  Empty when the passes made different numbers of
/// reports (a failed check).
std::vector<std::int64_t> fastest_reports(const std::vector<RunResult>& passes) {
  std::vector<std::int64_t> fastest = passes.front().report_ns;
  for (const RunResult& p : passes) {
    if (p.report_ns.size() != fastest.size()) return {};
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], p.report_ns[i]);
    }
  }
  return fastest;
}

void end_to_end(const Args& args, const WorkloadSpec& spec, Report& report) {
  const std::size_t goal = spec.sim.task.aggregation_goal;
  std::vector<double> setups;
  std::vector<RunResult> passes;
  double timed_s = 0.0;
  // Another pass starts only while one as long as the longest so far still
  // ends within --seconds of wall time.
  const std::int64_t start_ns = now_ns();
  std::int64_t longest_pass_ns = 0;
  while (passes.size() < kMinPasses ||
         (passes.size() < kMaxPasses &&
          1e-9 * static_cast<double>(now_ns() - start_ns + longest_pass_ns) <=
              args.seconds)) {
    const std::int64_t pass_start = now_ns();
    std::unique_ptr<Driver> driver;
    setups.push_back(timed_setup(spec, driver));
    Tracer off(false);
    passes.push_back(driver->run(spec.run_steps, off));
    timed_s += passes.back().timed_s;
    longest_pass_ns = std::max(longest_pass_ns, now_ns() - pass_start);
  }
  while (setups.size() < kSetups) {
    std::unique_ptr<Driver> driver;
    setups.push_back(timed_setup(spec, driver));
  }

  double check_s = 0.0;
  const RunResult& first = passes.front();
  for (const RunResult& p : passes) {
    report.note_run(p);
    check_s += p.check_s;
    report.expect(p.checkpoint_reached, "checkpoint step not reached");
    report.expect(p.checkpoint_hash == first.checkpoint_hash &&
                      p.step_s.size() == first.step_s.size() &&
                      p.report_ns.size() == first.report_ns.size(),
                  "a pass from the same seed produced a different model");
  }
  const std::vector<std::int64_t> report_ns = fastest_reports(passes);

  const std::size_t n = report_ns.size();
  std::printf("passes: %zu to step %llu, %.3f s timed, %.3f s of checks excluded\n",
              passes.size(), static_cast<unsigned long long>(spec.run_steps),
              timed_s, check_s);
  std::printf("reports: %zu taken, %zu per pass (p99 of the per-report fastest "
              "has %zu beyond it)\n",
              n * passes.size(), n,
              n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))));
  std::printf("task per pass: received=%llu applied=%llu discarded=%llu "
              "steps=%llu aborted=%llu participations=%llu dropouts=%llu "
              "expired=%llu events=%llu examples=%llu\n",
              static_cast<unsigned long long>(first.task.updates_received),
              static_cast<unsigned long long>(first.task.updates_applied),
              static_cast<unsigned long long>(first.task.updates_discarded),
              static_cast<unsigned long long>(first.task.server_steps),
              static_cast<unsigned long long>(first.task.clients_aborted),
              static_cast<unsigned long long>(first.participations),
              static_cast<unsigned long long>(first.dropouts),
              static_cast<unsigned long long>(first.expired),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.examples_trained));
  std::printf("pass rates (1/s):");
  for (const RunResult& p : passes) std::printf(" %.1f", updates_per_s({p}, goal));
  std::printf("\n");
  std::printf("model_hash: step %llu %016llx in all %zu passes: %s\n",
              static_cast<unsigned long long>(spec.checkpoint_steps),
              static_cast<unsigned long long>(first.checkpoint_hash), passes.size(),
              std::all_of(passes.begin(), passes.end(),
                          [&](const RunResult& p) {
                            return p.checkpoint_hash == first.checkpoint_hash;
                          })
                  ? "identical"
                  : "DIFFERENT");

  // The median report is not gated: on secagg-train it is one ~5 us copy of
  // a contribution into cold memory, whose time follows the host's shared
  // cache more than the program (README, "Measured spread").  The traced
  // run reports it as fl.report.p50_us.
  std::printf("report p50 (not gated): %.3f us\n", percentile_of(report_ns, 0.50, 1e3));

  report.add("setup_s", median(setups), "s");
  report.add("updates_per_s", updates_per_s(passes, goal), "1/s");
  report.add("report_p99_us", percentile_of(report_ns, 0.99, 1e3), "us");
  report.add("peak_rss_mb", vm_hwm_mb(), "MB");
  report.add("final_loss", first.checkpoint_loss, "nats");
}

void per_layer(const Args& args, const WorkloadSpec& spec, Report& report) {
  const std::size_t goal = spec.sim.task.aggregation_goal;
  RunResult untraced;
  {
    std::unique_ptr<Driver> driver;
    timed_setup(spec, driver);
    Tracer off(false);
    untraced = driver->run(spec.run_steps, off);
  }
  Tracer tracer(true, spec.trace_sample_period);
  RunResult r;
  {
    std::unique_ptr<Driver> driver;
    timed_setup(spec, driver);
    r = driver->run(spec.run_steps, tracer);
  }
  report.note_run(untraced);
  report.note_run(r);
  report.expect(r.checkpoint_hash == untraced.checkpoint_hash,
                "tracing changed the model trajectory");

  auto self = [&](Layer l) { return tracer.stats(l).self_s(); };
  auto calls = [&](Layer l) { return static_cast<double>(tracer.stats(l).calls); };
  auto p50 = [&](Layer l, double unit) {
    return percentile_of(tracer.stats(l).durations_ns, 0.50, unit);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double elapsed = r.timed_s + r.check_s;
  const double top_level = 1e-9 * static_cast<double>(tracer.top_level_ns());
  const double check_total =
      1e-9 * static_cast<double>(tracer.stats(Layer::kCheck).total_ns);
  const double driver_self = elapsed - top_level;
  const double coverage = ratio(top_level - check_total, elapsed - check_total);
  const double upload_busy = self(Layer::kUploadClient) + self(Layer::kUploadServer);

  report.add("sim.event_queue.events", static_cast<double>(r.events), "count");
  report.add("sim.event_queue.self_s", self(Layer::kEventQueue), "s");
  report.add("sim.event_queue.ns_per_event",
             ratio(1e9 * self(Layer::kEventQueue), static_cast<double>(r.events)), "ns");
  report.add("sim.checkin.calls", calls(Layer::kCheckin), "count");
  report.add("sim.checkin.busy_s", self(Layer::kCheckin), "s");
  report.add("sim.participation.busy_s", self(Layer::kParticipation), "s");
  report.add("sim.tick.busy_s", self(Layer::kTick), "s");
  report.add("fl.selection.busy_s", self(Layer::kSelection), "s");
  report.add("fl.selection.join_accept_ratio",
             ratio(static_cast<double>(r.joins_accepted),
                   static_cast<double>(r.join_calls)), "ratio");
  report.add("fl.download.busy_s", self(Layer::kDownload), "s");
  report.add("fl.download.bytes", static_cast<double>(r.download_bytes), "bytes");
  report.add("ml.train.calls", calls(Layer::kTrain), "count");
  report.add("ml.train.busy_s", self(Layer::kTrain), "s");
  report.add("ml.train.p50_ms", p50(Layer::kTrain, 1e6), "ms");
  report.add("ml.train.examples_per_s",
             ratio(static_cast<double>(r.examples_trained), self(Layer::kTrain)), "1/s");
  report.add("ml.eval.calls", calls(Layer::kEval), "count");
  report.add("ml.eval.busy_s", self(Layer::kEval), "s");
  report.add("fl.upload.client_busy_s", self(Layer::kUploadClient), "s");
  report.add("fl.upload.server_busy_s", self(Layer::kUploadServer), "s");
  report.add("fl.upload.bytes", static_cast<double>(r.upload_bytes), "bytes");
  report.add("fl.upload.chunks", static_cast<double>(r.upload_chunks), "count");
  report.add("fl.upload.mb_per_s",
             ratio(1e-6 * static_cast<double>(r.upload_bytes), upload_busy), "MB/s");
  report.add("fl.upload.failed", static_cast<double>(r.upload_failed), "count");
  report.add("fl.report.p50_us", percentile_of(untraced.report_ns, 0.50, 1e3), "us");
  report.add("fl.aggregator.report_busy_s", self(Layer::kAggReport), "s");
  report.add("fl.aggregator.report_p50_us", p50(Layer::kAggReport, 1e3), "us");
  report.add("fl.aggregator.steps", static_cast<double>(r.task.server_steps), "count");
  report.add("fl.aggregator.step_busy_s", self(Layer::kAggStep), "s");
  report.add("fl.aggregator.step_p50_ms", p50(Layer::kAggStep, 1e6), "ms");
  report.add("fl.aggregator.useful_ratio",
             ratio(static_cast<double>(r.task.updates_applied),
                   static_cast<double>(r.task.updates_received)), "ratio");
  report.add("fl.aggregator.aborted", static_cast<double>(r.task.clients_aborted), "count");
  report.add("fl.aggregator.sweep_busy_s", self(Layer::kSweep), "s");
  report.add("secagg.config_busy_s", self(Layer::kSecConfig), "s");
  report.add("secagg.prepare.calls", calls(Layer::kSecPrepare), "count");
  report.add("secagg.prepare.busy_s", self(Layer::kSecPrepare), "s");
  report.add("secagg.prepare.p50_ms", p50(Layer::kSecPrepare, 1e6), "ms");
  report.add("secagg.buffer_busy_s", self(Layer::kSecBuffer), "s");
  report.add("secagg.report_busy_s", self(Layer::kSecFlush), "s");
  report.add("secagg.flush_p50_ms", p50(Layer::kSecFlush, 1e6), "ms");
  report.add("secagg.step_busy_s", self(Layer::kSecStep), "s");
  report.add("fl.model_store.writes", static_cast<double>(r.model_store.writes), "count");
  report.add("fl.model_store.stall_s", r.model_store.stall_s, "s");
  report.add("fl.model_store.busy_s", self(Layer::kModelStore), "s");
  report.add("trace.timed_s", r.timed_s, "s");
  report.add("trace.coverage", coverage, "ratio");
  report.add("trace.overhead",
             ratio(updates_per_s({r}, goal), updates_per_s({untraced}, goal)) - 1.0,
             "ratio");
  report.add("trace.spans_kept", static_cast<double>(tracer.kept_spans()), "count");
  report.add("driver.self_s", driver_self, "s");

  // Shares of traced wall time by layer group, largest first.
  std::map<std::string, double> groups;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCheck); ++i) {
    const auto layer = static_cast<Layer>(i);
    std::string name = layer_name(layer);
    name = name.substr(0, name.find('.', name.find('.') + 1));
    if (name.rfind("sim.", 0) == 0) name = "sim";
    if (name.rfind("secagg.", 0) == 0) name = "secagg";
    groups[name] += self(layer);
  }
  groups["driver"] = driver_self;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, s] : groups) ranked.emplace_back(s, name);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("layer shares of %.3f s traced (checks excluded):\n", r.timed_s);
  for (const auto& [s, name] : ranked) {
    if (s <= 0.0) continue;
    std::printf("  %-22s %8.3f s  %5.1f%%\n", name.c_str(), s,
                100.0 * ratio(s, r.timed_s));
  }
  std::printf("dominant layer: %s\n", ranked.front().second.c_str());
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_json(args.trace_out)) {
      std::printf("trace: %zu spans -> %s\n", tracer.kept_spans(),
                  args.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  WorkloadSpec spec;
  try {
    spec = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  std::printf("repro: fleetbench --workload %s --seed %llu --seconds %g --trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
              FLEETBENCH_COMPILER, FLEETBENCH_BUILD_TYPE, args.source_id.c_str());
  std::fflush(stdout);

  Report report;
  try {
    if (args.trace) {
      per_layer(args, spec, report);
    } else {
      end_to_end(args, spec, report);
    }
  } catch (const std::exception& e) {
    std::printf("fleetbench: %s\n", e.what());
    return 1;
  }
  report.print_table();
  report.print_json();
  return report.correct() ? 0 : 1;
}
