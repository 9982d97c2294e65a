// Live end-to-end benchmark of the engine: drives runtime::LocalCluster
// through its public API with the benchmark's own spout and count
// operators, times the run from outside, checks every output against a
// tally computed apart from the engine, and prints one JSON result line.
//
//   live_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, and prints the per-layer
// ledger (the benchmark's own span self times plus engine counters) and
// the tracing overhead between the two runs. Spans are written to
// .bench_out/ when the traced run ends. Human-readable detail goes to
// stderr; the last line of stdout is the result.

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_topology.h"
#include "checks.h"
#include "common/logging.h"
#include "observability/trace.h"
#include "packing/packing_registry.h"
#include "runtime/local_cluster.h"
#include "span_log.h"
#include "statemgr/state_manager.h"

using namespace perfbench;
namespace keys = heron::config_keys;

namespace {

struct Workload {
  std::string name;
  int spouts = 1;
  int sinks = 1;
  int containers = 1;
  std::string execution;
  std::string transport;
  bool acking = true;
  double rate_per_spout = 0;
  /// > 0: exactly-once checkpointing, triggered by the benchmark at this
  /// cadence inside the measured window. 0: checkpointing off.
  int64_t checkpoint_cadence_ms = 0;
  /// Spouts time every n-th word's lateness and (acking) its latency;
  /// without acks the sinks time every n-th tuple.
  uint64_t sample_every = 8;
};

constexpr size_t kDictionarySize = 450000;
/// Cold submissions timed before each measured submission, so set-up is
/// sampled across the whole run rather than in one burst at its start.
constexpr int kColdStarts = 11;
constexpr double kWarmupSeconds = 1.5;
/// The untraced measurement is split over this many fresh submissions
/// and pooled, so no single start-up's thread placement sets the result.
/// peak_rss_mb is the median of the submissions' window peaks.
constexpr int kSubmissions = 5;
constexpr int kPackRepeats = 5;
/// Traced runs: the engine samples one tuple in this many for its stage
/// spans, the benchmark one in kSpanEvery for its own.
constexpr int64_t kTraceSampleInverse = 1024;
constexpr uint64_t kSpanEvery = 256;

// Both workloads are open loop: spouts send on a fixed schedule that does
// not slow when the engine does, well below the shape's closed-loop
// capacity. On a shared 4-vCPU virtual machine the hypervisor stole up to
// a third of the CPU, varying over minutes; a closed loop turns that
// straight into throughput (-13% at 10% steal), and latency follows it in
// both loops.
std::vector<Workload> Workloads() {
  std::vector<Workload> w(2);
  // The paper's acking WordCount (section VI-A) on the cooperative engine;
  // closed-loop capacity of this shape is about 330k/s. At 160k/s a window
  // with a third of the CPU stolen left the generator 7 s behind.
  w[0].name = "wordcount-acking";
  w[0].spouts = 2;
  w[0].sinks = 4;
  w[0].containers = 2;
  w[0].execution = "cooperative";
  w[0].transport = "in-process";
  w[0].rate_per_spout = 60000;

  // No acks, a checkpoint each second, the socket wire, one thread per
  // instance; closed-loop capacity of this shape is about 1.4M/s.
  w[1].name = "wordcount-exactly-once-socket";
  w[1].spouts = 2;
  w[1].sinks = 3;
  w[1].containers = 3;
  w[1].execution = "thread";
  w[1].transport = "socket";
  w[1].acking = false;
  w[1].rate_per_spout = 300000;
  w[1].checkpoint_cadence_ms = 1000;
  w[1].sample_every = 32;
  return w;
}

heron::Config MakeConfig(const Workload& w, bool traced) {
  heron::Config c;
  c.SetInt(keys::kNumContainersHint, w.containers);
  c.SetBool(keys::kAckingEnabled, w.acking);
  c.SetInt(keys::kMessageTimeoutMs, 30000);
  c.Set(keys::kExecutionMode, w.execution);
  c.Set(keys::kTransportMode, w.transport);
  // Exactly-once checkpointing with no periodic cadence: only the
  // benchmark triggers checkpoints.
  if (w.checkpoint_cadence_ms > 0) {
    c.Set(keys::kCheckpointMode, "exactly-once");
    c.SetInt(keys::kCheckpointIntervalMs, 0);
  }
  // No heartbeat monitor: the benchmark polls the checkpoint coordinator
  // itself (see TakeCheckpoint), so no liveness scan can mistake a busy
  // container for a dead one. Metrics are collected once a second.
  c.SetInt(keys::kMetricsCollectIntervalMs, 1000);
  if (traced) c.SetInt(keys::kTraceSampleInverse, kTraceSampleInverse);
  return c;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Machine-wide CPU time stolen by the hypervisor, in seconds (the
/// `steal` column of /proc/stat), 0 where it cannot be read. Reported
/// beside each window: a window that lost CPU to other guests reads slow
/// for reasons outside the engine.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  if (!stat || cpu != "cpu") return 0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The process's resident set now (VmRSS of /proc/self/status), in MB.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Linear-interpolated quantile; `v` is sorted in place.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (pos - static_cast<double>(lo));
}

double QuantileNs(const std::vector<int64_t>& ns, double q) {
  std::vector<double> v(ns.begin(), ns.end());
  return Quantile(&v, q);
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99.99 (the metric's name).
double TailQ(size_t n) {
  if (n < 40) return 0.5;
  return std::min(0.9999, 1.0 - 10.0 / static_cast<double>(n));
}

/// Progress marks on stderr, so a stuck run shows where it stopped.
const int64_t kProcessStart = NowNs();

void Phase(const char* what) {
  std::fprintf(stderr, "[%8.3f s] %s\n",
               static_cast<double>(NowNs() - kProcessStart) / 1e9, what);
}

bool WaitFor(const std::function<bool()>& done, double timeout_s,
             int64_t poll_ns = 100000) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll_ns));
  }
  return true;
}

std::shared_ptr<RunShared> MakeShared(const Workload& w, const Dictionary& dict,
                                      uint64_t seed, bool traced) {
  auto s = std::make_shared<RunShared>();
  s->dict = &dict;
  s->seed = seed;
  s->acking = w.acking;
  s->rate_per_spout = w.rate_per_spout;
  s->sample_every = w.sample_every;
  s->traced = traced;
  s->span_every = kSpanEvery;
  return s;
}

// ---------------------------------------------------------------------------
// Set-up: cold submissions and packing.

struct SetupResult {
  std::vector<double> setup_s;
  std::vector<double> submit_ms;
  std::vector<double> first_result_ms;
  std::vector<double> pack_ms;
  std::vector<std::string> errors;
};

/// Adds kColdStarts cold submissions, each timed up to its first counted
/// tuple, to `out`.
void MeasureColdStarts(const Workload& w, const Dictionary& dict,
                       uint64_t seed, SpanBuffer* driver, SetupResult* out) {
  SetupResult& r = *out;
  for (int i = 0; i < kColdStarts; ++i) {
    auto shared = MakeShared(w, dict, seed, false);
    auto topology = BuildTopology(
        w.name + "-cold" + std::to_string(r.setup_s.size()), w.spouts, w.sinks,
        shared, MakeConfig(w, false));
    heron::runtime::LocalCluster cluster;
    const int32_t root = driver->Begin(SpanName::kColdStart, 0, -1);
    const int32_t submit = driver->Begin(SpanName::kSubmit, 0, -1, root);
    const int64_t t0 = NowNs();
    const heron::Status st = cluster.Submit(topology);
    const int64_t t1 = NowNs();
    driver->End(submit);
    if (!st.ok()) {
      r.errors.push_back("cold submit failed: " + st.ToString());
      driver->End(root);
      return;
    }
    const bool first = WaitFor(
        [&] { return shared->first_count_ns.load() != 0; }, 30.0, 20000);
    driver->End(root);
    shared->stop = true;
    const int32_t kill = driver->Begin(SpanName::kKill, 0, -1);
    cluster.Kill().ok();
    driver->End(kill);
    if (!first) {
      r.errors.push_back("cold start: no tuple reached a sink in 30 s");
      return;
    }
    const int64_t t2 = shared->first_count_ns.load();
    r.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    r.submit_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    r.first_result_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
}

/// Times IPacking::Pack alone on the workload topology, into `out`.
void MeasurePacking(const Workload& w, const Dictionary& dict, uint64_t seed,
                    SpanBuffer* driver, SetupResult* out) {
  SetupResult& r = *out;
  auto shared = MakeShared(w, dict, seed, false);
  const heron::Config config = MakeConfig(w, false);
  auto topology = BuildTopology(w.name + "-pack", w.spouts, w.sinks, shared,
                                config);
  if (topology == nullptr) {
    r.errors.push_back("topology did not build");
    return;
  }
  for (int i = 0; i < kPackRepeats; ++i) {
    auto packing =
        heron::packing::PackingRegistry::Global()->CreateFromConfig(config);
    if (!packing.ok() || !(*packing)->Initialize(config, topology).ok()) {
      r.errors.push_back("packing initialize failed");
      return;
    }
    const int32_t span = driver->Begin(SpanName::kPack, 0, -1);
    const int64_t t0 = NowNs();
    const bool packed = (*packing)->Pack().ok();
    const int64_t t1 = NowNs();
    driver->End(span);
    if (!packed) {
      r.errors.push_back("packing failed");
      return;
    }
    r.pack_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
}

// ---------------------------------------------------------------------------
// The measured run.

/// Engine counters read at the window edges.
struct CounterSnap {
  uint64_t instance_busy_ns = 0;
  uint64_t smgr_busy_ns = 0;
  uint64_t executed = 0;
  uint64_t aligned_buffered = 0;
  uint64_t routed = 0;
  uint64_t batches_out = 0;
  uint64_t bytes_out = 0;
  uint64_t payload_touches = 0;
  uint64_t backpressure_starts = 0;
  uint64_t backpressure_ns = 0;
  heron::ipc::FabricStats fabric;

  static CounterSnap Read(heron::runtime::LocalCluster* c) {
    CounterSnap s;
    s.instance_busy_ns = c->SumCounter("instance.loop.busy.ns");
    s.smgr_busy_ns = c->SumSmgrCounter("smgr.loop.busy.ns");
    s.executed = c->SumCounter("instance.executed");
    s.aligned_buffered = c->SumCounter("instance.aligned.buffered");
    s.routed = c->SumSmgrCounter("smgr.tuples.routed");
    s.batches_out = c->SumSmgrCounter("smgr.batches.out");
    s.bytes_out = c->SumSmgrCounter("smgr.bytes.out");
    s.payload_touches = c->SumSmgrCounter("smgr.payload_touches");
    s.backpressure_starts = c->SumSmgrCounter("smgr.backpressure.starts");
    s.backpressure_ns = c->SumSmgrCounter("smgr.backpressure.duration.ns");
    s.fabric = c->transport()->fabric_stats();
    return s;
  }
};

struct CheckpointOutcome {
  double duration_ms = 0;
  uint64_t snapshot_bytes = 0;
  CutReport cut;
  bool completed = false;
};

struct RunResult {
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double window_s = 0;
  double cpu_s = 0;
  double steal_s = 0;  ///< Whole-machine steal over the window.
  std::vector<double> rss_mb;  ///< Resident set at the end of each second.
  std::vector<double> peak_rss_mb;  ///< Largest of rss_mb, per submission.
  uint64_t completed = 0;  ///< Trees acked, or tuples counted, in window.
  std::vector<double> per_second;  ///< Completions in each second.
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> sink_latency_ns;
  std::vector<int64_t> lateness_ns;
  std::vector<CheckpointOutcome> checkpoints;
  uint64_t checkpoints_triggered = 0;
  uint64_t checkpoints_completed = 0;

  CounterSnap c0, c1;
  int tasks = 0;
  int containers = 0;
  heron::observability::TopologySnapshot::SchedulerSummary scheduler;
  heron::observability::TraceBreakdown breakdown;
  uint64_t dropped_spans = 0;

  double tally_s = 0;

  std::map<SpanName, SelfTime> self_times;
  double ack_return_p50_ms = 0;
  std::string spans_json;
};

CheckpointOutcome TakeCheckpoint(heron::runtime::LocalCluster* cluster,
                                 const std::string& topology,
                                 SpanBuffer* driver, bool traced,
                                 std::vector<std::string>* errors) {
  CheckpointOutcome out;
  auto* coordinator = cluster->checkpoint_coordinator();
  const int32_t span = traced ? driver->Begin(SpanName::kCheckpoint, 0, -1) : -1;
  const int64_t t0 = NowNs();
  const uint64_t id = cluster->TriggerCheckpoint();
  if (id == 0) {
    errors->push_back("checkpoint trigger refused");
    return out;
  }
  const bool done = WaitFor(
      [&] {
        coordinator->Tick(NowNs());
        return coordinator->latest_complete() >= id;
      },
      20.0, 100000);
  out.duration_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (span >= 0) driver->End(span);
  if (!done) {
    errors->push_back("checkpoint " + std::to_string(id) +
                      " did not complete in 20 s");
    return out;
  }
  out.completed = true;
  // The consistent-cut check reads this checkpoint's snapshots before the
  // next completion garbage-collects them.
  auto plan = cluster->physical_plan();
  std::vector<uint64_t> cursors;
  std::vector<uint64_t> totals;
  for (const heron::TaskId task : plan->all_tasks()) {
    auto bytes = cluster->state_manager()->GetNodeData(
        heron::statemgr::paths::CheckpointTask(topology, id, task));
    if (!bytes.ok()) {
      errors->push_back("checkpoint " + std::to_string(id) +
                        ": snapshot of task " + std::to_string(task) +
                        " missing");
      continue;
    }
    out.snapshot_bytes += bytes->size();
    const std::string& component = plan->ComponentOfTask(task)->id;
    if (component == "word") {
      uint64_t cursor = 0;
      if (!DecodeSpoutSnapshot(*bytes, &cursor)) {
        errors->push_back("undecodable spout snapshot");
      }
      cursors.push_back(cursor);
    } else if (component == "count") {
      uint64_t total = 0;
      if (!DecodeSinkSnapshot(*bytes, nullptr, &total)) {
        errors->push_back("undecodable sink snapshot");
      }
      totals.push_back(total);
    }
  }
  out.cut = CheckCut(cursors, totals);
  if (!out.cut.ok()) {
    errors->push_back("checkpoint " + std::to_string(id) +
                      " is not a consistent cut: spout cursors " +
                      std::to_string(out.cut.spout_cursors) + " vs counts " +
                      std::to_string(out.cut.sink_totals));
  }
  return out;
}

RunResult RunWorkload(const Workload& w, const Dictionary& dict, uint64_t seed,
                      double seconds, bool traced, SpanBuffer* driver) {
  RunResult r;
  // Hand pages freed by earlier submissions and checks back to the system,
  // so the resident set sampled below is what this submission holds.
  malloc_trim(0);
  auto shared = MakeShared(w, dict, seed, traced);
  const std::string name = w.name + (traced ? "-traced" : "");
  auto topology = BuildTopology(name, w.spouts, w.sinks, shared,
                                MakeConfig(w, traced));
  if (topology == nullptr) {
    r.errors.push_back("topology did not build");
    return r;
  }
  heron::runtime::LocalCluster cluster;
  int32_t span = traced ? driver->Begin(SpanName::kSubmit, 0, -1) : -1;
  const heron::Status submitted = cluster.Submit(topology);
  if (span >= 0) driver->End(span);
  if (!submitted.ok()) {
    r.errors.push_back("submit failed: " + submitted.ToString());
    return r;
  }
  Phase("submitted");
  r.tasks = static_cast<int>(cluster.physical_plan()->all_tasks().size());
  r.containers = cluster.num_live_containers();
  if (!WaitFor([&] { return shared->first_count_ns.load() != 0; }, 30.0)) {
    r.errors.push_back("no tuple reached a sink in 30 s");
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(kWarmupSeconds * 1000)));

  auto completed = [&] {
    return w.acking ? shared->TotalAcked() : shared->TotalCounted();
  };
  Phase("warmed up, window starts");
  // -- Measured window. --
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t t0 = NowNs();
  shared->window_end_ns = t0 + window_ns;
  shared->window_start_ns = t0;
  const double cpu0 = CpuSeconds();
  const double steal0 = StealSeconds();
  const uint64_t done0 = completed();
  r.c0 = CounterSnap::Read(&cluster);
  // Per-second completions and resident set; checkpoints at their cadence.
  const int64_t cadence = w.checkpoint_cadence_ms * 1000000;
  int64_t next_checkpoint = cadence > 0 ? t0 + cadence : INT64_MAX;
  int64_t next_second = t0 + 1000000000;
  uint64_t last_done = done0;
  while (NowNs() < t0 + window_ns) {
    SleepUntil(std::min({next_checkpoint, next_second, t0 + window_ns}));
    const int64_t now = NowNs();
    if (now >= next_second) {
      const uint64_t done = completed();
      r.per_second.push_back(static_cast<double>(done - last_done));
      last_done = done;
      r.rss_mb.push_back(RssMb());
      next_second += 1000000000;
    }
    if (now >= next_checkpoint && now < t0 + window_ns) {
      r.checkpoints.push_back(
          TakeCheckpoint(&cluster, name, driver, traced, &r.errors));
      next_checkpoint += cadence;
    }
  }
  const int64_t t1 = NowNs();
  const double cpu1 = CpuSeconds();
  double peak_rss = RssMb();
  for (double mb : r.rss_mb) peak_rss = std::max(peak_rss, mb);
  r.peak_rss_mb.push_back(peak_rss);
  r.steal_s = StealSeconds() - steal0;
  const uint64_t done1 = completed();
  r.c1 = CounterSnap::Read(&cluster);
  r.window_s = static_cast<double>(t1 - t0) / 1e9;
  r.cpu_s = cpu1 - cpu0;
  r.completed = done1 - done0;

  Phase("window ends, draining");
  // -- Drain: stop the generators, wait until every word is accounted. --
  shared->stop = true;
  auto drained = [&] {
    const uint64_t emitted = shared->TotalEmitted();
    return (w.acking ? shared->TotalAcked() : shared->TotalCounted()) ==
           emitted;
  };
  // Settled twice, 50 ms apart: a spout may still be inside NextTuple when
  // the stop flag lands.
  bool settled = false;
  for (int tries = 0; tries < 600 && !settled; ++tries) {
    if (WaitFor(drained, 0.05, 1000000)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      settled = drained();
    }
  }
  if (!settled) {
    r.errors.push_back("drain: " + std::to_string(shared->TotalEmitted()) +
                       " words emitted, " +
                       std::to_string(w.acking ? shared->TotalAcked()
                                               : shared->TotalCounted()) +
                       " accounted after 30 s");
  }

  if (auto* coordinator = cluster.checkpoint_coordinator()) {
    r.checkpoints_triggered = coordinator->triggered();
    r.checkpoints_completed = coordinator->completed();
  }
  const uint64_t deaths =
      cluster.recovery_metrics()->GetCounter("recovery.deaths")->value();
  if (deaths != 0 || cluster.checkpoint_epoch() != 0) {
    r.errors.push_back("recovery during the run: " + std::to_string(deaths) +
                       " container deaths, epoch " +
                       std::to_string(cluster.checkpoint_epoch()));
  }
  const uint64_t timeouts = cluster.SumSmgrCounter("smgr.roots.timeout");
  if (timeouts != 0) {
    r.errors.push_back(std::to_string(timeouts) + " tuple trees timed out");
  }
  if (traced) {
    r.scheduler = cluster.BuildSnapshot().scheduler;
    r.breakdown =
        heron::observability::BuildTraceBreakdown(cluster.CollectSpans());
    r.dropped_spans = cluster.dropped_spans();
  }
  Phase(settled ? "drained, killing" : "drain incomplete, killing");
  span = traced ? driver->Begin(SpanName::kKill, 0, -1) : -1;
  const heron::Status killed = cluster.Kill();
  if (span >= 0) driver->End(span);
  if (!killed.ok()) r.errors.push_back("kill failed: " + killed.ToString());

  Phase("killed, checking");
  // -- Checks against the independent tally. --
  std::lock_guard<std::mutex> lock(shared->mu);
  const int spouts = w.spouts;
  std::vector<uint64_t> cursors(static_cast<size_t>(spouts), 0);
  for (int i = 0; i < spouts; ++i) cursors[i] = shared->emitted[i].Get();
  r.attempted = shared->TotalEmitted();
  if (static_cast<int>(shared->spouts.size()) != spouts ||
      static_cast<int>(shared->sinks.size()) != w.sinks) {
    r.errors.push_back("not every operator reported its outcome");
  }
  uint64_t bad = 0;
  for (const SpoutOutcome& s : shared->spouts) {
    r.latency_ns.insert(r.latency_ns.end(), s.ack_latency_ns.begin(),
                        s.ack_latency_ns.end());
    r.lateness_ns.insert(r.lateness_ns.end(), s.lateness_ns.begin(),
                         s.lateness_ns.end());
    if (!w.acking) continue;
    const AckReport acks = CheckAcks(s.ledger);
    if (s.ledger.emitted() != cursors[static_cast<size_t>(s.index)]) {
      r.errors.push_back("spout ledger disagrees with its emit counter");
    }
    if (!acks.ok()) {
      bad += acks.bad();
      r.errors.push_back(
          "spout " + std::to_string(s.index) + ": " +
          std::to_string(acks.never_acked) + " never acked, " +
          std::to_string(acks.dup_acks) + " acked twice, " +
          std::to_string(acks.unknown_acks) + " unknown, " +
          std::to_string(acks.fails) + " failed");
    }
  }
  std::vector<const WordCounts*> sink_counts;
  for (const SinkOutcome& s : shared->sinks) {
    sink_counts.push_back(&s.counts);
    r.sink_latency_ns.insert(r.sink_latency_ns.end(), s.latency_ns.begin(),
                             s.latency_ns.end());
  }
  if (!w.acking) r.latency_ns = r.sink_latency_ns;
  const int64_t tally0 = NowNs();
  const WordCounts tally = Tally(dict, seed, cursors);
  r.tally_s = static_cast<double>(NowNs() - tally0) / 1e9;
  const CountReport counts = CheckCounts(tally, sink_counts);
  if (!counts.ok()) {
    bad += counts.missing + counts.surplus;
    r.errors.push_back(
        "word counts differ from the tally: " + std::to_string(counts.missing) +
        " missing, " + std::to_string(counts.surplus) + " surplus, " +
        std::to_string(counts.unknown_words) + " unknown words, " +
        std::to_string(counts.split_words) + " words split across sinks");
  }
  r.failed = std::min(bad, r.attempted);
  for (const CheckpointOutcome& c : r.checkpoints) {
    if (!c.completed) ++r.failed;
  }

  if (traced) {
    // Self times per buffer, the ack return path joined by trace id, and
    // every span kept for the trace file.
    int buffer = 0;
    AccumulateSelfTimes(driver->spans(), &r.self_times);
    AppendSpansJson(driver->spans(), buffer++, &r.spans_json);
    std::unordered_map<uint64_t, int64_t> sink_done;
    for (const SinkOutcome& s : shared->sinks) {
      AccumulateSelfTimes(s.spans, &r.self_times);
      AppendSpansJson(s.spans, buffer++, &r.spans_json);
      for (const Span& sp : s.spans) {
        if (sp.name == SpanName::kSinkExecute) sink_done[sp.trace_id] = sp.end_ns;
      }
    }
    std::vector<int64_t> ack_return;
    for (const SpoutOutcome& s : shared->spouts) {
      AccumulateSelfTimes(s.spans, &r.self_times);
      AppendSpansJson(s.spans, buffer++, &r.spans_json);
      for (const Span& sp : s.spans) {
        if (sp.name != SpanName::kSpoutAck) continue;
        const auto it = sink_done.find(sp.trace_id);
        if (it != sink_done.end()) ack_return.push_back(sp.start_ns - it->second);
      }
    }
    r.ack_return_p50_ms = QuantileNs(ack_return, 0.5) / 1e6;
  }
  return r;
}

/// Adds one submission's end-to-end measurements to `into`.
void Pool(RunResult* into, RunResult&& part) {
  auto append = [](auto* to, const auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&into->errors, part.errors);
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->window_s += part.window_s;
  into->cpu_s += part.cpu_s;
  into->steal_s += part.steal_s;
  append(&into->rss_mb, part.rss_mb);
  append(&into->peak_rss_mb, part.peak_rss_mb);
  into->completed += part.completed;
  append(&into->per_second, part.per_second);
  append(&into->latency_ns, part.latency_ns);
  append(&into->sink_latency_ns, part.sink_latency_ns);
  append(&into->lateness_ns, part.lateness_ns);
  append(&into->checkpoints, part.checkpoints);
  into->tally_s += part.tally_s;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }


double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double CheckpointP50(const RunResult& r) {
  std::vector<double> ms;
  for (const CheckpointOutcome& c : r.checkpoints) ms.push_back(c.duration_ms);
  return Median(ms);
}

std::vector<Metric> EndToEndMetrics(const RunResult& r, const SetupResult& s) {
  const double n = static_cast<double>(r.completed);
  return {
      {"throughput_tps", Ratio(n, r.window_s), "tuples/s"},
      {"tuples_per_cpu_s", Ratio(n, r.cpu_s), "tuples/cpu-s"},
      {"setup_s", Median(s.setup_s), "s"},
      {"peak_rss_mb", Median(r.peak_rss_mb), "MB"},
  };
}

double MeanSelf(const RunResult& r, SpanName name) {
  const auto it = r.self_times.find(name);
  return it == r.self_times.end() ? 0 : it->second.mean_self_ns();
}

std::vector<Metric> PerLayerMetrics(const RunResult& untraced,
                                    const RunResult& r, const SetupResult& s) {
  using heron::observability::TraceStage;
  const CounterSnap& a = r.c0;
  const CounterSnap& b = r.c1;
  const double wall_ns = r.window_s * 1e9;
  const double routed = static_cast<double>(b.routed - a.routed);
  auto stage_ms = [&](TraceStage stage) {
    return r.breakdown.mean_delta_nanos[static_cast<size_t>(stage)] / 1e6;
  };
  uint64_t snapshot_bytes = 0;
  for (const CheckpointOutcome& c : r.checkpoints) {
    if (c.completed) snapshot_bytes = c.snapshot_bytes;
  }
  std::vector<double> sink_latency_ms;
  for (int64_t ns : r.sink_latency_ns) sink_latency_ms.push_back(ns / 1e6);
  const double traced_cpu_per_tuple = Ratio(r.cpu_s, r.completed);
  const double untraced_cpu_per_tuple = Ratio(untraced.cpu_s, untraced.completed);
  std::vector<double> lateness_ms;
  for (int64_t ns : r.lateness_ns) lateness_ms.push_back(ns / 1e6);
  double late_max = 0;
  for (double v : lateness_ms) late_max = std::max(late_max, v);
  return {
      {"latency.p50_ms", QuantileNs(untraced.latency_ns, 0.5) / 1e6, "ms"},
      {"latency.p99_ms", QuantileNs(untraced.latency_ns, 0.99) / 1e6, "ms"},
      {"latency.p9999_ms",
       QuantileNs(untraced.latency_ns, TailQ(untraced.latency_ns.size())) /
           1e6,
       "ms"},
      {"latency.samples", static_cast<double>(untraced.latency_ns.size()),
       "count"},
      {"latency.steal_s", untraced.steal_s, "s"},
      {"checkpoint.p50_ms", CheckpointP50(untraced), "ms"},
      {"runtime.submit_ms", Median(s.submit_ms), "ms"},
      {"runtime.first_result_ms", Median(s.first_result_ms), "ms"},
      {"runtime.instance_busy_frac",
       Ratio(static_cast<double>(b.instance_busy_ns - a.instance_busy_ns),
             wall_ns * r.tasks),
       "frac"},
      {"runtime.smgr_busy_frac",
       Ratio(static_cast<double>(b.smgr_busy_ns - a.smgr_busy_ns),
             wall_ns * r.containers),
       "frac"},
      {"runtime.sched_occupancy", r.scheduler.occupancy, "frac"},
      {"runtime.slice_overruns", static_cast<double>(r.scheduler.overruns),
       "count"},
      {"packing.pack_ms", Median(s.pack_ms), "ms"},
      {"instance.spout_emit_ns", MeanSelf(r, SpanName::kSpoutEmit), "ns"},
      {"instance.executed", static_cast<double>(b.executed - a.executed),
       "count"},
      {"instance.aligned_buffered",
       static_cast<double>(b.aligned_buffered - a.aligned_buffered), "count"},
      {"smgr.tuples_per_batch",
       Ratio(routed, static_cast<double>(b.batches_out - a.batches_out)),
       "tuples/batch"},
      {"smgr.bytes_per_tuple",
       Ratio(static_cast<double>(b.bytes_out - a.bytes_out), routed),
       "bytes/tuple"},
      {"smgr.payload_touches", static_cast<double>(b.payload_touches),
       "count"},
      {"smgr.backpressure_starts",
       static_cast<double>(b.backpressure_starts - a.backpressure_starts),
       "count"},
      {"smgr.backpressure_ms",
       static_cast<double>(b.backpressure_ns - a.backpressure_ns) / 1e6, "ms"},
      {"path.forward_p50_ms", Quantile(&sink_latency_ms, 0.5), "ms"},
      {"path.ack_return_p50_ms", r.ack_return_p50_ms, "ms"},
      {"ipc.frames_sent",
       static_cast<double>(b.fabric.frames_sent - a.fabric.frames_sent),
       "count"},
      {"ipc.bytes_on_wire",
       static_cast<double>(b.fabric.bytes_on_wire - a.fabric.bytes_on_wire),
       "bytes"},
      {"ipc.partial_writes",
       static_cast<double>(b.fabric.partial_writes - a.fabric.partial_writes),
       "count"},
      {"ipc.sink_stalls",
       static_cast<double>(b.fabric.sink_stalls - a.fabric.sink_stalls),
       "count"},
      {"tmaster.checkpoints_completed_ratio",
       Ratio(static_cast<double>(r.checkpoints_completed),
             static_cast<double>(r.checkpoints_triggered)),
       "ratio"},
      {"statemgr.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes"},
      {"observability.smgr_route_ms", stage_ms(TraceStage::kSmgrRoute), "ms"},
      {"observability.transport_hop_ms", stage_ms(TraceStage::kTransportHop),
       "ms"},
      {"observability.instance_dequeue_ms",
       stage_ms(TraceStage::kInstanceDequeue), "ms"},
      {"observability.execute_ms", stage_ms(TraceStage::kExecute), "ms"},
      {"observability.ack_complete_ms", stage_ms(TraceStage::kAckComplete),
       "ms"},
      {"observability.dropped_spans", static_cast<double>(r.dropped_spans),
       "count"},
      {"generator.late_p99_ms", Quantile(&lateness_ms, 0.99), "ms"},
      {"generator.late_max_ms", late_max, "ms"},
      {"baseline.tally_tps", Ratio(static_cast<double>(r.attempted), r.tally_s),
       "tuples/s"},
      {"trace.overhead_cpu_ratio",
       Ratio(traced_cpu_per_tuple, untraced_cpu_per_tuple), "ratio"},
  };
}

void PrintRunDetail(const char* label, const RunResult& r) {
  std::vector<double> late;
  for (int64_t ns : r.lateness_ns) late.push_back(ns / 1e6);
  double late_max = 0;
  for (double v : late) late_max = std::max(late_max, v);
  std::fprintf(stderr,
               "[%s] window %.3f s, cpu %.3f s, host steal %.3f s, %" PRIu64
               " completed, %zu latency samples, %zu checkpoints, "
               "%" PRIu64 " attempted, %" PRIu64 " failed\n",
               label, r.window_s, r.cpu_s, r.steal_s, r.completed, r.latency_ns.size(),
               r.checkpoints.size(), r.attempted, r.failed);
  std::fprintf(stderr,
               "[%s] latency p50 %.3f ms, p99 %.3f ms, p%.4g %.3f ms "
               "(%zu samples)\n",
               label, QuantileNs(r.latency_ns, 0.5) / 1e6,
               QuantileNs(r.latency_ns, 0.99) / 1e6,
               100 * TailQ(r.latency_ns.size()),
               QuantileNs(r.latency_ns, TailQ(r.latency_ns.size())) / 1e6,
               r.latency_ns.size());
  std::fprintf(stderr, "[%s] checkpoint p50 %.3f ms over %zu checkpoints\n",
               label, CheckpointP50(r), r.checkpoints.size());
  std::fprintf(stderr, "[%s] completions per second:", label);
  for (double n : r.per_second) std::fprintf(stderr, " %.0f", n);
  std::fprintf(stderr, "\n[%s] resident set per second, MB:", label);
  for (double mb : r.rss_mb) std::fprintf(stderr, " %.1f", mb);
  std::fprintf(stderr, "\n[%s] peak resident set per submission, MB:", label);
  for (double mb : r.peak_rss_mb) std::fprintf(stderr, " %.1f", mb);
  std::fprintf(stderr, "\n");
  if (!r.lateness_ns.empty()) {
    std::fprintf(stderr, "[%s] generator late p99 %.3f ms, max %.3f ms\n", label,
                 Quantile(&late, 0.99), late_max);
  }
  std::fprintf(stderr, "[%s] single-threaded tally: %" PRIu64
               " words in %.3f s (%.0f words/s)\n",
               label, r.attempted, r.tally_s, Ratio(r.attempted, r.tally_s));
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", label, e.c_str());
  }
}

void PrintMetrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "[%s] %-36s %14.4f %s\n", label, m.name.c_str(),
                 m.value, m.unit.c_str());
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               argv0);
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  const std::vector<Workload> workloads = Workloads();
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) {
                                 return w.name == workload_name;
                               });
  if (it == workloads.end()) return Usage(argv[0]);
  const Workload& w = *it;
  heron::Logging::SetLevel(heron::LogLevel::kError);

  const Dictionary dict(kDictionarySize, seed);
  SpanBuffer driver;
  Phase("dictionary built, measuring set-up");
  SetupResult setup;
  MeasurePacking(w, dict, seed, &driver, &setup);
  RunResult run;
  for (int i = 0; i < kSubmissions && setup.errors.empty(); ++i) {
    MeasureColdStarts(w, dict, seed, &driver, &setup);
    if (setup.errors.empty()) {
      Pool(&run, RunWorkload(w, dict, seed, seconds / kSubmissions, false,
                             &driver));
    }
  }
  for (const std::string& e : setup.errors) {
    std::fprintf(stderr, "[setup] CHECK FAILED: %s\n", e.c_str());
  }
  if (!setup.errors.empty()) return 1;
  PrintRunDetail("untraced", run);
  bool correct = run.errors.empty();
  uint64_t attempted = run.attempted;
  uint64_t failed = run.failed;
  std::vector<Metric> metrics = EndToEndMetrics(run, setup);

  if (trace == 1) {
    const RunResult traced = RunWorkload(w, dict, seed, seconds, true, &driver);
    PrintRunDetail("traced", traced);
    correct = correct && traced.errors.empty();
    attempted += traced.attempted;
    failed += traced.failed;
    PrintMetrics("end-to-end (untraced)", metrics);
    metrics = PerLayerMetrics(run, traced, setup);
    std::fprintf(stderr, "[self time] %-16s %10s %14s %14s\n", "span", "count",
                 "mean ns", "mean self ns");
    for (const auto& [name, t] : traced.self_times) {
      std::fprintf(stderr, "[self time] %-16s %10" PRIu64 " %14.0f %14.0f\n",
                   SpanNameString(name), t.count, t.mean_total_ns(),
                   t.mean_self_ns());
    }
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/spans-" + w.name + "-seed" +
                             std::to_string(seed) + ".jsonl";
    std::ofstream(path) << traced.spans_json;
    std::fprintf(stderr, "[traced] spans written to %s\n", path.c_str());
  }
  PrintMetrics(trace == 1 ? "per-layer" : "end-to-end", metrics);
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return 0;
}
