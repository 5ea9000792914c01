// tokbench: one run of one workload.
//
//   tokbench --workload node_hot --seed 1 --seconds 30 --trace 0
//            [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics, the ledger and the span
// file. The last line of standard output is the result object; the line
// before it (and DIR/<workload>-seed<n>-trace<t>.json) holds the run's
// provenance, checks and noise indicators. Exits 0 when every correctness
// check passed, 3 when one failed, 2 on bad usage or a refused build.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_core.hpp"
#include "drive.hpp"
#include "ledger.hpp"
#include "stacks.hpp"

#ifndef TOKBENCH_BUILD_TYPE
#define TOKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TOKBENCH_CXX_FLAGS
#define TOKBENCH_CXX_FLAGS ""
#endif

namespace tokbench {
namespace {

namespace svc = toka::service;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const auto& [k, v] : kv) {
    if (k == "workload") a.workload = v;
    else if (k == "seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "seconds") a.seconds = std::atoi(v.c_str());
    else if (k == "trace") a.trace = std::atoi(v.c_str());
    else if (k == "out-dir") a.out_dir = v;
    else if (k == "git-sha") a.git_sha = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

// ------------------------------------------------------------ reporting

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Correctness checks that fail the run.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// Grants, the watchdog and the token balance of one stack, after its
/// load has drained.
void check_stack(Stack& stack, const Tally& tally, Checks& checks,
                 const std::string& label) {
  const svc::TableStats stats = stack.table_stats();
  checks.require(tally.over_grants.load() == 0,
                 label + ": a grant exceeded the tokens requested");
  checks.require(stats.watchdog_violations == 0,
                 label + ": the invariant watchdog reported violations");
  const std::uint64_t client = tally.granted.load();
  if (tally.failed_ops.load() == 0) {
    checks.require(client == stats.tokens_granted,
                   label + ": client-observed grants " +
                       std::to_string(client) + " != table tokens_granted " +
                       std::to_string(stats.tokens_granted));
  } else {
    // A failed call may have been granted server-side unseen.
    checks.require(client <= stats.tokens_granted,
                   label + ": client saw more grants than the tables made");
  }
  const ClusterCounters cc = stack.cluster_counters();
  checks.require(cc.tokens_forfeited == 0,
                 label + ": replication forfeited tokens");
}

// ---------------------------------------------------------------- setup

struct Built {
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
};

/// Builds the workload's stack `spec.setup_reps` times, each timed from
/// construction (including the account preload) until it has served its
/// first op; keeps the last one. The final stack's first op is tallied
/// into `tally`; earlier stacks' first ops only feed the checks.
Built setup(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
            Tally& tally, Checks& checks) {
  Built b;
  OpStream first(spec, seed, /*stream_id=*/1);
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const bool last = rep + 1 == spec.setup_reps;
    b.stack.reset();
    std::vector<Op> ops;
    first.next_frame(ops);
    const std::int64_t t0 = now_ns();
    b.stack = build_stack(workload_stack(spec, seed, traced));
    std::promise<FrameResult> served;
    auto fut = served.get_future();
    b.stack->issue(ops, nullptr,
                   [&served](const FrameResult& r) { served.set_value(r); });
    const bool ok = fut.wait_for(std::chrono::seconds(30)) ==
                    std::future_status::ready;
    b.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    checks.require(ok, "setup: the first op never completed");
    if (!ok) std::exit(3);
    const FrameResult r = fut.get();
    checks.require(r.error == FrameResult::Error::kNone && !r.grant_over_request,
                   "setup: the first op failed");
    if (last) tally.add(r);
  }
  return b;
}

// ------------------------------------------------------------- sampling

/// Samples the replication lag every millisecond while alive (traced run
/// only).
class LagSampler {
 public:
  explicit LagSampler(Stack& stack) : stack_(&stack) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LagSampler() { stop(); }
  LagSampler(const LagSampler&) = delete;
  LagSampler& operator=(const LagSampler&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> lag;

 private:
  void loop() {
    while (!stop_.load()) {
      lag.push_back(static_cast<double>(stack_->replication_lag()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  Stack* stack_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------- runs

struct RunOutput {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> detail;  ///< raw JSON
};

void add_detail(RunOutput& out, const std::string& key, double v) {
  out.detail.emplace_back(key, num(v));
}

std::string array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += num(v[i]);
  }
  return s + "]";
}

double frames_per_s(const WorkloadSpec& spec) {
  return spec.open_rate / spec.batch;
}

/// A closed-loop phase of the workload's nominal rate x `seconds` ops.
ClosedResult closed_phase(Stack& stack, const WorkloadSpec& spec,
                          FrameFeed& feed, double seconds, Tally& tally,
                          const DriveOptions& d) {
  CountedFeed phase(feed, static_cast<std::uint64_t>(
                              spec.closed_rate * seconds / spec.batch));
  return run_closed(stack, phase, spec.window, tally, d);
}

/// Warm-up: lets caches fill, connections open and lazy set-up finish.
void warm_up(Stack& stack, const WorkloadSpec& spec, std::uint64_t seed,
             Tally& tally, OpClock& clock) {
  StreamFeed feed(spec, seed, /*stream_id=*/4);
  DriveOptions d;
  d.clock = &clock;
  closed_phase(stack, spec, feed, 0.5, tally, d);
  run_open(stack, feed, frames_per_s(spec), 0.25, tally, d);
}

/// The end-to-end run: ABAB rounds of a saturating closed loop and a light
/// open loop; every metric is the median over its rounds.
RunOutput run_plain(const WorkloadSpec& spec, const Args& args,
                    Checks& checks) {
  RunOutput out;
  Tally tally;
  Built built = setup(spec, args.seed, false, tally, checks);
  Stack& stack = *built.stack;
  OpClock clock(spec.ops_per_tick(), spec.delta_us,
                [&stack](TimeUs t) { stack.set_time(t); });
  warm_up(stack, spec, args.seed, tally, clock);

  // One round per second, half closed and half open: a host hiccup of a
  // few seconds spoils a few rounds, and the medians step over them.
  const int rounds = args.seconds;
  const double phase_s = 0.5;
  StreamFeed closed_feed(spec, args.seed, 2);
  StreamFeed open_feed(spec, args.seed, 3);
  DriveOptions d;
  d.clock = &clock;
  const std::uint64_t ops0 = tally.ops.load();
  const std::uint64_t failed0 = tally.failed_ops.load();
  const svc::TableStats stats0 = stack.table_stats();
  const SchedSample sched0 = sched_sample();
  const StealSample steal0 = steal_sample();
  const std::uint64_t clock0 = clock.ops();
  std::vector<double> cpu, cpu_light, p50, closed_ops_s, lag;
  std::size_t threads = 0;
  for (int r = 0; r < rounds; ++r) {
    const ClosedResult c =
        closed_phase(stack, spec, closed_feed, phase_s, tally, d);
    threads = std::max(threads, thread_count());
    const OpenResult o =
        run_open(stack, open_feed, frames_per_s(spec), phase_s, tally, d);
    cpu.push_back(c.cpu_us_per_op());
    closed_ops_s.push_back(c.ops_per_s());
    cpu_light.push_back(o.cpu_us_per_op());
    p50.push_back(percentile(o.lat_us, 0.5));
    lag.insert(lag.end(), o.lag_us.begin(), o.lag_us.end());
  }
  const SchedSample sched1 = sched_sample();
  const StealSample steal1 = steal_sample();
  const svc::TableStats stats1 = stack.table_stats();
  out.attempted = tally.ops.load() - ops0;
  out.failed = tally.failed_ops.load() - failed0;
  check_stack(stack, tally, checks, spec.name);
  const double rss_mb = static_cast<double>(peak_rss_bytes()) / (1 << 20);
  const double issued = static_cast<double>(clock.ops() - clock0);

  out.metrics = {
      {"setup_s", median(built.setup_s), "s"},
      {"lat_p50_us", median(p50), "us"},
      {"cpu_us_per_op", median(cpu), "us"},
      {"cpu_us_per_op_light", median(cpu_light), "us"},
      {"success_ratio",
       out.attempted > 0 ? static_cast<double>(out.attempted - out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "ratio"},
      {"rss_mb", rss_mb, "MB"},
  };
  const double gen_lag_p99 = percentile(lag, 0.99);
  const double period_us = 1e6 / frames_per_s(spec);
  out.detail.emplace_back("setup_s_all", array(built.setup_s));
  out.detail.emplace_back("lat_p50_us_rounds", array(p50));
  out.detail.emplace_back("cpu_us_per_op_rounds", array(cpu));
  out.detail.emplace_back("cpu_us_per_op_light_rounds", array(cpu_light));
  out.detail.emplace_back("closed_ops_s_rounds", array(closed_ops_s));
  add_detail(out, "threads", static_cast<double>(threads));
  add_detail(out, "runq_wait_share", runq_wait_share(sched0, sched1));
  add_detail(out, "host_steal_share", steal_share(steal0, steal1));
  add_detail(out, "timeouts", static_cast<double>(tally.timeouts.load()));
  add_detail(out, "overloads", static_cast<double>(tally.overloads.load()));
  add_detail(out, "rpc_errors", static_cast<double>(tally.rpc_errors.load()));
  add_detail(out, "gen_lag_p99_us", gen_lag_p99);
  out.detail.emplace_back(
      "generator_behind",
      gen_lag_p99 > std::max(250.0, 10 * period_us) ? "true" : "false");
  add_detail(out, "proactive_drops_per_op",
             static_cast<double>(stats1.proactive_dropped -
                                 stats0.proactive_dropped) / issued);
  add_detail(out, "ticks_forfeited_per_op",
             static_cast<double>(stats1.ticks_forfeited -
                                 stats0.ticks_forfeited) / issued);
  return out;
}

/// Unattributed share of client latency. With correlated spans (single
/// node): each root's self time, summed, over the roots' total time.
/// Without (the cluster): one minus the summed child spans over the summed
/// roots.
double unattributed_share(const std::vector<Span>& spans, bool correlated) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  std::vector<const Span*> roots;
  double child_total = 0;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kClient) {
      roots.push_back(&s);
    } else {
      child_total += static_cast<double>(s.end_ns - s.start_ns);
      if (correlated && s.trace != 0) children[s.trace].push_back(s);
    }
  }
  double root_total = 0, self_total = 0;
  for (const Span* r : roots) {
    root_total += static_cast<double>(r->end_ns - r->start_ns);
    if (correlated) {
      auto it = children.find(r->trace);
      self_total += static_cast<double>(
          it == children.end() ? r->end_ns - r->start_ns
                               : self_time_ns(*r, it->second));
    }
  }
  if (root_total <= 0) return 0.0;
  if (correlated) return self_total / root_total;
  return std::max(0.0, 1.0 - child_total / root_total);
}

std::vector<double> durations_us(const std::vector<Span>& spans, SpanKind k) {
  std::vector<double> v;
  for (const Span& s : spans)
    if (s.kind == k) v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return v;
}

/// Writes the spans that start within the time window of the first 50,000
/// roots (a complete slice of the traced phase), one JSON object a line.
void write_spans(const std::string& path, std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::size_t roots = 0, end = 0;
  for (; end < spans.size(); ++end) {
    if (spans[end].kind == SpanKind::kClient && ++roots > 50'000) break;
  }
  std::ofstream f(path);
  for (std::size_t i = 0; i < end; ++i) {
    const Span& s = spans[i];
    f << "{\"trace\":" << s.trace << ",\"span\":\"" << span_name(s.kind)
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
}

/// The traced run: untraced closed rounds, then a stack with the
/// transport shim and client spans for traced closed rounds and a traced
/// open phase, then the ledger.
RunOutput run_traced(const WorkloadSpec& spec, const Args& args,
                     Checks& checks) {
  RunOutput out;
  const double quarter = std::max(0.5, args.seconds / 4.0);
  const int sub_rounds = 3;
  std::vector<double> cpu_plain, closed_ops_s;
  {
    Tally tally;
    Built built = setup(spec, args.seed, false, tally, checks);
    Stack& stack = *built.stack;
    OpClock clock(spec.ops_per_tick(), spec.delta_us,
                  [&stack](TimeUs t) { stack.set_time(t); });
    warm_up(stack, spec, args.seed, tally, clock);
    StreamFeed feed(spec, args.seed, 2);
    DriveOptions d;
    d.clock = &clock;
    for (int r = 0; r < sub_rounds; ++r) {
      const ClosedResult c =
          closed_phase(stack, spec, feed, quarter / sub_rounds, tally, d);
      cpu_plain.push_back(c.cpu_us_per_op());
      closed_ops_s.push_back(c.ops_per_s());
    }
    check_stack(stack, tally, checks, spec.name + " (untraced)");
  }

  Tally tally;
  Built built = setup(spec, args.seed, true, tally, checks);
  Stack& stack = *built.stack;
  OpClock clock(spec.ops_per_tick(), spec.delta_us,
                [&stack](TimeUs t) { stack.set_time(t); });
  warm_up(stack, spec, args.seed, tally, clock);
  SpanLog& log = SpanLog::global();
  StreamFeed closed_feed(spec, args.seed, 2);
  StreamFeed open_feed(spec, args.seed, 3);
  DriveOptions d;
  d.clock = &clock;
  d.trace = true;
  const bool correlated = spec.plane != Plane::kClusterInProc;

  const std::uint64_t ops0 = tally.ops.load();
  const std::uint64_t failed0 = tally.failed_ops.load();
  const std::uint64_t issued0 = clock.ops();
  const svc::TableStats stats0 = stack.table_stats();
  const ClusterCounters cc0 = stack.cluster_counters();
  const SchedSample sched0 = sched_sample();
  LagSampler sampler(stack);
  std::vector<double> cpu_traced;
  std::size_t threads = 0;
  log.set_enabled(true);
  for (int r = 0; r < sub_rounds; ++r) {
    const ClosedResult c =
        closed_phase(stack, spec, closed_feed, quarter / sub_rounds, tally, d);
    cpu_traced.push_back(c.cpu_us_per_op());
    threads = std::max(threads, thread_count());
    log.clear();  // the open phase's spans are the ones analysed
  }
  const std::uint64_t csw_open0 = context_switches();
  const OpenResult o = run_open(stack, open_feed, frames_per_s(spec),
                                args.seconds / 2.0, tally, d);
  const std::uint64_t csw_open1 = context_switches();
  log.set_enabled(false);
  sampler.stop();
  const std::vector<Span> spans = log.collect();
  const SchedSample sched1 = sched_sample();
  const svc::TableStats stats1 = stack.table_stats();
  const ClusterCounters cc1 = stack.cluster_counters();
  out.attempted = tally.ops.load() - ops0;
  out.failed = tally.failed_ops.load() - failed0;
  check_stack(stack, tally, checks, spec.name + " (traced)");

  const double issued = static_cast<double>(clock.ops() - issued0);
  const double kops = issued / 1e3;
  const double open_ops = static_cast<double>(std::max<std::uint64_t>(o.ops, 1));
  const double plain = median(cpu_plain);
  const double traced = median(cpu_traced);
  const std::size_t replies = durations_us(spans, SpanKind::kSend).size();

  std::vector<Metric>& m = out.metrics;
  const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / issued;
  };
  m.push_back({"core.proactive_drops_per_op",
               per_op(stats0.proactive_dropped, stats1.proactive_dropped), "1/op"});
  m.push_back({"core.ticks_forfeited_per_op",
               per_op(stats0.ticks_forfeited, stats1.ticks_forfeited), "1/op"});
  m.push_back({"service.server.handler_us_p50",
               percentile(durations_us(spans, SpanKind::kHandler), 0.5), "us"});
  m.push_back({"runtime.send_us_p50",
               percentile(durations_us(spans, SpanKind::kSend), 0.5), "us"});
  m.push_back({"runtime.replies_per_op", static_cast<double>(replies) / open_ops,
               "1/op"});
  m.push_back({"runtime.ctx_switches_per_op",
               static_cast<double>(csw_open1 - csw_open0) / open_ops, "1/op"});
  m.push_back({"service.client.issue_us_p50",
               percentile(durations_us(spans, SpanKind::kIssue), 0.5), "us"});
  m.push_back({"service.client.closed_ops_s", median(closed_ops_s), "1/s"});
  m.push_back({"service.client.lat_p99_us", percentile(o.lat_us, 0.99), "us"});
  m.push_back({"service.client.lat_samples", static_cast<double>(o.lat_us.size()),
               "count"});
  // Failed frames by class, as the client saw them over the stack's life.
  m.push_back({"service.client.timeouts",
               static_cast<double>(tally.timeouts.load()), "count"});
  m.push_back({"service.client.overloads",
               static_cast<double>(tally.overloads.load()), "count"});
  m.push_back({"cluster.redirects_per_kop",
               static_cast<double>(cc1.redirects - cc0.redirects) / kops, "1/kop"});
  m.push_back({"cluster.replication.delta_frames_per_kop",
               static_cast<double>(cc1.delta_frames - cc0.delta_frames) / kops,
               "1/kop"});
  m.push_back({"cluster.replication.acks_per_kop",
               static_cast<double>(cc1.acks - cc0.acks) / kops, "1/kop"});
  const std::uint64_t frames = cc1.delta_frames - cc0.delta_frames;
  m.push_back({"cluster.replication.accounts_per_delta_frame",
               frames > 0 ? static_cast<double>(cc1.delta_accounts -
                                                cc0.delta_accounts) /
                                static_cast<double>(frames)
                          : 0.0,
               "ratio"});
  m.push_back({"cluster.replication.lag_p50", percentile(sampler.lag, 0.5),
               "rounds"});
  m.push_back({"cluster.replication.tokens_forfeited",
               static_cast<double>(cc1.tokens_forfeited), "count"});
  m.push_back({"obs.watchdog_checks_per_kop",
               static_cast<double>(stats1.watchdog_checks -
                                   stats0.watchdog_checks) / kops,
               "1/kop"});
  m.push_back({"obs.watchdog_violations",
               static_cast<double>(stats1.watchdog_violations), "count"});
  m.push_back({"bench.gen_lag_p99_us", percentile(o.lag_us, 0.99), "us"});
  m.push_back({"bench.runq_wait_share", runq_wait_share(sched0, sched1), "ratio"});
  m.push_back({"bench.trace_overhead_pct",
               plain > 0 ? (traced - plain) / plain * 100.0 : 0.0, "%"});
  m.push_back({"bench.unattributed_share", unattributed_share(spans, correlated),
               "ratio"});
  m.push_back({"bench.threads", static_cast<double>(threads), "count"});

  const std::string span_path = args.out_dir + "/spans-" + spec.name + "-seed" +
                                std::to_string(args.seed) + ".jsonl";
  write_spans(span_path, spans);
  out.detail.emplace_back("span_file", quoted(span_path));
  out.detail.emplace_back("spans", num(static_cast<double>(spans.size())));
  log.clear();
  built.stack.reset();

  // The ledger runs on a quiet process: no live workload stack.
  Tally ledger_tally;
  MetricList ledger;
  run_ledger(spec, args.seed, ledger, ledger_tally);
  checks.require(ledger_tally.failed_ops.load() == 0 &&
                     ledger_tally.over_grants.load() == 0,
                 "ledger: a live-stack level failed ops or over-granted");
  m.insert(m.end(), ledger.begin(), ledger.end());
  add_detail(out, "trace_cpu_us_per_op_plain", plain);
  add_detail(out, "trace_cpu_us_per_op_traced", traced);
  add_detail(out, "threads", static_cast<double>(threads));
  return out;
}

std::string detail_json(const WorkloadSpec& spec, const Args& args,
                        const RunOutput& out, const Checks& checks) {
  std::ostringstream s;
  s << "{\"tokbench\":{";
  s << "\"workload\":" << quoted(spec.name);
  s << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
    << ",\"trace\":" << args.trace;
  s << ",\"git_sha\":" << quoted(args.git_sha);
  s << ",\"nproc\":" << std::thread::hardware_concurrency();
  s << ",\"compiler\":" << quoted(std::string("gcc ") + __VERSION__);
  s << ",\"build_type\":" << quoted(TOKBENCH_BUILD_TYPE);
  s << ",\"cxx_flags\":" << quoted(TOKBENCH_CXX_FLAGS);
  std::vector<Op> head;
  OpStream stream(spec, args.seed, 2);
  for (int i = 0; i < 4096; ++i) head.push_back(stream.next());
  s << ",\"stream_digest\":" << quoted(std::to_string(fnv1a(stream_bytes(head))));
  s << ",\"ops_per_tick\":" << spec.ops_per_tick();
  s << ",\"delta_us\":" << spec.delta_us;
  for (const auto& [k, v] : out.detail) s << "," << quoted(k) << ":" << v;
  s << ",\"checks_failed\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    s << (i ? "," : "") << quoted(checks.failures[i]);
  s << "]}}";
  return s.str();
}

std::string result_json(const RunOutput& out, bool correct) {
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
      << ", \"unit\": " << quoted(m.unit) << "}";
  }
  s << "}}";
  return s.str();
}

}  // namespace
}  // namespace tokbench

int main(int argc, char** argv) {
  using namespace tokbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "tokbench: refusing to run an unoptimised or assert-enabled "
               "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tokbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n");
    return 2;
  }
  WorkloadSpec spec;
  try {
    spec = workload_spec(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tokbench: %s\n", e.what());
    return 2;
  }
  // Precise open-loop pacing: wake-ups within a microsecond of the request.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  Checks checks;
  RunOutput out;
  try {
    out = args.trace == 1 ? run_traced(spec, args, checks)
                          : run_plain(spec, args, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tokbench: run failed: %s\n", e.what());
    return 3;
  }
  const std::string detail = detail_json(spec, args, out, checks);
  {
    std::ofstream f(args.out_dir + "/" + spec.name + "-seed" +
                    std::to_string(args.seed) + "-trace" +
                    std::to_string(args.trace) + ".json");
    f << detail << "\n";
  }
  for (const std::string& failure : checks.failures)
    std::fprintf(stderr, "tokbench: CHECK FAILED: %s\n", failure.c_str());
  std::printf("%s\n%s\n", detail.c_str(), result_json(out, checks.ok()).c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 3;
}
