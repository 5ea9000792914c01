// tokbench's measurement core: workload definitions, the seeded op stream,
// the op-driven clock, the open-loop pacer, span bookkeeping and the
// process probes (CPU, RSS, run-queue wait) every run reports.
//
// Nothing here touches the program under test beyond the public types it
// exchanges with it; the stacks and the ledger (stacks.hpp, ledger.hpp)
// are the only code that drives tokend.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
#include "util/zipf.hpp"

namespace tokbench {

using toka::Tokens;
using toka::TimeUs;
using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the one time base of every span).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- workloads

/// Which data plane a workload's stack is built on. The engine plane is
/// selected through this one field (see README.md): remapping it is all a
/// change that deletes a plane has to do here.
enum class Plane : std::uint8_t {
  kLockedTcp,    ///< locked Server over TcpMesh (the tokend daemon's shape)
  kEngineEpoll,  ///< ShardEngine behind an engine-mode Server over EpollMesh
  kClusterInProc,  ///< ClusterServers (locked plane) on an InProcNetwork
};

struct WorkloadSpec {
  std::string name;
  Plane plane = Plane::kLockedTcp;
  std::uint64_t keys = 0;     ///< key space [1, keys]
  double zipf = 0.0;          ///< Zipf exponent of the key choice
  double acquire_share = 1.0;
  double refund_share = 0.0;  ///< the rest are queries
  std::uint32_t batch = 1;    ///< ops per frame; > 1 = BatchAcquire frames
  double open_rate = 0.0;     ///< open-loop ops/s (frames/s x batch)
  /// Nominal closed-loop ops/s on a 4-vCPU host. It only sizes the closed
  /// phases (ops per phase = this x phase length), so a run's total work,
  /// and with it the token time the op clock covers, is fixed.
  double closed_rate = 0.0;
  std::uint32_t window = 1;   ///< closed-loop frames in flight
  TimeUs delta_us = 100'000;  ///< token period Δ of the namespace
  std::size_t engine_workers = 0;  ///< ShardEngine workers (engine plane)
  std::size_t nodes = 1;           ///< ClusterServers (cluster plane)
  std::uint32_t replicas = 0;      ///< ClusterMap::replicas
  int setup_reps = 3;              ///< stack builds timed for setup_s

  /// Ops per Δ of op-driven time: the open-loop rate times Δ, so the open
  /// phase runs at wall-clock speed and the closed phase replays the same
  /// amount of token time per op.
  std::uint64_t ops_per_tick() const {
    return static_cast<std::uint64_t>(open_rate *
                                      static_cast<double>(delta_us) / 1e6);
  }
};

/// The named workloads; throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name);
std::vector<std::string> workload_names();

// -------------------------------------------------------------- op stream

enum class OpKind : std::uint8_t { kAcquire = 0, kRefund = 1, kQuery = 2 };

struct Op {
  OpKind kind = OpKind::kAcquire;
  std::uint64_t key = 0;
  Tokens tokens = 0;
};

/// The workload's op stream: a pure function of (spec, seed, stream id).
/// Different stream ids give independent streams of the same mix (the
/// warm-up, the measured phases and the ledger each draw their own).
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed,
           std::uint64_t stream_id);

  Op next();
  /// The next frame's ops (spec.batch of them) appended to `out`.
  void next_frame(std::vector<Op>& out);

 private:
  const WorkloadSpec* spec_;
  toka::util::ZipfSampler zipf_;
  toka::util::Rng rng_;
};

/// Serializes ops into a flat byte image (for the byte-identity test and
/// the stream digest stamped into every result).
std::vector<std::uint8_t> stream_bytes(const std::vector<Op>& ops);
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

// ------------------------------------------------------ op-driven clock

/// Time is an input of a rate limiter, so the generator supplies it: every
/// `ops_per_tick` issued ops move the tables' clocks forward by one Δ. The
/// work per op (ticks replayed per settle) then depends on the seed, not on
/// how fast the machine happened to run. Thread-safe.
class OpClock {
 public:
  using Advance = std::function<void(TimeUs now_us)>;
  OpClock(std::uint64_t ops_per_tick, TimeUs delta_us, Advance advance);

  /// Counts `n` issued ops and advances the clocks across every Δ
  /// boundary they crossed.
  void on_issue(std::uint64_t n);
  std::uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  
 private:
  std::uint64_t ops_per_tick_;
  TimeUs delta_us_;
  Advance advance_;
  std::atomic<std::uint64_t> ops_{0};
};

// ------------------------------------------------------------- pacing

/// Open-loop schedule: op i is due at start + i x period. The pacer sleeps
/// while the due time is far, spins the last stretch, and reports how late
/// each send left. Latency is charged from the due time, so a stall also
/// delays (and is charged to) every op queued behind it.
class Pacer {
 public:
  Pacer(std::int64_t start_ns, double period_ns)
      : start_ns_(start_ns), period_ns_(period_ns) {}

  std::int64_t due_ns(std::uint64_t i) const {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(i) * period_ns_);
  }
  /// Waits until op i is due; returns how late (ns, >= 0) it is released.
  std::int64_t wait(std::uint64_t i) const;

 private:
  std::int64_t start_ns_;
  double period_ns_;
};

/// The latency an open-loop op is charged: completion minus due time, so
/// a late send carries its lateness.
inline double open_latency_us(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e3;
}

// --------------------------------------------------------------- spans

/// The layer boundary a span was recorded at (all from the benchmark's own
/// code, around its calls into the program).
enum class SpanKind : std::uint8_t {
  kClient = 0,   ///< root: issue start -> completion, client side
  kIssue = 1,    ///< inside the client's async issue call
  kHandler = 2,  ///< the server's receive handler, via the transport shim
  kSend = 3,     ///< a server-side transport send (replies)
};
const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t trace = 0;  ///< request identity; 0 = uncorrelated
  SpanKind kind = SpanKind::kClient;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store: per-thread buffers, registered once per thread,
/// so recording never contends. Collected after the traced phase.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const Span& span);
  /// Every span recorded so far (call with recording stopped).
  std::vector<Span> collect() const;
  void clear();

  static SpanLog& global();

 private:
  /// One thread's spans. The owner appends under the buffer's own
  /// (uncontended) mutex, so collect() and clear() are safe at any time.
  struct Buffer {
    std::mutex mu;
    std::deque<Span> spans;  ///< chunked: appends never copy the log
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

/// A span's self time: its duration minus the part of it its children
/// cover (overlapping children count once).
std::int64_t self_time_ns(const Span& parent,
                          const std::vector<Span>& children);

// ------------------------------------------------------------ summaries

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// -------------------------------------------------------- process probes

/// Process user+sys CPU seconds so far.
double process_cpu_s();
/// The calling thread's CPU seconds so far.
double thread_cpu_s();
/// Voluntary + involuntary context switches of the process so far.
std::uint64_t context_switches();
/// Peak / current resident set size in bytes (VmHWM / VmRSS).
std::uint64_t peak_rss_bytes();
std::uint64_t rss_bytes();
/// Heap bytes currently allocated (malloc's in-use total).
std::uint64_t heap_bytes();
/// Threads of the process right now.
std::size_t thread_count();

/// Summed /proc/self/task/*/schedstat over live threads: time on CPU and
/// time spent runnable but waiting for a CPU.
struct SchedSample {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
};
SchedSample sched_sample();
/// wait / (run + wait) between two samples (0 when nothing ran).
double runq_wait_share(const SchedSample& a, const SchedSample& b);

/// Host-wide CPU time from /proc/stat: total jiffies and the part stolen
/// by the hypervisor (a noisy neighbour on a shared host shows here).
struct StealSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
StealSample steal_sample();
double steal_share(const StealSample& a, const StealSample& b);

/// operator new calls made by the calling thread so far (the benchmark
/// binary replaces the global allocation functions to count them).
std::uint64_t thread_allocs();

}  // namespace tokbench
