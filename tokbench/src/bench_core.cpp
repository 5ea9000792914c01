#include "bench_core.hpp"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>

// ------------------------------------------------ allocation counting

namespace {
thread_local std::uint64_t tl_allocs = 0;
}  // namespace

// Counted replacements of the global allocation functions: a thread-local
// increment per call, so counting never contends across threads.
void* operator new(std::size_t size) {
  ++tl_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tokbench {

std::uint64_t thread_allocs() { return tl_allocs; }

// ------------------------------------------------------------- workloads

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "node_hot") {
    w.plane = Plane::kLockedTcp;
    w.keys = 4096;
    w.zipf = 0.99;
    w.acquire_share = 0.90;
    w.refund_share = 0.05;
    w.batch = 1;
    w.open_rate = 40'000;
    w.closed_rate = 320'000;
    w.window = 32;
    w.setup_reps = 21;
  } else if (name == "node_cold_batch") {
    w.plane = Plane::kEngineEpoll;
    w.keys = 1u << 20;
    w.zipf = 0.6;
    w.acquire_share = 1.0;
    w.refund_share = 0.0;
    w.batch = 64;
    w.open_rate = 2'000.0 * 64;
    w.closed_rate = 1'200'000;
    w.window = 8;
    w.engine_workers = 2;
    w.setup_reps = 3;
  } else if (name == "cluster3_repl") {
    w.plane = Plane::kClusterInProc;
    w.keys = 1u << 16;
    w.zipf = 0.99;
    w.acquire_share = 0.70;
    w.refund_share = 0.0;
    w.batch = 1;
    w.open_rate = 40'000;
    w.closed_rate = 300'000;
    w.window = 64;
    w.nodes = 3;
    w.replicas = 1;
    w.setup_reps = 11;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> workload_names() {
  return {"node_hot", "node_cold_batch", "cluster3_repl"};
}

// -------------------------------------------------------------- op stream

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed,
                   std::uint64_t stream_id)
    : spec_(&spec), zipf_(spec.keys, spec.zipf) {
  std::uint64_t state = seed ^ (0xA0761D6478BD642FULL * (stream_id + 1));
  rng_.reseed(toka::util::splitmix64(state));
}

Op OpStream::next() {
  Op op;
  op.key = zipf_.next(rng_) + 1;  // ranks are 0-based; keys are [1, keys]
  op.tokens = 1;
  if (spec_->acquire_share < 1.0) {
    const double u = rng_.uniform01();
    if (u >= spec_->acquire_share) {
      op.kind = u < spec_->acquire_share + spec_->refund_share
                    ? OpKind::kRefund
                    : OpKind::kQuery;
      if (op.kind == OpKind::kQuery) op.tokens = 0;
    }
  }
  return op;
}

void OpStream::next_frame(std::vector<Op>& out) {
  for (std::uint32_t i = 0; i < spec_->batch; ++i) out.push_back(next());
}

std::vector<std::uint8_t> stream_bytes(const std::vector<Op>& ops) {
  std::vector<std::uint8_t> out;
  out.reserve(ops.size() * 17);
  for (const Op& op : ops) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    for (int b = 0; b < 8; ++b)
      out.push_back(static_cast<std::uint8_t>(op.key >> (8 * b)));
    const auto t = static_cast<std::uint64_t>(op.tokens);
    for (int b = 0; b < 8; ++b)
      out.push_back(static_cast<std::uint8_t>(t >> (8 * b)));
  }
  return out;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ------------------------------------------------------ op-driven clock

OpClock::OpClock(std::uint64_t ops_per_tick, TimeUs delta_us, Advance advance)
    : ops_per_tick_(std::max<std::uint64_t>(ops_per_tick, 1)),
      delta_us_(delta_us),
      advance_(std::move(advance)) {}

void OpClock::on_issue(std::uint64_t n) {
  const std::uint64_t before = ops_.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t after = before + n;
  if (after / ops_per_tick_ != before / ops_per_tick_) {
    // Absolute target: concurrent issuers race only to the same or a later
    // time, and CoarseClock::advance_to never moves backwards.
    advance_(static_cast<TimeUs>(after / ops_per_tick_) * delta_us_);
  }
}

// ------------------------------------------------------------- pacing

std::int64_t Pacer::wait(std::uint64_t i) const {
  const std::int64_t due = due_ns(i);
  std::int64_t now = now_ns();
  // Spin through gaps of up to a millisecond: a sleeping generator wakes
  // late by the host's wake-up latency (tens of µs to ms on a shared VM),
  // and that lateness would be charged to every frame it delays.
  constexpr std::int64_t kSpinNs = 1'000'000;
  if (due - now > 2 * kSpinNs) {
    const std::int64_t wake = due - kSpinNs;
    timespec ts{};
    ts.tv_sec = wake / 1'000'000'000;
    ts.tv_nsec = wake % 1'000'000'000;
    // steady_clock is CLOCK_MONOTONIC on Linux, so due times translate.
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    now = now_ns();
  }
  while (now < due) {
    __builtin_ia32_pause();
    now = now_ns();
  }
  return now - due;
}

// --------------------------------------------------------------- spans

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client";
    case SpanKind::kIssue: return "client.issue";
    case SpanKind::kHandler: return "server.handler";
    case SpanKind::kSend: return "runtime.send";
  }
  return "?";
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(const Span& span) {
  if (!enabled()) return;
  Buffer& b = local();
  std::lock_guard lock(b.mu);
  b.spans.push_back(span);
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    std::lock_guard buffer_lock(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void SpanLog::clear() {
  std::lock_guard lock(mu_);
  for (auto& b : buffers_) {
    std::lock_guard buffer_lock(b->mu);
    b->spans.clear();
  }
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::int64_t self_time_ns(const Span& parent,
                          const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(children.size());
  for (const Span& c : children) iv.emplace_back(c.start_ns, c.end_ns);
  return (parent.end_ns - parent.start_ns) -
         covered_ns(std::move(iv), parent.start_ns, parent.end_ns);
}

// ------------------------------------------------------------ summaries

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -------------------------------------------------------- process probes

namespace {
double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

std::uint64_t status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0)
      return std::strtoull(line.c_str() + len, nullptr, 10);
  }
  return 0;
}
}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

std::uint64_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }
std::uint64_t rss_bytes() { return status_kb("VmRSS:") * 1024; }
std::uint64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
std::size_t thread_count() { return status_kb("Threads:"); }

SchedSample sched_sample() {
  SchedSample s;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return s;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/schedstat";
    std::ifstream in(path);
    std::uint64_t run = 0, wait = 0;
    if (in >> run >> wait) {
      s.run_ns += run;
      s.wait_ns += wait;
    }
  }
  closedir(dir);
  return s;
}

double runq_wait_share(const SchedSample& a, const SchedSample& b) {
  // Threads that exited between the samples take their counts with them,
  // so clamp each delta at zero.
  const double run =
      b.run_ns > a.run_ns ? static_cast<double>(b.run_ns - a.run_ns) : 0.0;
  const double wait =
      b.wait_ns > a.wait_ns ? static_cast<double>(b.wait_ns - a.wait_ns) : 0.0;
  return run + wait > 0 ? wait / (run + wait) : 0.0;
}

StealSample steal_sample() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  StealSample s;
  in >> cpu;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double steal_share(const StealSample& a, const StealSample& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

}  // namespace tokbench
