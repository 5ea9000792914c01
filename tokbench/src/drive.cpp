#include "drive.hpp"

#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>

namespace tokbench {

namespace proto = toka::service::protocol;

void Tally::add(const FrameResult& r) {
  ops.fetch_add(r.ops, std::memory_order_relaxed);
  switch (r.error) {
    case FrameResult::Error::kNone:
      granted.fetch_add(static_cast<std::uint64_t>(r.granted),
                        std::memory_order_relaxed);
      break;
    case FrameResult::Error::kTimeout:
      timeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameResult::Error::kOverloaded:
      overloads.fetch_add(1, std::memory_order_relaxed);
      break;
    case FrameResult::Error::kRpc:
      rpc_errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (r.error != FrameResult::Error::kNone)
    failed_ops.fetch_add(r.ops, std::memory_order_relaxed);
  if (r.grant_over_request) over_grants.fetch_add(1, std::memory_order_relaxed);
}

namespace {

std::atomic<std::uint64_t> g_trace_ids{1};

/// Outstanding-frame counter with a blocking wait for zero.
class Inflight {
 public:
  void add() {
    std::lock_guard lock(mu_);
    ++n_;
  }
  void done() {
    std::lock_guard lock(mu_);
    if (--n_ == 0) cv_.notify_all();
  }
  /// Waits until nothing is outstanding (or `limit_s` passes; <= 0 waits
  /// without limit); returns whether it drained.
  bool wait_zero(double limit_s) {
    std::unique_lock lock(mu_);
    const auto drained = [&] { return n_ == 0; };
    if (limit_s <= 0) {
      cv_.wait(lock, drained);
      return true;
    }
    return cv_.wait_for(lock, std::chrono::duration<double>(limit_s), drained);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t n_ = 0;
};

constexpr double kDrainLimitS = 30.0;

}  // namespace

ClosedResult run_closed(Stack& stack, FrameFeed& feed, std::uint32_t window,
                        Tally& tally, const DriveOptions& opt) {
  // Shared with the completions: the last one is still unwinding on a
  // program thread when the drain wakes this one up.
  struct State {
    Stack* stack;
    FrameFeed* feed;
    Tally* tally;
    DriveOptions opt;
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> ops{0};
    Inflight chains;
  };
  auto st = std::make_shared<State>();
  st->stack = &stack;
  st->feed = &feed;
  st->tally = &tally;
  st->opt = opt;

  // One chain: issue a frame; its completion issues the next.
  std::shared_ptr<std::function<void()>> issue =
      std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_issue = issue;
  *issue = [st, weak_issue] {
    std::vector<Op> ops;
    if (!st->feed->next(ops)) {
      st->chains.done();
      return;
    }
    if (st->opt.clock != nullptr) st->opt.clock->on_issue(ops.size());
    auto again = weak_issue.lock();
    proto::TraceContext ctx;
    const proto::TraceContext* trace = nullptr;
    std::int64_t t0 = 0;
    if (st->opt.trace) {
      ctx.trace_id = g_trace_ids.fetch_add(1, std::memory_order_relaxed);
      trace = &ctx;
      t0 = now_ns();
    }
    st->stack->issue(
        ops, trace,
        [st, again, id = ctx.trace_id, t0](const FrameResult& r) {
          if (st->opt.trace)
            SpanLog::global().record({id, SpanKind::kClient, t0, now_ns()});
          st->tally->add(r);
          st->frames.fetch_add(1, std::memory_order_relaxed);
          st->ops.fetch_add(r.ops, std::memory_order_relaxed);
          if (again) (*again)();
        });
    if (st->opt.trace)
      SpanLog::global().record({ctx.trace_id, SpanKind::kIssue, t0, now_ns()});
  };

  const double cpu0 = process_cpu_s();
  const std::int64_t w0 = now_ns();
  for (std::uint32_t i = 0; i < window; ++i) {
    st->chains.add();
    (*issue)();
  }
  st->chains.wait_zero(0.0);
  ClosedResult out;
  out.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  out.cpu_s = process_cpu_s() - cpu0;
  out.frames = st->frames.load();
  out.ops = st->ops.load();
  return out;
}

OpenResult run_open(Stack& stack, FrameFeed& feed, double frames_per_s,
                    double seconds, Tally& tally, const DriveOptions& opt) {
  const auto n = static_cast<std::uint64_t>(frames_per_s * seconds);
  struct State {
    std::vector<double> lat_us;
    std::atomic<std::uint64_t> ops{0};
    Inflight outstanding;
  };
  auto st = std::make_shared<State>();
  st->lat_us.assign(n, std::numeric_limits<double>::infinity());
  OpenResult out;
  out.lag_us.reserve(n);

  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  const std::int64_t w0 = now_ns();
  const Pacer pacer(w0 + 100'000, 1e9 / frames_per_s);
  std::vector<Op> ops;
  for (std::uint64_t i = 0; i < n; ++i) {
    ops.clear();
    if (!feed.next(ops)) break;
    const std::int64_t lag = pacer.wait(i);
    out.lag_us.push_back(static_cast<double>(lag) / 1e3);
    const std::int64_t due = pacer.due_ns(i);
    if (opt.clock != nullptr) opt.clock->on_issue(ops.size());
    proto::TraceContext ctx;
    const proto::TraceContext* trace = nullptr;
    std::int64_t t0 = 0;
    if (opt.trace) {
      ctx.trace_id = g_trace_ids.fetch_add(1, std::memory_order_relaxed);
      trace = &ctx;
      t0 = now_ns();
    }
    st->outstanding.add();
    stack.issue(ops, trace,
                [st, &tally, i, due, id = ctx.trace_id, t0,
                 traced = opt.trace](const FrameResult& r) {
                  const std::int64_t done = now_ns();
                  if (traced)
                    SpanLog::global().record({id, SpanKind::kClient, t0, done});
                  if (r.error == FrameResult::Error::kNone)
                    st->lat_us[i] = open_latency_us(due, done);
                  st->ops.fetch_add(r.ops, std::memory_order_relaxed);
                  tally.add(r);
                  st->outstanding.done();
                });
    if (opt.trace)
      SpanLog::global().record({ctx.trace_id, SpanKind::kIssue, t0, now_ns()});
    ++out.frames;
  }
  st->outstanding.wait_zero(kDrainLimitS);
  out.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  out.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0);
  out.ops = st->ops.load();
  out.lat_us.assign(st->lat_us.begin(),
                    st->lat_us.begin() + static_cast<std::ptrdiff_t>(out.frames));
  return out;
}

}  // namespace tokbench
