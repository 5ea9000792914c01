// The benchmark's own tests: the properties its numbers rest on.
//
//   ctest --test-dir .bench_build/tokbench    (or run tokbench_tests)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "drive.hpp"
#include "stacks.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace tokbench;

std::vector<Op> take(OpStream& s, std::size_t n) {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) ops.push_back(s.next());
  return ops;
}

void same_seed_gives_byte_identical_stream() {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    OpStream a(spec, 42, 2), b(spec, 42, 2), c(spec, 43, 2), d(spec, 42, 3);
    const auto ia = stream_bytes(take(a, 20'000));
    CHECK(ia == stream_bytes(take(b, 20'000)));
    CHECK(ia != stream_bytes(take(c, 20'000)));
    CHECK(ia != stream_bytes(take(d, 20'000)));
  }
  // The mix and key range follow the spec.
  const WorkloadSpec hot = workload_spec("node_hot");
  OpStream s(hot, 7, 2);
  std::size_t acquires = 0;
  bool in_range = true;
  for (const Op& op : take(s, 100'000)) {
    acquires += op.kind == OpKind::kAcquire;
    in_range &= op.key >= 1 && op.key <= hot.keys;
  }
  CHECK(in_range);
  CHECK(std::abs(static_cast<double>(acquires) / 1e5 - 0.90) < 0.01);
}

/// Completes every frame inline; stalls once, on frame `stall_at`.
class StallStack final : public Stack {
 public:
  StallStack(std::uint64_t stall_at, std::chrono::microseconds stall)
      : stall_at_(stall_at), stall_(stall) {}
  void issue(const std::vector<Op>& ops,
             const toka::service::protocol::TraceContext*,
             FrameDone done) override {
    if (frames_++ == stall_at_) std::this_thread::sleep_for(stall_);
    FrameResult r;
    r.ops = static_cast<std::uint32_t>(ops.size());
    done(r);
  }
  void set_time(TimeUs) override {}
  toka::service::TableStats table_stats() override { return {}; }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t stall_at_;
  std::chrono::microseconds stall_;
};

void open_loop_charges_late_sends_from_due_time() {
  CHECK(open_latency_us(1'000, 251'000) == 250.0);
  // Frame 0 stalls the generator 3 ms; frames due meanwhile (every
  // 100 us) leave late, and each is charged from its due time.
  const WorkloadSpec spec = workload_spec("node_hot");
  StallStack stack(0, std::chrono::microseconds(3'000));
  StreamFeed feed(spec, 1, 2);
  Tally tally;
  const OpenResult r = run_open(stack, feed, 10'000, 0.01, tally, {});
  CHECK(r.frames == 100);
  CHECK(r.lat_us.size() == 100 && r.lag_us.size() == 100);
  if (r.lat_us.size() == 100) {
    // Frame 1 was due 100 us after frame 0 but left after the stall.
    CHECK(r.lag_us[1] >= 2'500);
    CHECK(r.lat_us[1] >= r.lag_us[1]);
    CHECK(r.lat_us[0] >= 3'000);
    // Well after the stall the generator is back on schedule.
    CHECK(r.lag_us[99] < 1'000);
  }
  // The pacer reports how late a release is, never early.
  const Pacer late(now_ns() - 1'000'000, 1'000.0);
  CHECK(late.wait(0) >= 1'000'000);
  const Pacer on_time(now_ns() + 200'000, 1'000.0);
  const std::int64_t lag = on_time.wait(0);
  CHECK(lag >= 0 && lag < 200'000);
}

void span_self_time_is_duration_minus_child_coverage() {
  const Span parent{1, SpanKind::kClient, 0, 100};
  // Overlapping children count once; a child sticking out is clipped.
  const std::vector<Span> kids = {{1, SpanKind::kIssue, 10, 30},
                                  {1, SpanKind::kHandler, 20, 50},
                                  {1, SpanKind::kSend, 80, 120}};
  CHECK(self_time_ns(parent, kids) == 100 - (40 + 20));
  CHECK(self_time_ns(parent, {}) == 100);
  CHECK(self_time_ns(parent, {{1, SpanKind::kSend, 200, 300}}) == 100);
  CHECK(self_time_ns(parent, {{1, SpanKind::kSend, -5, 200}}) == 0);
  CHECK(covered_ns({{0, 10}, {10, 20}}, 0, 100) == 20);
}

void op_clock_advances_per_ops_issued() {
  std::vector<TimeUs> seen;
  OpClock clock(10, 1'000, [&](TimeUs t) { seen.push_back(t); });
  clock.on_issue(9);
  CHECK(seen.empty());
  clock.on_issue(1);
  clock.on_issue(25);  // crosses two boundaries in one call
  CHECK(seen.size() == 2);
  if (seen.size() == 2) {
    CHECK(seen[0] == 1'000);
    CHECK(seen[1] == 3'000);
  }
  CHECK(clock.ops() == 35);
}

/// Proactive drops per op through a live Server + Client over InProc,
/// with the op-driven clock, on one fixed stream.
double drops_per_op(const WorkloadSpec& spec,
                    const std::vector<std::vector<Op>>& frames) {
  StackOptions o;
  o.spec = &spec;
  o.seed = 5;
  o.wire = Wire::kInProc;
  std::unique_ptr<Stack> stack = build_stack(o);
  OpClock clock(spec.ops_per_tick(), spec.delta_us,
                [&](TimeUs t) { stack->set_time(t); });
  FixedFeed feed(frames);
  Tally tally;
  DriveOptions d;
  d.clock = &clock;
  const auto before = stack->table_stats();
  const ClosedResult r = run_closed(*stack, feed, spec.window, tally, d);
  const auto after = stack->table_stats();
  CHECK(tally.failed_ops.load() == 0);
  return static_cast<double>(after.proactive_dropped - before.proactive_dropped) /
         static_cast<double>(r.ops);
}

void op_driven_clock_makes_drops_per_op_repeat() {
  WorkloadSpec spec = workload_spec("node_hot");
  spec.keys = 65'536;
  spec.zipf = 0.8;  // a cold tail, so settles replay several ticks
  OpStream s(spec, 9, 2);
  std::vector<std::vector<Op>> frames(60'000);
  for (auto& f : frames) s.next_frame(f);
  const double a = drops_per_op(spec, frames);
  const double b = drops_per_op(spec, frames);
  std::printf("proactive drops per op: %.5f %.5f\n", a, b);
  CHECK(a > 0.1);
  CHECK(std::abs(a - b) <= 0.01 * a);
}

}  // namespace

int main() {
  same_seed_gives_byte_identical_stream();
  open_loop_charges_late_sends_from_due_time();
  span_self_time_is_duration_minus_child_coverage();
  op_clock_advances_per_ops_issued();
  op_driven_clock_makes_drops_per_op_repeat();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all tokbench tests passed\n");
  return 0;
}
