// Load generation: a closed loop (a fixed window of frames in flight, each
// completion issuing the next) and an open loop (one generator thread
// releasing frames on a fixed schedule). Both feed the op-driven clock,
// tally every outcome the client sees, and can stamp trace contexts and
// record the client-side spans of the traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "bench_core.hpp"
#include "stacks.hpp"

namespace tokbench {

/// Where frames come from: the workload's endless stream, or a fixed
/// list (the ledger replays one fixed stream through every level).
class FrameFeed {
 public:
  FrameFeed() = default;
  virtual ~FrameFeed() = default;
  FrameFeed(const FrameFeed&) = delete;
  FrameFeed& operator=(const FrameFeed&) = delete;
  /// Appends the next frame's ops to `out` (cleared by the caller);
  /// false when the feed is exhausted. Thread-safe.
  virtual bool next(std::vector<Op>& out) = 0;
};

class StreamFeed final : public FrameFeed {
 public:
  StreamFeed(const WorkloadSpec& spec, std::uint64_t seed,
             std::uint64_t stream_id)
      : stream_(spec, seed, stream_id) {}
  bool next(std::vector<Op>& out) override {
    std::lock_guard lock(mu_);
    stream_.next_frame(out);
    return true;
  }

 private:
  std::mutex mu_;
  OpStream stream_;
};

class FixedFeed final : public FrameFeed {
 public:
  explicit FixedFeed(const std::vector<std::vector<Op>>& frames)
      : frames_(&frames) {}
  bool next(std::vector<Op>& out) override {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= frames_->size()) return false;
    out = (*frames_)[i];
    return true;
  }

 private:
  const std::vector<std::vector<Op>>* frames_;
  std::atomic<std::size_t> next_{0};
};

/// The next `frames` frames of another feed: a closed-loop phase sized in
/// work, not time, so the op-driven clock covers the same token time in
/// every run however fast the host runs it.
class CountedFeed final : public FrameFeed {
 public:
  CountedFeed(FrameFeed& inner, std::uint64_t frames)
      : inner_(&inner), left_(frames) {}
  bool next(std::vector<Op>& out) override {
    std::uint64_t left = left_.load(std::memory_order_relaxed);
    do {
      if (left == 0) return false;
    } while (!left_.compare_exchange_weak(left, left - 1,
                                          std::memory_order_relaxed));
    return inner_->next(out);
  }

 private:
  FrameFeed* inner_;
  std::atomic<std::uint64_t> left_;
};

/// Every outcome the client observed. Thread-safe.
struct Tally {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> failed_ops{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> overloads{0};
  std::atomic<std::uint64_t> rpc_errors{0};
  std::atomic<std::uint64_t> granted{0};
  std::atomic<std::uint64_t> over_grants{0};  ///< frames with grant > request

  void add(const FrameResult& r);
};

struct ClosedResult {
  std::uint64_t frames = 0;
  std::uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU over the phase
  double cpu_us_per_op() const {
    return ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0.0;
  }
  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
};

struct OpenResult {
  std::uint64_t frames = 0;
  std::uint64_t ops = 0;
  double wall_s = 0;
  /// Process CPU minus the generator thread's own (its pacing spin is the
  /// load generator, not the system under test).
  double cpu_s = 0;
  std::vector<double> lat_us;  ///< per frame, from its due time
  std::vector<double> lag_us;  ///< per frame, how late it was released
  double cpu_us_per_op() const {
    return ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0.0;
  }
};

struct DriveOptions {
  OpClock* clock = nullptr;  ///< fed with every issued op when set
  /// Stamp a trace context on every frame (single-node stacks honour it)
  /// and record the client root and issue spans into SpanLog::global().
  bool trace = false;
};

/// Keeps `window` frames in flight until the feed is exhausted, then
/// drains.
ClosedResult run_closed(Stack& stack, FrameFeed& feed, std::uint32_t window,
                        Tally& tally, const DriveOptions& opt);

/// Releases frames at `frames_per_s` for `seconds` from the calling
/// thread, then waits for every outstanding frame.
OpenResult run_open(Stack& stack, FrameFeed& feed, double frames_per_s,
                    double seconds, Tally& tally, const DriveOptions& opt);

}  // namespace tokbench
