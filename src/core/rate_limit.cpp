#include "core/rate_limit.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace toka::core {

std::string RateLimitViolation::describe() const {
  std::ostringstream os;
  os << "rate limit violated: " << sends << " sends in ["
     << to_seconds(window_start) << "s, " << to_seconds(window_end)
     << "s] but bound is " << bound;
  return os.str();
}

RateLimitAuditor::RateLimitAuditor(TimeUs delta, Tokens capacity)
    : delta_(delta), capacity_(capacity) {
  TOKA_CHECK_MSG(delta > 0, "period must be positive, got " << delta);
  TOKA_CHECK_MSG(capacity >= 0,
                 "capacity must be non-negative, got " << capacity);
}

void RateLimitAuditor::record(TimeUs t) {
  TOKA_CHECK_MSG(sends_.empty() || t >= sends_.back(),
                 "send timestamps must be non-decreasing");
  sends_.push_back(t);
}

void RateLimitAuditor::retract(std::size_t n) {
  TOKA_CHECK_MSG(n <= sends_.size(),
                 "retracting " << n << " of " << sends_.size() << " records");
  sends_.resize(sends_.size() - n);
}

std::optional<RateLimitViolation> RateLimitAuditor::window(
    std::size_t i, std::size_t j) const {
  const std::uint64_t count = j - i + 1;
  const std::uint64_t bound =
      static_cast<std::uint64_t>((sends_[j] - sends_[i]) / delta_) + 1 +
      static_cast<std::uint64_t>(capacity_);
  if (count <= bound) return std::nullopt;
  return RateLimitViolation{sends_[i], sends_[j], count, bound};
}

std::optional<RateLimitViolation> RateLimitAuditor::first_violation() const {
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    for (std::size_t j = i; j < sends_.size(); ++j) {
      if (auto v = window(i, j)) return v;
    }
  }
  return std::nullopt;
}

std::optional<RateLimitViolation> RateLimitAuditor::newest_violation() const {
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    if (auto v = window(i, sends_.size() - 1)) return v;
  }
  return std::nullopt;
}

BurstWatchdog::BurstWatchdog(TimeUs delta, Tokens capacity)
    : delta_(delta),
      capacity_(capacity),
      // Clamped so 2·keep_ cannot overflow; no real history gets near it.
      keep_(static_cast<std::size_t>(
                std::clamp<Tokens>(capacity, 0, Tokens{1} << 40)) +
            1) {
  TOKA_CHECK_MSG(delta > 0, "period must be positive, got " << delta);
  TOKA_CHECK_MSG(capacity >= 0,
                 "capacity must be non-negative, got " << capacity);
}

bool BurstWatchdog::record(TimeUs t, Tokens n) {
  if (n <= 0) return false;
  if (!history_.empty() && t < history_.back().t) t = history_.back().t;
  if (history_.empty() || t != history_.back().t) {
    // A new instant anchors windows at its first grant: S_{i-1}·Δ - t_i.
    const Wide anchor = Wide{total_} * delta_ - t;
    const Wide min_anchor =
        history_.empty() ? anchor
                         : std::min(history_.back().min_anchor, anchor);
    if (history_.size() == 2 * keep_) {
      // Amortized O(1): every keep_ new records, drop all but the newest
      // keep_ (the most a retract can reach; see the header).
      history_.erase(history_.begin(),
                     history_.end() - static_cast<std::ptrdiff_t>(keep_));
    }
    history_.push_back(Record{t, 0, min_anchor});
  }
  history_.back().count += n;
  total_ += n;
  ++checks_;
  const bool bad = Wide{total_} * delta_ - t - history_.back().min_anchor >
                   (Wide{capacity_} + 1) * delta_;
  if (bad) ++violations_;
  return bad;
}

void BurstWatchdog::retract(Tokens n) {
  while (n > 0 && !history_.empty()) {
    Record& newest = history_.back();
    const Tokens take = std::min(newest.count, n);
    newest.count -= take;
    total_ -= take;
    n -= take;
    if (newest.count == 0) history_.pop_back();
  }
}

std::uint64_t RateLimitAuditor::max_in_window(TimeUs window) const {
  TOKA_CHECK(window >= 0);
  std::uint64_t best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < sends_.size(); ++hi) {
    while (sends_[hi] - sends_[lo] > window) ++lo;
    best = std::max(best, static_cast<std::uint64_t>(hi - lo + 1));
  }
  return best;
}

}  // namespace toka::core
