// Auditor for the burst bound of paper §3.4.
//
// A token-capacity-C strategy guarantees that a node sends at most
// ceil(t/Δ) + C messages within any time window of length t. For closed
// windows [t_i, t_j] that both contain a send, the equivalent discrete bound
// checked here is
//
//     count(i..j) <= (t_j - t_i)/Δ + 1 + C      (integer division)
//
// (+1 because a closed window of length 0 still contains one tick's worth of
// granted token; e.g. a tick-send and a full-balance reactive burst can land
// at the same instant, giving C+1 sends at one timestamp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace toka::core {

/// Description of a window that exceeded the bound.
struct RateLimitViolation {
  TimeUs window_start = 0;
  TimeUs window_end = 0;
  std::uint64_t sends = 0;
  std::uint64_t bound = 0;

  std::string describe() const;
};

/// Records send timestamps and checks every send-anchored window against
/// the §3.4 bound. Intended for tests and the runtime demo; the O(n^2)
/// exhaustive check is fine at those scales.
class RateLimitAuditor {
 public:
  /// Δ is the token period, C the token capacity of the strategy under
  /// audit.
  RateLimitAuditor(TimeUs delta, Tokens capacity);

  /// Records a send at time t. Timestamps must be non-decreasing.
  void record(TimeUs t);

  /// Strikes the `n` most recent records from the trace. Used by the
  /// service's refund path: a returned token's admission never happened,
  /// and newest-first matches the account's fungible-token accounting
  /// (refund_spend), so the trace always holds exactly the outstanding
  /// spends. Requires n <= send_count().
  void retract(std::size_t n);

  std::size_t send_count() const { return sends_.size(); }

  /// Exhaustively checks all send-anchored windows. Returns the first
  /// violation found, or nullopt if the trace satisfies the bound.
  std::optional<RateLimitViolation> first_violation() const;

  /// Checks only the windows that end at the newest send: the verdict an
  /// online checker owes after each grant (BurstWatchdog's reference).
  std::optional<RateLimitViolation> newest_violation() const;

  /// Largest number of sends observed in any window of length `window`.
  std::uint64_t max_in_window(TimeUs window) const;

 private:
  /// The window [sends_[i], sends_[j]] if it exceeds the bound.
  std::optional<RateLimitViolation> window(std::size_t i, std::size_t j) const;

  TimeUs delta_;
  Tokens capacity_;
  std::vector<TimeUs> sends_;
};

/// Online, exact form of RateLimitAuditor, cheap enough to run inside the
/// data plane: O(1) amortized per grant, memory bounded by 2(C+1) records.
///
/// Exactness. Counts are integers, so count <= floor(e/Δ) + 1 + C is the
/// same condition as (count - 1 - C)·Δ <= e. With S_j the running grant
/// total, a window [t_i, t_j] holds S_j - S_{i-1} sends, so the newest
/// grant violates some window ending at it iff
///
///     S_j·Δ - t_j - M > (1 + C)·Δ,   M = min over sends i of S_{i-1}·Δ - t_i
///
/// Grants at one instant share a record (t, count, prefix-min of M); its
/// first send is the record's best anchor, so M needs one term per record.
///
/// Retention. The refund path caps a refund at C - balance and the balance
/// stays in [0, C], so the trace never shrinks more than C grants below
/// any earlier length: a retract reaches at most the C newest grants, and
/// the newest C + 1 records cover it. Older records are dropped, their
/// anchors already folded into every younger record's prefix-min. Refunds
/// must be retracted newest-first, like RateLimitAuditor, so the audited
/// trace holds net admissions.
class BurstWatchdog {
 public:
  /// Δ and C of the strategy under audit.
  BurstWatchdog(TimeUs delta, Tokens capacity);

  /// Records `n` grants at time t (clamped forward to the newest record, as
  /// settle() never runs a clock backwards) and checks every send-anchored
  /// window ending at the newest grant. Returns true if one exceeds the
  /// bound; n <= 0 records and checks nothing.
  bool record(TimeUs t, Tokens n);

  /// Strikes the `n` newest grants (the refund path). Within the refund
  /// discipline above a retract never reaches a dropped record; one that
  /// would is clamped at what the retained records hold.
  void retract(Tokens n);

  /// Grants checked / grants that closed a window over the bound.
  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }

 private:
  /// Anchor arithmetic is 128-bit: Δ and C come from admin-set namespace
  /// policy, and (1 + C)·Δ or S·Δ may not fit 64 bits.
  using Wide = __int128;

  struct Record {
    TimeUs t = 0;
    Tokens count = 0;
    Wide min_anchor = 0;  ///< M over this record and all older ones
  };

  TimeUs delta_;
  Tokens capacity_;
  std::size_t keep_;  ///< C + 1: records a retract can reach
  std::int64_t total_ = 0;  ///< S: net grants, dropped records included
  std::vector<Record> history_;  ///< oldest first, at most 2·keep_
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace toka::core
