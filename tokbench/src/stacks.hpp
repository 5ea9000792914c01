// The service stacks a workload drives, built only from the program's
// public APIs: a single tokend node (locked or engine plane, over InProc,
// TcpMesh or EpollMesh) and a tokad cluster of ClusterServers on an
// InProcNetwork. Every stack is preloaded with the workload's whole key
// space at construction and runs without a ClockDriver: the generator
// sets the tables' time through set_time().
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "bench_core.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"

namespace tokbench {

/// Wire under a single node.
enum class Wire : std::uint8_t { kInProc, kTcp, kEpoll };

struct StackOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  Wire wire = Wire::kTcp;
  bool engine = false;  ///< ShardEngine plane (single node only)
  /// Cluster only: ClusterMap::replicas (overrides spec->replicas).
  std::uint32_t replicas = 0;
  /// Wrap each server endpoint in the span-recording transport shim.
  bool traced = false;
};

/// Outcome of one issued frame, as the client saw it.
struct FrameResult {
  enum class Error : std::uint8_t {
    kNone,
    kTimeout,     ///< util::IoError other than a typed server error
    kOverloaded,  ///< protocol::OverloadedError
    kRpc,         ///< any other typed server error (incl. redirects)
  };
  Error error = Error::kNone;
  Tokens granted = 0;  ///< acquire tokens granted
  bool grant_over_request = false;  ///< some grant exceeded its request
  std::uint32_t ops = 0;            ///< ops the frame carried
};
using FrameDone = std::function<void(const FrameResult&)>;

struct ClusterCounters {
  std::uint64_t redirects = 0;
  std::uint64_t delta_frames = 0;
  std::uint64_t delta_accounts = 0;
  std::uint64_t acks = 0;
  std::uint64_t lag_rounds = 0;  ///< max over nodes, right now
  std::uint64_t tokens_forfeited = 0;
};

class Stack {
 public:
  Stack() = default;
  virtual ~Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Issues one frame asynchronously: one op of its kind, or (ops > 1)
  /// one BatchAcquire. `done` runs on a program thread. With `trace` set
  /// the frame carries that trace context.
  virtual void issue(const std::vector<Op>& ops,
                     const toka::service::protocol::TraceContext* trace,
                     FrameDone done) = 0;

  /// Moves every table's coarse clock to `now_us` (never backwards).
  virtual void set_time(TimeUs now_us) = 0;

  /// Table counters summed over the serving nodes (a consistent sweep).
  virtual toka::service::TableStats table_stats() = 0;


  virtual ClusterCounters cluster_counters() const { return {}; }
  /// Replication stream lag right now, max over nodes (cheap to sample).
  virtual std::uint64_t replication_lag() const { return 0; }
};

std::unique_ptr<Stack> build_stack(const StackOptions& options);

/// The stack a workload runs on, from its one plane field: the locked
/// plane over TcpMesh, the engine plane over EpollMesh, or the cluster.
StackOptions workload_stack(const WorkloadSpec& spec, std::uint64_t seed,
                            bool traced);

/// The namespace configuration every stack serves: the tokend daemon's
/// default policy (generalized token account, A=2, C=8).
toka::service::ServiceConfig service_config(const WorkloadSpec& spec,
                                            std::uint64_t seed,
                                            bool exclusive);

/// Classifies a client-side failure.
FrameResult::Error classify(const std::exception_ptr& error);

}  // namespace tokbench
