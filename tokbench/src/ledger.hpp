// The per-layer cost ledger: one fixed op stream of the workload replayed
// through progressively more of the stack, so each layer's marginal ns/op
// falls out by subtraction between adjacent levels:
//
//   1 account          core::TokenAccount settle + spend alone
//   2 table_locked     AccountTable, striped-lock mode
//     table_exclusive  AccountTable, exclusive-shard mode
//   3 protocol         + request/response encode and decode
//   4 engine           + ShardEngine hand-off (submit -> completion)
//   5 server_inproc    Server + Client over InProcNetwork
//   6 server_socket    Server + Client over TcpMesh (locked plane) or
//                      EpollMesh (engine plane)
//   7 cluster_route    ClusterClient over three ClusterServers
//   8 replication      the same cluster with replicas = 1
//
// Levels 1-4 run on the calling thread (level 4 with the engine's
// workers); levels 5-8 are closed loops at the workload's window, so
// their ns/op is wall time per op at that concurrency. The same pass also
// measures the single-layer numbers that need no live stack: table op
// costs, protocol frame costs and allocations, ring routing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_core.hpp"
#include "drive.hpp"

namespace tokbench {

using MetricList = std::vector<Metric>;

/// Appends every ledger.* metric and the single-layer core.*, service.*
/// and cluster.route_ns metrics the ledger pass measures. The live-stack
/// levels tally their client outcomes into `tally`.
void run_ledger(const WorkloadSpec& spec, std::uint64_t seed,
                MetricList& out, Tally& tally);

}  // namespace tokbench
