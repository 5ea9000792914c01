// Gate driver for the tokend service's CI performance gates. Every mode is
// a closed loop over 1M+ Zipf-distributed keys, and every mode is one side
// of a gate in kGates:
//
//   table          the striped-lock AccountTable, direct calls (no wire)
//   sync           one TCP connection, one blocking acquire per round trip
//   pipeline       the same connection with --window async acquires in flight
//   sharded        batches straight into the ShardEngine (no wire)
//   shardedtr      sharded with the flight recorder stamping every batch
//   shardedwd      sharded with the §3.4 watchdog on 1 in --watchdog-sample keys
//   cluster1       the pipelined workload against one in-process tokad node
//   cluster        the same against --cluster-nodes nodes
//   cluster-churn  cluster with one node killed at 40% and one joined at 70%
//   cluster-repl   cluster-churn with replicas=1: the kill fails over by
//                  promotion instead of an operator map push
//
//   $ ./service_load --quick                       # each mode once, no verdict
//   $ ./service_load --modes=sync,pipeline --seconds=5
//   $ ./service_load --gate --json=BENCH_service.json
//
// --gate runs the gate table instead of --modes. Each gate's two modes run
// as kGatePairs interleaved pairs (AB, BA, AB, ...), and the gate judges
// the median over the pairs — of the B/A ratio, of the cost 100·(1 − B/A),
// or of B's own ops/s for a floor — and reports the IQR next to it. A
// cluster run with a client-visible error, or a replicated run that did not
// fail over within the forfeit bound, fails its gate whatever the median.
// Gates that price parallel work are reported but not enforced below
// kGateCores hardware threads, where they measure the scheduler. The exit
// status is 1 when an enforced gate fails. --json=FILE writes every run and
// every gate (median, IQR, samples, threshold, verdict), stamped with
// --git-sha, the host's thread count and the UTC time.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "obs/trace.hpp"
#include "runtime/inproc.hpp"
#include "runtime/tcp.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace {

using namespace toka;
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1e3;
}

struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0, p99_us = 0, max_us = 0;
};

LatencySummary summarize(const std::vector<double>& samples_us) {
  LatencySummary out;
  out.samples = samples_us.size();
  if (samples_us.empty()) return out;
  out.max_us = *std::max_element(samples_us.begin(), samples_us.end());
  out.p50_us = util::quantile(samples_us, 0.50);
  out.p99_us = util::quantile(samples_us, 0.99);
  return out;
}

/// What the replicated churn run's failover did (cluster-repl only).
struct ReplicationOutcome {
  double failover_ms = 0;       ///< kill -> a victim-owned key served again
  std::uint64_t promotions = 0; ///< accepted promote() calls, cluster-wide
  std::uint64_t replica_installs = 0;  ///< replicas promoted into tables
  Tokens tokens_forfeited = 0;         ///< cluster-wide at run end
  std::uint64_t delta_frames = 0;      ///< kReplicate frames streamed
  std::uint64_t delta_accounts = 0;    ///< account deltas they carried
};

struct ModeResult {
  std::string mode;
  std::size_t threads = 0;
  double seconds = 0;      ///< wall time of the measured phase
  std::uint64_t ops = 0;   ///< acquire ops (each batch element counts)
  std::int64_t granted = 0;
  LatencySummary latency;
  std::uint64_t errors = 0;  ///< client-visible errors (cluster modes)
  std::optional<ReplicationOutcome> replication;  ///< cluster-repl only
  std::string defect;  ///< what the run got wrong besides its speed

  double ops_per_sec() const { return seconds > 0 ? ops / seconds : 0; }
};

/// Padded so neighbouring threads' tallies never share a cache line. `ops`
/// is atomic because cluster completions land on several lanes at once.
struct alignas(64) PerThread {
  std::atomic<std::uint64_t> ops{0};
  std::int64_t granted = 0;
  std::vector<double> lat_us;
};

/// Runs `body(thread_index, tally)` on `threads` OS threads and merges.
ModeResult run_threads(const std::string& mode, std::size_t threads,
                       const std::function<void(std::size_t, PerThread&)>& body) {
  std::vector<PerThread> tallies(threads);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] { body(t, tallies[t]); });
  for (auto& w : workers) w.join();

  ModeResult res;
  res.mode = mode;
  res.threads = threads;
  res.seconds = us_between(start, Clock::now()) / 1e6;
  std::vector<double> all_lat;
  for (PerThread& tally : tallies) {
    res.ops += tally.ops.load();
    res.granted += tally.granted;
    all_lat.insert(all_lat.end(), tally.lat_us.begin(), tally.lat_us.end());
  }
  res.latency = summarize(all_lat);
  return res;
}

struct LoadConfig {
  std::size_t threads = 0;
  std::uint64_t keys = 0;
  double zipf = 0;
  double seconds = 0;
  std::size_t batch = 0;          ///< ops per sharded-mode batch
  std::size_t window = 0;         ///< in-flight cap per pipelined connection
  std::size_t cluster_nodes = 0;  ///< tokad members of the cluster modes
  std::size_t workers = 0;        ///< shard-owner workers (0 = one per core)
  std::uint64_t trace_sample = 128;    ///< flight recorder: sample 1 in N
  std::uint64_t watchdog_sample = 64;  ///< §3.4 watchdog: audit 1 in N keys
};

/// Creates every key once, single-threaded, so a timed run never pays the
/// inserts and the store is fully populated.
void preload(service::AccountTable& table, std::uint64_t keys) {
  constexpr std::size_t kChunk = 4096;
  std::vector<service::AcquireOp> ops;
  ops.reserve(kChunk);
  for (std::uint64_t key = 0; key < keys; key += kChunk) {
    ops.clear();
    const std::uint64_t end = std::min<std::uint64_t>(key + kChunk, keys);
    for (std::uint64_t k = key; k < end; ++k)
      ops.push_back(service::AcquireOp{k, 0});
    table.acquire_batch(ops);
  }
}

ModeResult run_table(service::AccountTable& table,
                     const util::ZipfSampler& sampler, const LoadConfig& load) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads("table", load.threads, [&](std::size_t t, PerThread& tally) {
    util::Rng rng(1000 + t);
    for (std::uint64_t i = 0;; ++i) {
      if ((i & 0xFF) == 0 && Clock::now() >= deadline) break;
      const std::uint64_t key = sampler.next(rng);
      if ((i & 0x3F) == 0) {
        const auto t0 = Clock::now();
        tally.granted += table.acquire(key, 1).granted;
        tally.lat_us.push_back(us_between(t0, Clock::now()));
      } else {
        tally.granted += table.acquire(key, 1).granted;
      }
      ++tally.ops;
    }
  });
}

/// Closed loop straight into the shard engine: each submitter keeps a
/// small ring of batches in flight, refilling a slot as soon as its
/// completion (fired by whichever shard-owner worker finishes last) frees
/// it. This is the vectorized settle path with no wire in between — the
/// number the striped-lock "table" mode is compared against. Latency spans
/// submit -> completion, so queue wait on the owner workers is included.
/// With `tracer` set ("shardedtr"), every batch is trace-stamped (sampled
/// per the tracer's 1-in-N policy) so the run prices the flight recorder
/// on this hottest path.
ModeResult run_sharded(const std::string& mode, service::ShardEngine& engine,
                       const util::ZipfSampler& sampler,
                       const LoadConfig& load, obs::Tracer* tracer) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads(mode, load.threads, [&](std::size_t t,
                                             PerThread& tally) {
    constexpr std::size_t kDepth = 4;  ///< batches in flight per submitter
    struct Slot {
      std::binary_semaphore free{1};
      std::vector<service::AcquireOp> ops;
      std::int64_t granted = 0;
      double lat_us = 0;
      Clock::time_point t0;
      bool warm = false;  ///< has a harvestable result
    };
    // The completion runs on a worker thread, but only after the submitter
    // parked the slot: acquire() below is the fence that makes the slot's
    // fields safe to read back.
    const auto done = [](service::EngineBatch& batch, void* ctx) {
      auto* slot = static_cast<Slot*>(ctx);
      std::int64_t granted = 0;
      for (const service::AcquireResult& r : batch.results)
        granted += r.granted;
      slot->granted = granted;
      slot->lat_us = us_between(slot->t0, Clock::now());
      slot->free.release();
    };
    std::array<Slot, kDepth> slots;
    util::Rng rng(9000 + t);
    const auto harvest = [&](Slot& slot, bool sample_latency) {
      tally.granted += slot.granted;
      if (sample_latency) tally.lat_us.push_back(slot.lat_us);
      tally.ops.fetch_add(slot.ops.size(), std::memory_order_relaxed);
    };
    for (std::uint64_t i = 0;; ++i) {
      if (Clock::now() >= deadline) break;
      Slot& slot = slots[i % kDepth];
      slot.free.acquire();
      if (slot.warm) harvest(slot, (i & 0x3F) == 0);
      slot.warm = true;
      slot.ops.resize(load.batch);
      for (service::AcquireOp& op : slot.ops)
        op = service::AcquireOp{sampler.next(rng), 1};
      slot.t0 = Clock::now();
      std::uint64_t trace_id = 0;
      bool trace_sampled = false;
      if (tracer != nullptr) {
        trace_id = tracer->next_trace_id();
        trace_sampled = tracer->sample_next();
      }
      // A full owner queue sheds the whole batch; the closed loop just
      // offers it again (the bench measures capacity, not the valve).
      while (!engine.submit_batch(service::kDefaultNamespace, slot.ops, done,
                                  &slot, trace_id, trace_sampled))
        std::this_thread::yield();
    }
    for (Slot& slot : slots) {  // retire the in-flight tail
      slot.free.acquire();
      if (slot.warm) harvest(slot, /*sample_latency=*/true);
    }
  });
}

/// The shard-per-thread plane on its own table (exclusive_shards: the
/// per-shard mutex is a no-op, workers own their shards outright).
/// "shardedtr" adds the flight recorder and "shardedwd" the watchdog at
/// its production sampling; plain "sharded" runs with both off, so each
/// ratio against it isolates one feature.
ModeResult run_sharded_mode(const std::string& mode,
                            const service::ServiceConfig& cfg,
                            const util::ZipfSampler& sampler,
                            const LoadConfig& load) {
  service::ServiceConfig sharded_cfg = cfg;
  sharded_cfg.exclusive_shards = true;
  sharded_cfg.watchdog_sample = mode == "shardedwd" ? load.watchdog_sample : 0;
  service::AccountTable table(sharded_cfg);
  // Until the workers exist the table is single-owner, so direct
  // (single-threaded) access is legal.
  preload(table, load.keys);
  service::ClockDriver driver(table, 1000);
  driver.start();
  obs::Tracer tracer(obs::TracerOptions{.sample_every = load.trace_sample});
  obs::Tracer* const stamp = mode == "shardedtr" ? &tracer : nullptr;
  service::ShardEngineOptions engine_opts;
  engine_opts.workers = load.workers;
  engine_opts.tracer = stamp;
  service::ShardEngine engine(table, engine_opts);
  ModeResult res = run_sharded(mode, engine, sampler, load, stamp);
  engine.drain();
  driver.stop();
  return res;
}

/// Single-connection sync closed loop (one blocking acquire per round
/// trip): the baseline the pipeline mode's speedup is measured against.
ModeResult run_sync(runtime::Transport& endpoint,
                    const util::ZipfSampler& sampler, const LoadConfig& load) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads("sync", 1, [&](std::size_t t, PerThread& tally) {
    service::Client client(endpoint, 0);
    util::Rng rng(5000 + t);
    while (Clock::now() < deadline) {
      const std::uint64_t key = sampler.next(rng);
      const auto t0 = Clock::now();
      tally.granted += client.acquire(key, 1).granted;
      tally.lat_us.push_back(us_between(t0, Clock::now()));
      tally.ops.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

/// Closed-loop pipelining over one async client: `window` self-sustaining
/// op chains on the connection. Each completion callback (running on the
/// transport's receive thread) records its op's latency and immediately
/// issues the chain's next acquire — so under load the whole client side
/// (parse burst, completions, next issues) happens inside one receive
/// burst and the issues leave as one coalesced write. Latency spans
/// issue -> completion, including in-flight queueing.
ModeResult run_pipeline(runtime::Transport& endpoint,
                        const util::ZipfSampler& sampler,
                        const LoadConfig& load) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  const std::size_t window = std::max<std::size_t>(load.window, 1);
  return run_threads("pipeline", 1, [&](std::size_t t, PerThread& tally) {
    service::Client client(endpoint, 0);
    // One RNG per chain: a chain has at most one op in flight, so its RNG
    // is only ever touched by the thread completing that op.
    std::vector<util::Rng> rngs;
    rngs.reserve(window);
    for (std::size_t s = 0; s < window; ++s)
      rngs.emplace_back(5000 + 997 * t + s);
    std::counting_semaphore<> finished(0);

    // issue(s) starts chain s's next op; the completion either re-issues
    // or, past the deadline (or on timeout), retires the chain.
    std::function<void(std::size_t)> issue = [&](std::size_t s) {
      const std::uint64_t key = sampler.next(rngs[s]);
      const auto t0 = Clock::now();
      client.acquire_async(
          service::kDefaultNamespace, key, 1,
          [&, s, t0](service::AcquireResult res, std::exception_ptr err) {
            const auto now = Clock::now();
            if (err != nullptr) {
              finished.release();  // timed out / shut down: retire the chain
              return;
            }
            tally.granted += res.granted;
            tally.lat_us.push_back(us_between(t0, now));
            tally.ops.fetch_add(1, std::memory_order_relaxed);
            if (now >= deadline) {
              finished.release();
            } else {
              issue(s);
            }
          });
    };
    for (std::size_t s = 0; s < window; ++s) issue(s);
    // All chains retire on their own completions; wait them out so every
    // callback has run before the client is destroyed.
    for (std::size_t s = 0; s < window; ++s) finished.acquire();
  });
}

/// The pipelined Zipf workload against a tokad cluster of `node_count`
/// in-process nodes (each on its own dispatcher lane, so one node models
/// one machine's serial capacity). With `churn`, the last node is killed
/// at ~40% of the run and a fresh node joins at ~70% — the workers must
/// absorb both through ClusterClient retries; `errors` reports what they
/// could not. With `replicas` > 0 the map carries that replication factor,
/// the kill goes through the promote() failover path instead of an
/// operator map push, and `replication` collects the failover time,
/// forfeit and delta-stream accounting.
ModeResult run_cluster(const std::string& mode, const util::ZipfSampler& sampler,
                       const LoadConfig& load, const service::ServiceConfig& cfg,
                       std::size_t node_count, bool churn,
                       std::uint32_t replicas) {
  struct ClusterNode {
    service::AccountTable table;
    service::ClockDriver driver;
    std::unique_ptr<cluster::ClusterServer> server;
    ClusterNode(const service::ServiceConfig& node_cfg,
                runtime::Transport& transport, const cluster::ClusterMap& map)
        : table(node_cfg), driver(table, 1000) {
      driver.start();
      server = std::make_unique<cluster::ClusterServer>(table, transport, map);
    }
  };

  const std::size_t slots = node_count + (churn ? 1 : 0);  // spare for join
  cluster::ClusterMap map{1, cluster::kDefaultVnodes, {}};
  for (std::size_t n = 0; n < node_count; ++n)
    map.nodes.push_back(static_cast<NodeId>(n));
  map.replicas = replicas;

  // Endpoints: servers 0..slots-1, then a stride of `slots` per worker,
  // then one stride for the churn admin and one for the failover probe
  // client. Server lanes are distinct (lane = destination % lanes and
  // lanes >= slots), so nodes parallelize.
  runtime::InProcNetwork net(
      slots + (load.threads + 2) * slots, /*latency_us=*/0,
      /*dispatchers=*/slots + std::min<std::size_t>(load.threads, 8));
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot, slots](NodeId server) -> runtime::Transport& {
      return net.endpoint(static_cast<NodeId>(slots + slot * slots + server));
    };
  };
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (std::size_t n = 0; n < node_count; ++n)
    nodes.push_back(std::make_unique<ClusterNode>(
        cfg, net.endpoint(static_cast<NodeId>(n)), map));
  net.start();

  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250 * 1'000;
  client_cfg.max_attempts = 12;

  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> failover_us{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn_thread;
  if (churn) {
    churn_thread = std::thread([&] {
      cluster::ClusterClient admin(endpoints_of(load.threads), map, client_cfg);
      const auto nap = std::chrono::microseconds(
          from_seconds(load.seconds * 0.4));
      std::this_thread::sleep_for(nap);
      if (stop_churn.load()) return;
      const NodeId victim = static_cast<NodeId>(node_count - 1);
      // A probe key the victim owns, picked before the kill so the timed
      // failover window measures the cluster, not the search.
      std::uint64_t probe_key = 0;
      if (replicas > 0) {
        const cluster::HashRing ring(map);
        for (std::uint64_t k = 0; k < load.keys; ++k) {
          if (ring.owner(service::kDefaultNamespace, k) == victim) {
            probe_key = k;
            break;
          }
        }
      }
      const auto t_kill = Clock::now();
      nodes[victim]->server.reset();
      const cluster::ClusterMap shrunk = map.without_node(victim);
      if (replicas > 0) {
        // The failover path proper: a survivor coordinates the promotion
        // (drops the victim from membership, installs its replicas at the
        // floor, broadcasts the new map) instead of an operator map push.
        nodes.front()->server->promote(victim);
        // Failover ends when a key the victim owned is served again. The
        // probe client starts from the post-failover map with a short
        // timeout, so the measurement is promotion + install + serve, not
        // the prober's own stale-routing backoff.
        cluster::ClusterClientConfig probe_cfg = client_cfg;
        probe_cfg.call_timeout_us = 10 * 1'000;
        probe_cfg.max_attempts = 100;
        cluster::ClusterClient probe(endpoints_of(load.threads + 1), shrunk,
                                     probe_cfg);
        while (!stop_churn.load()) {
          try {
            probe.acquire(service::kDefaultNamespace, probe_key, 0);
            failover_us.store(us_between(t_kill, Clock::now()));
            break;
          } catch (const std::exception&) {
          }
        }
      } else {
        admin.push_map(shrunk);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(from_seconds(load.seconds * 0.3)));
      if (stop_churn.load()) return;
      const NodeId joiner = static_cast<NodeId>(node_count);
      const cluster::ClusterMap grown = shrunk.with_node(joiner);
      nodes.push_back(std::make_unique<ClusterNode>(
          cfg, net.endpoint(joiner), grown));
      admin.push_map(grown);
    });
  }

  ModeResult res = run_threads(mode, load.threads, [&](std::size_t t,
                                                       PerThread& tally) {
    cluster::ClusterClient client(endpoints_of(t), map, client_cfg);
    const std::size_t window = std::max<std::size_t>(load.window, 1);
    // Unlike the single-connection modes, a cluster worker's completions
    // arrive on several dispatcher lanes (one per routed node) plus the
    // timeout sweepers — so each chain tallies into its own slot (a chain
    // has one op in flight, and its reissue happens-before the next
    // completion) and the worker merges after all chains retire. The
    // semaphore is shared so a completion's release() can never outlive it.
    struct Chain {
      util::Rng rng{0};
      std::int64_t granted = 0;
      std::uint64_t calls = 0;
      std::vector<double> lat_us;
    };
    std::vector<Chain> chains(window);
    for (std::size_t s = 0; s < window; ++s)
      chains[s].rng.reseed(7000 + 997 * t + s);
    auto finished = std::make_shared<std::counting_semaphore<>>(0);
    std::function<void(std::size_t)> issue = [&](std::size_t s) {
      const std::uint64_t key = sampler.next(chains[s].rng);
      const auto t0 = Clock::now();
      client.acquire_async(
          service::kDefaultNamespace, key, 1,
          [&, s, t0, finished](service::AcquireResult result,
                               std::exception_ptr err) {
            const auto now = Clock::now();
            if (err != nullptr) {
              errors.fetch_add(1, std::memory_order_relaxed);
              finished->release();  // retries exhausted: retire the chain
              return;
            }
            Chain& chain = chains[s];
            chain.granted += result.granted;
            if ((chain.calls & 0x3F) == 0)
              chain.lat_us.push_back(us_between(t0, now));
            tally.ops.fetch_add(1, std::memory_order_relaxed);
            ++chain.calls;
            if (now >= deadline) {
              finished->release();
            } else {
              issue(s);
            }
          });
    };
    for (std::size_t s = 0; s < window; ++s) issue(s);
    for (std::size_t s = 0; s < window; ++s) finished->acquire();
    for (const Chain& chain : chains) {
      tally.granted += chain.granted;
      tally.lat_us.insert(tally.lat_us.end(), chain.lat_us.begin(),
                          chain.lat_us.end());
    }
  });
  stop_churn.store(true);
  if (churn_thread.joinable()) churn_thread.join();
  for (auto& node : nodes) node->driver.stop();
  net.stop();
  res.errors = errors.load();
  if (replicas > 0) {
    ReplicationOutcome& repl = res.replication.emplace();
    repl.failover_ms = failover_us.load() / 1000.0;
    for (const auto& node : nodes) {
      if (node->server == nullptr) continue;  // the churn victim
      repl.promotions += node->server->promotions();
      repl.tokens_forfeited += node->server->tokens_forfeited();
      const cluster::ReplicationEngine& engine = node->server->replication();
      repl.replica_installs += engine.replica_installs();
      repl.delta_frames += engine.deltas_sent();
      repl.delta_accounts += engine.delta_accounts_sent();
    }
  }
  return res;
}

/// Everything a mode needs besides its own stack: the shared, preloaded
/// table the table/sync/pipeline modes hit, and the workload.
struct Bench {
  service::AccountTable& table;
  const service::ServiceConfig& cfg;
  const util::ZipfSampler& sampler;
  const LoadConfig& load;
};

/// Names every mode run_mode knows, in the order --quick runs them.
const std::vector<std::string> kModes = {
    "table",    "sync",    "pipeline",      "sharded",     "shardedtr",
    "shardedwd", "cluster1", "cluster", "cluster-churn", "cluster-repl"};

/// Runs one mode on a fresh stack. Returns false for an unknown mode.
bool run_mode(const std::string& mode, const Bench& b, ModeResult& out) {
  const std::size_t nodes = std::max<std::size_t>(b.load.cluster_nodes, 1);
  if (mode == "table") {
    out = run_table(b.table, b.sampler, b.load);
  } else if (mode == "sync" || mode == "pipeline") {
    runtime::TcpMesh mesh(2);
    service::Server server(b.table, mesh.endpoint(0));
    out = mode == "sync" ? run_sync(mesh.endpoint(1), b.sampler, b.load)
                         : run_pipeline(mesh.endpoint(1), b.sampler, b.load);
  } else if (mode == "sharded" || mode == "shardedtr" || mode == "shardedwd") {
    out = run_sharded_mode(mode, b.cfg, b.sampler, b.load);
  } else if (mode == "cluster1") {
    out = run_cluster(mode, b.sampler, b.load, b.cfg, 1, false, 0);
  } else if (mode == "cluster") {
    out = run_cluster(mode, b.sampler, b.load, b.cfg, nodes, false, 0);
  } else if (mode == "cluster-churn") {
    out = run_cluster(mode, b.sampler, b.load, b.cfg, nodes, true, 0);
  } else if (mode == "cluster-repl") {
    out = run_cluster(mode, b.sampler, b.load, b.cfg, nodes, true, 1);
  } else {
    return false;
  }
  return true;
}

/// What a run got wrong besides its speed; empty when nothing. A cluster
/// run must see no client-visible error. A replicated run must actually
/// fail over (a promotion that installed replicas) and forfeit at most one
/// capacity per account that could have been mid-stream at the kill:
/// installed replicas, the locked plane's coalescing window, and one
/// in-flight op per client chain.
std::string run_defect(const ModeResult& r, const Bench& b) {
  std::ostringstream why;
  if (r.errors > 0) why << r.errors << " client errors; ";
  if (r.replication) {
    const ReplicationOutcome& repl = *r.replication;
    if (repl.promotions == 0 || repl.replica_installs == 0)
      why << repl.promotions << " promotions, " << repl.replica_installs
          << " installs (want a failover that installed replicas); ";
    const std::uint64_t in_flight =
        repl.replica_installs + service::ServerOptions{}.replication_flush_ops +
        b.load.threads * b.load.window;
    const std::int64_t bound = static_cast<std::int64_t>(in_flight) *
                               (b.cfg.strategy.c_param + 1);
    if (repl.tokens_forfeited > bound)
      why << repl.tokens_forfeited << " tokens forfeited, above the lag bound "
          << bound << "; ";
  }
  std::string out = why.str();
  if (!out.empty()) out.resize(out.size() - 2);
  return out;
}

void print_result(const ModeResult& res) {
  std::printf("%-13s %2zu thr %6.2fs %10llu ops %10.0f ops/s", res.mode.c_str(),
              res.threads, res.seconds,
              static_cast<unsigned long long>(res.ops), res.ops_per_sec());
  if (res.latency.samples > 0) {
    std::printf("   lat p50 %8.1fus  p99 %8.1fus  max %9.1fus",
                res.latency.p50_us, res.latency.p99_us, res.latency.max_us);
  }
  if (const auto& repl = res.replication) {
    std::printf("   failover %.1fms, %llu installs, %lld forfeited",
                repl->failover_ms,
                static_cast<unsigned long long>(repl->replica_installs),
                static_cast<long long>(repl->tokens_forfeited));
  }
  if (!res.defect.empty()) std::printf("   DEFECT: %s", res.defect.c_str());
  std::printf("\n");
}

// ------------------------------------------------------------------ gates

/// How a gate turns its pairs into one number.
enum class Judge {
  kFloor,     ///< median ops/s of `b` >= threshold
  kSpeedup,   ///< median of b/a >= threshold
  kOverhead,  ///< median of 100·(1 − b/a) <= threshold (percent)
};

struct Gate {
  const char* name;
  const char* a;  ///< the pair's reference mode
  const char* b;  ///< the judged mode
  Judge judge;
  double threshold;
  bool needs_cores;  ///< prices parallel work: enforced from kGateCores up
};

/// The CI gate table. Gates over the same two modes share their runs.
constexpr Gate kGates[] = {
    {"table_ops", "sharded", "table", Judge::kFloor, 100'000, false},
    {"pipeline_vs_sync", "sync", "pipeline", Judge::kSpeedup, 1.0, false},
    {"sharded_ops", "table", "sharded", Judge::kFloor, 250'000, true},
    {"sharded_vs_table", "table", "sharded", Judge::kSpeedup, 1.0, true},
    {"cluster_vs_one_node", "cluster1", "cluster", Judge::kSpeedup, 1.5, true},
    {"trace_overhead_pct", "sharded", "shardedtr", Judge::kOverhead, 2.0, true},
    {"watchdog_overhead_pct", "sharded", "shardedwd", Judge::kOverhead, 2.0,
     true},
    {"replication_overhead_pct", "cluster-churn", "cluster-repl",
     Judge::kOverhead, 15.0, true},
};
constexpr std::size_t kGatePairs = 5;
constexpr unsigned kGateCores = 4;

/// Both modes' runs of one interleaved pair.
using PairRuns = std::map<std::string, ModeResult>;

struct GateOutcome {
  const Gate* gate = nullptr;
  std::vector<double> samples;  ///< one per pair
  double median = 0, iqr = 0;
  std::vector<std::string> defects;
  bool enforced = true;
  bool passed = true;

  const char* verdict() const {
    return !enforced ? "skip" : passed ? "pass" : "fail";
  }
  bool failed() const { return enforced && !passed; }
};

GateOutcome judge_gate(const Gate& gate, const std::vector<PairRuns>& pairs,
                       unsigned cores) {
  GateOutcome out;
  out.gate = &gate;
  for (const PairRuns& pair : pairs) {
    const ModeResult& a = pair.at(gate.a);
    const ModeResult& b = pair.at(gate.b);
    const double ratio =
        a.ops_per_sec() > 0 ? b.ops_per_sec() / a.ops_per_sec() : 0;
    out.samples.push_back(gate.judge == Judge::kFloor     ? b.ops_per_sec()
                          : gate.judge == Judge::kSpeedup ? ratio
                                                          : 100.0 * (1 - ratio));
    for (const ModeResult* r : {&a, &b})
      if (!r->defect.empty()) out.defects.push_back(r->mode + ": " + r->defect);
  }
  out.median = util::quantile(out.samples, 0.5);
  out.iqr =
      util::quantile(out.samples, 0.75) - util::quantile(out.samples, 0.25);
  const bool met = gate.judge == Judge::kOverhead
                       ? out.median <= gate.threshold
                       : out.median >= gate.threshold;
  out.passed = met && out.defects.empty();
  out.enforced = !gate.needs_cores || cores >= kGateCores;
  return out;
}

/// Runs every distinct mode pair of the gate table as kGatePairs
/// interleaved pairs, alternating which mode runs first, and judges each
/// gate on the pairs of its two modes.
std::vector<GateOutcome> run_gates(const Bench& bench,
                                   std::vector<ModeResult>& runs,
                                   unsigned cores) {
  std::map<std::pair<std::string, std::string>, std::vector<PairRuns>> by_pair;
  const auto key_of = [](const Gate& g) {
    std::pair<std::string, std::string> key{g.a, g.b};
    if (key.second < key.first) std::swap(key.first, key.second);
    return key;
  };
  for (const Gate& gate : kGates) {
    std::vector<PairRuns>& pairs = by_pair[key_of(gate)];
    if (!pairs.empty()) continue;  // shared with an earlier gate
    for (std::size_t i = 0; i < kGatePairs; ++i) {
      PairRuns pair;
      const bool a_first = i % 2 == 0;
      for (const char* mode : {a_first ? gate.a : gate.b,
                               a_first ? gate.b : gate.a}) {
        ModeResult& r = pair[mode];
        run_mode(mode, bench, r);
        r.defect = run_defect(r, bench);
        print_result(r);
        runs.push_back(r);
      }
      pairs.push_back(std::move(pair));
    }
  }
  std::vector<GateOutcome> outcomes;
  for (const Gate& gate : kGates)
    outcomes.push_back(judge_gate(gate, by_pair.at(key_of(gate)), cores));
  return outcomes;
}

const char* judge_name(Judge judge) {
  switch (judge) {
    case Judge::kFloor: return "floor";
    case Judge::kSpeedup: return "speedup";
    case Judge::kOverhead: return "overhead_pct";
  }
  return "?";
}

void print_gates(const std::vector<GateOutcome>& outcomes, unsigned cores) {
  std::printf("\n%-25s %-27s %12s %10s  %-20s verdict\n", "gate (median of "
              "pairs)", "modes (a, b)", "median", "IQR", "threshold");
  for (const GateOutcome& g : outcomes) {
    const std::string modes = std::string(g.gate->a) + ", " + g.gate->b;
    char threshold[48];
    std::snprintf(threshold, sizeof threshold, "%s %s %g",
                  judge_name(g.gate->judge),
                  g.gate->judge == Judge::kOverhead ? "<=" : ">=",
                  g.gate->threshold);
    std::printf("%-25s %-27s %12.2f %10.2f  %-20s %s\n", g.gate->name,
                modes.c_str(), g.median, g.iqr, threshold, g.verdict());
    for (const std::string& d : g.defects)
      std::printf("  DEFECT %s\n", d.c_str());
  }
  if (cores < kGateCores)
    std::printf("only %u hardware threads: gates that price parallel work "
                "are reported, not enforced (they need %u)\n",
                cores, kGateCores);
}

/// UTC wall-clock now, ISO-8601.
std::string iso8601_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const std::string& git_sha,
                const Bench& b, const std::vector<ModeResult>& runs,
                const std::vector<GateOutcome>& gates, bool gated,
                unsigned cores) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  bool failed = false;
  for (const GateOutcome& g : gates) failed |= g.failed();
  std::fprintf(f, "{\n  \"schema\": \"toka-bench-service-v3\",\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", json_escape(git_sha).c_str());
  std::fprintf(f, "  \"timestamp\": \"%s\",\n", iso8601_now().c_str());
  std::fprintf(f, "  \"host_cpus\": %u,\n", cores);
  std::fprintf(f,
               "  \"config\": {\"keys\": %llu, \"zipf\": %g, \"threads\": %zu, "
               "\"batch\": %zu, \"window\": %zu, \"cluster_nodes\": %zu, "
               "\"strategy\": \"%s\", \"shards\": %zu, \"delta_us\": %lld, "
               "\"seconds_per_run\": %g, \"pairs\": %zu},\n",
               static_cast<unsigned long long>(b.load.keys), b.load.zipf,
               b.load.threads, b.load.batch, b.load.window,
               b.load.cluster_nodes,
               json_escape(b.cfg.strategy.label()).c_str(),
               b.table.shard_count(),
               static_cast<long long>(b.cfg.delta_us), b.load.seconds,
               gated ? kGatePairs : 0);
  std::fprintf(f, "  \"verdict\": \"%s\",\n",
               !gated ? "none" : failed ? "fail" : "pass");
  std::fprintf(f, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const GateOutcome& g = gates[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"a\": \"%s\", \"b\": \"%s\", "
                 "\"judge\": \"%s\", \"threshold\": %g, \"median\": %.4f, "
                 "\"iqr\": %.4f, \"samples\": [",
                 g.gate->name, g.gate->a, g.gate->b, judge_name(g.gate->judge),
                 g.gate->threshold, g.median, g.iqr);
    for (std::size_t s = 0; s < g.samples.size(); ++s)
      std::fprintf(f, "%s%.4f", s > 0 ? ", " : "", g.samples[s]);
    std::fprintf(f, "], \"verdict\": \"%s\", \"defects\": [", g.verdict());
    for (std::size_t d = 0; d < g.defects.size(); ++d)
      std::fprintf(f, "%s\"%s\"", d > 0 ? ", " : "",
                   json_escape(g.defects[d]).c_str());
    std::fprintf(f, "]}%s\n", i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ModeResult& r = runs[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"seconds\": %.3f, "
                 "\"ops\": %llu, \"ops_per_sec\": %.0f, \"granted_tokens\": "
                 "%lld, \"lat_p50_us\": %.2f, \"lat_p99_us\": %.2f, "
                 "\"errors\": %llu",
                 r.mode.c_str(), r.threads, r.seconds,
                 static_cast<unsigned long long>(r.ops), r.ops_per_sec(),
                 static_cast<long long>(r.granted), r.latency.p50_us,
                 r.latency.p99_us, static_cast<unsigned long long>(r.errors));
    if (r.replication) {
      const ReplicationOutcome& repl = *r.replication;
      std::fprintf(f,
                   ", \"replication\": {\"failover_ms\": %.3f, \"promotions\": "
                   "%llu, \"replica_installs\": %llu, \"tokens_forfeited\": "
                   "%lld, \"delta_frames\": %llu, \"delta_accounts\": %llu}",
                   repl.failover_ms,
                   static_cast<unsigned long long>(repl.promotions),
                   static_cast<unsigned long long>(repl.replica_installs),
                   static_cast<long long>(repl.tokens_forfeited),
                   static_cast<unsigned long long>(repl.delta_frames),
                   static_cast<unsigned long long>(repl.delta_accounts));
    }
    std::fprintf(f, ", \"defect\": \"%s\"}%s\n", json_escape(r.defect).c_str(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool gate = args.get_flag("gate");

  LoadConfig load;
  load.threads = util::ThreadPool::resolve(
      static_cast<std::size_t>(args.get_int("threads", 0)));
  load.keys = static_cast<std::uint64_t>(
      args.get_int("keys", 1 << 20));  // >= 1M distinct keys by default
  load.zipf = args.get_double("zipf", 0.99);
  load.seconds = args.get_double(
      "seconds", gate || args.get_flag("quick") ? 1.0 : 4.0);
  load.batch = static_cast<std::size_t>(args.get_int("batch", 16));
  load.window = static_cast<std::size_t>(args.get_int("window", 64));
  load.cluster_nodes =
      static_cast<std::size_t>(args.get_int("cluster-nodes", 3));
  load.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  load.trace_sample = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.get_int("trace-sample", 128), 0));
  load.watchdog_sample = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.get_int("watchdog-sample", 64), 0));

  service::ServiceConfig cfg;
  cfg.shards = static_cast<std::size_t>(args.get_int("shards", 256));
  cfg.delta_us = args.get_int("delta-ms", 10) * 1000;
  cfg.strategy.kind =
      core::parse_strategy_kind(args.get_string("strategy", "generalized"));
  cfg.strategy.a_param = args.get_int("a", 4);
  cfg.strategy.c_param = args.get_int("c", 16);
  cfg.idle_ttl_us = args.get_int("ttl-ms", 0) * 1000;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::vector<std::string> modes;
  if (args.has("modes")) {
    std::stringstream modes_stream(args.get_string("modes", ""));
    for (std::string m; std::getline(modes_stream, m, ',');) modes.push_back(m);
  } else {
    modes = kModes;
  }

  service::AccountTable table(cfg);
  preload(table, load.keys);
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();
  const util::ZipfSampler sampler(load.keys, load.zipf);
  const Bench bench{table, cfg, sampler, load};
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("service_load: %s, %zu shards, Δ=%lldms | %llu keys zipf %.2f | "
              "%zu threads, %.1fs per run%s\n\n",
              cfg.strategy.label().c_str(), table.shard_count(),
              static_cast<long long>(cfg.delta_us / 1000),
              static_cast<unsigned long long>(load.keys), load.zipf,
              load.threads, load.seconds,
              gate ? ", gate pairs interleaved" : "");

  std::vector<ModeResult> runs;
  std::vector<GateOutcome> gates;
  if (gate) {
    gates = run_gates(bench, runs, cores);
  } else {
    for (const std::string& mode : modes) {
      ModeResult r;
      if (!run_mode(mode, bench, r)) {
        std::fprintf(stderr, "unknown mode '%s' (skipped)\n", mode.c_str());
        continue;
      }
      r.defect = run_defect(r, bench);
      print_result(r);
      runs.push_back(std::move(r));
    }
  }
  driver.stop();
  if (gate) print_gates(gates, cores);

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty())
    write_json(json_path, args.get_string("git-sha", "unknown"), bench, runs,
               gates, gate, cores);

  for (const GateOutcome& g : gates)
    if (g.failed()) return 1;
  return 0;
}
