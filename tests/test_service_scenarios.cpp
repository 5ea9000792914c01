// Traffic-shape scenarios against the full traced tokend plane: async
// clients over the epoll mesh into an engine-mode, admission-controlled
// server with the flight recorder attached. Every phase is an op count
// against a pinned admission budget on a hand-advanced clock, so each
// check is exact on every thread schedule:
//
//   flash crowd    — an interval below the budget sheds nothing; the next
//                    takes 10x the budget at once, every op past the budget
//                    comes back as a typed kOverloaded, and every server
//                    shed leaves a forced kShed span in the recorder;
//   herd reconnect — every client drops off, then all of them connect anew
//                    at the same instant into a 5x burst: typed failures
//                    only, and again one kShed span per shed;
//   byzantine      — replayed frames, truncated bodies and refund abuse
//                    each draw their typed answer, and the every-key §3.4
//                    watchdog ends with checks > 0 and no violation.
//
// The single-op forms of these checks live next to the code they test and
// are not repeated here: ObsOverload.* in test_obs (one shed at a pinned
// budget, its retry hint and the client's backoff; no shed below the
// budget), ShardedServer.FullQueueShedsWithTypedOverload in
// test_service_sharded (a full owner queue sheds typed) and
// TraceEndToEnd.ShedRequestsCarryTracedShedDecisions in test_service_trace
// (one shed carries a forced kShed span).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/epoll.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"

namespace toka::service {
namespace {

using namespace std::chrono_literals;
namespace proto = protocol;

constexpr std::uint64_t kBudget = 64;  ///< admissions per interval, pinned
constexpr TimeUs kInterval = 10'000;   ///< admission interval
constexpr TimeUs kDelta = 10'000;      ///< token period
constexpr std::size_t kClients = 4;

ServiceConfig scenario_config() {
  ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = kDelta;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.initial_tokens = 2;  // first acquires grant, so the watchdog checks
  cfg.exclusive_shards = true;
  cfg.audit = true;  // the §3.4 watchdog on every key
  return cfg;
}

/// The traced plane. Endpoint 0 is the server; 1..2·kClients are client
/// endpoints (a herd reconnects on fresh ones); the last two belong to the
/// raw-frame adversary and the refund abuser. No clock driver runs: the
/// test advances the table's clock, which is also the admission clock.
struct Plane {
  static constexpr NodeId kRaw = 1 + 2 * kClients;
  static constexpr NodeId kRefunder = kRaw + 1;

  AccountTable table{scenario_config()};
  obs::Tracer tracer{obs::TracerOptions{.ring_capacity = 8192}};
  ShardEngine engine{table, ShardEngineOptions{.workers = 2,
                                               .tracer = &tracer}};
  runtime::EpollMesh mesh{kRefunder + 1};
  Server server;

  explicit Plane(std::uint64_t budget)
      : server(table, mesh.endpoint(0), options(budget)) {}

  ServerOptions options(std::uint64_t budget) {
    ServerOptions opts;
    opts.engine = &engine;
    opts.tracer = &tracer;
    opts.admission.enabled = true;
    opts.admission.interval_us = kInterval;
    opts.admission.min_budget = static_cast<std::int64_t>(budget);
    opts.admission.max_budget = static_cast<std::int64_t>(budget);
    return opts;
  }

  std::unique_ptr<Client> client(NodeId endpoint) {
    auto c = std::make_unique<Client>(mesh.endpoint(endpoint), 0);
    c->set_tracer(&tracer);
    return c;
  }

  /// Server-side shed decisions the flight recorder holds.
  std::uint64_t shed_spans() const {
    std::uint64_t n = 0;
    for (const obs::SpanRecord& span : tracer.snapshot())
      if (span.stage == obs::Stage::kShed &&
          span.decision == obs::Decision::kShed)
        ++n;
    return n;
  }
};

/// How a burst's completions came back. `done` moves last, so a waiter
/// that saw it reach N also sees every classification before it.
struct Tally {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};     ///< typed kOverloaded
  std::atomic<std::uint64_t> untyped{0};  ///< timeouts and anything else
  std::atomic<std::uint64_t> done{0};
};

void issue(Client& client, std::uint64_t ops, Tally& tally) {
  for (std::uint64_t i = 0; i < ops; ++i) {
    client.acquire_async(
        kDefaultNamespace, i % 32, 1,
        [&tally](AcquireResult, std::exception_ptr err) {
          if (err == nullptr) {
            ++tally.served;
          } else {
            try {
              std::rethrow_exception(err);
            } catch (const proto::OverloadedError&) {
              ++tally.shed;
            } catch (...) {
              ++tally.untyped;
            }
          }
          ++tally.done;
        });
  }
}

bool wait_for(const std::atomic<std::uint64_t>& counter, std::uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (counter.load() < want && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  return counter.load() >= want;
}

/// Server sheds plus client-side backoff rejections: every typed shed a
/// burst drew, counted from the other end.
std::uint64_t typed_sheds(const Plane& plane,
                          const std::vector<std::unique_ptr<Client>>& clients) {
  std::uint64_t local = 0;
  for (const auto& c : clients) local += c->backoff_rejections();
  return plane.server.requests_shed() + local;
}

TEST(ServiceScenarios, FlashCrowdShedsTypedAndTracesEveryShed) {
  Plane plane(kBudget);
  std::vector<std::unique_ptr<Client>> clients;
  for (NodeId c = 0; c < kClients; ++c) clients.push_back(plane.client(1 + c));

  // Baseline interval: half the budget, spread over the clients.
  Tally base;
  for (auto& c : clients) issue(*c, kBudget / 2 / kClients, base);
  ASSERT_TRUE(wait_for(base.done, kBudget / 2));
  EXPECT_EQ(base.served.load(), kBudget / 2);
  EXPECT_EQ(base.shed.load(), 0u);
  EXPECT_EQ(plane.server.requests_shed(), 0u);

  // The next interval takes 10x the budget at once. The valve admits
  // exactly the budget (nothing sheds before it is spent, and every client
  // sends until its first shed comes back); the rest are typed sheds.
  plane.table.clock().advance(kInterval);
  Tally crowd;
  for (auto& c : clients) issue(*c, 10 * kBudget / kClients, crowd);
  ASSERT_TRUE(wait_for(crowd.done, 10 * kBudget));
  EXPECT_EQ(crowd.untyped.load(), 0u);
  EXPECT_EQ(crowd.served.load(), kBudget);
  EXPECT_EQ(crowd.shed.load(), 9 * kBudget);
  EXPECT_EQ(typed_sheds(plane, clients), 9 * kBudget);

  // Sheds force-record whatever the sampling: one kShed span per shed.
  EXPECT_GT(plane.server.requests_shed(), 0u);
  EXPECT_EQ(plane.shed_spans(), plane.server.requests_shed());
}

TEST(ServiceScenarios, HerdReconnectSeesOnlyTypedFailures) {
  Plane plane(kBudget);
  {
    std::vector<std::unique_ptr<Client>> online;
    for (NodeId c = 0; c < kClients; ++c) online.push_back(plane.client(1 + c));
    Tally before;
    for (auto& c : online) issue(*c, kBudget / 2 / kClients, before);
    ASSERT_TRUE(wait_for(before.done, kBudget / 2));
    EXPECT_EQ(before.served.load(), kBudget / 2);
  }  // dead air: every client is gone

  // Everyone comes back at the same instant, each on a fresh endpoint (a
  // new connection to accept), into a 5x burst.
  plane.table.clock().advance(kInterval);
  Tally herd;
  std::latch go(kClients);
  std::vector<std::unique_ptr<Client>> back(kClients);
  std::vector<std::thread> threads;
  for (NodeId c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      back[c] = plane.client(1 + kClients + c);
      go.arrive_and_wait();
      issue(*back[c], 5 * kBudget / kClients, herd);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(wait_for(herd.done, 5 * kBudget));
  EXPECT_EQ(herd.untyped.load(), 0u);
  EXPECT_EQ(herd.served.load(), kBudget);
  EXPECT_EQ(herd.shed.load(), 4 * kBudget);
  EXPECT_EQ(typed_sheds(plane, back), 4 * kBudget);
  EXPECT_EQ(plane.shed_spans(), plane.server.requests_shed());
}

TEST(ServiceScenarios, ByzantineFramesDrawTypedAnswersAndKeepTheBound) {
  Plane plane(/*budget=*/1 << 20);  // the valve stays out of the way
  std::atomic<std::uint64_t> answered{0}, malformed{0}, other{0}, replies{0};
  runtime::Transport& raw = plane.mesh.endpoint(Plane::kRaw);
  raw.set_handler([&](NodeId, std::vector<std::byte> payload) {
    const proto::Response resp = proto::decode_response(payload);
    if (std::holds_alternative<proto::AcquireResponse>(resp)) {
      ++answered;
    } else if (const auto* err = std::get_if<proto::ErrorResponse>(&resp);
               err && err->code == proto::ErrorCode::kMalformedBody) {
      ++malformed;
    } else {
      ++other;
    }
    ++replies;
  });
  auto legit = plane.client(1);
  auto refunder = plane.client(Plane::kRefunder);

  constexpr std::uint64_t kRounds = 40;
  std::uint64_t id = 1;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    plane.table.clock().advance(kDelta);  // one tick banks per round
    const std::uint64_t key = round % 8;
    // Replay: one frame, byte-identical on the wire, sent twice. Each copy
    // settles against the same bucket, which is the authority; the frame
    // is not, so replay cannot over-grant.
    const std::vector<std::byte> frame =
        proto::encode(proto::AcquireRequest{id++, key, 1, kDefaultNamespace});
    raw.send(0, std::vector<std::byte>(frame));
    raw.send(0, std::vector<std::byte>(frame));
    // A valid header riding a truncated body.
    std::vector<std::byte> truncated =
        proto::encode(proto::AcquireRequest{id++, key, 1, kDefaultNamespace});
    truncated.resize(12);
    raw.send(0, std::move(truncated));
    // Refund abuse: tokens never granted on a key that was never used.
    EXPECT_EQ(refunder->refund(kDefaultNamespace, 1'000'000 + key, 8).accepted,
              0);
    // Legit traffic on the same keys keeps flowing.
    EXPECT_NO_THROW(legit->acquire(kDefaultNamespace, key, 1));
  }
  ASSERT_TRUE(wait_for(replies, 3 * kRounds));
  raw.set_handler({});
  EXPECT_EQ(answered.load(), 2 * kRounds);
  EXPECT_EQ(malformed.load(), kRounds);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(plane.server.requests_errored(), kRounds);

  const TableStats stats =
      plane.engine.quiesced([&] { return plane.table.stats(); });
  EXPECT_GT(stats.watchdog_checks, 0u);
  EXPECT_EQ(stats.watchdog_violations, 0u);
}

}  // namespace
}  // namespace toka::service
