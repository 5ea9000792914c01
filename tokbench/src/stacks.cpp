#include "stacks.hpp"

#include <algorithm>
#include <mutex>
#include <ranges>
#include <unordered_map>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "obs/telemetry.hpp"
#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "runtime/tcp.hpp"
#include "runtime/transport.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"

namespace tokbench {

namespace svc = toka::service;
namespace proto = toka::service::protocol;
namespace rt = toka::runtime;
using toka::NodeId;

svc::ServiceConfig service_config(const WorkloadSpec& spec,
                                  std::uint64_t seed, bool exclusive) {
  svc::ServiceConfig cfg;
  cfg.shards = 64;
  cfg.delta_us = spec.delta_us;
  cfg.strategy.kind = toka::core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.seed = seed;
  cfg.exclusive_shards = exclusive;
  return cfg;
}

FrameResult::Error classify(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const proto::OverloadedError&) {
    return FrameResult::Error::kOverloaded;
  } catch (const proto::RpcError&) {
    return FrameResult::Error::kRpc;
  } catch (const proto::RedirectError&) {
    return FrameResult::Error::kRpc;
  } catch (...) {
    return FrameResult::Error::kTimeout;
  }
}

namespace {

bool is_data_type(std::uint8_t type) {
  const std::uint8_t t = type & 0x3F;
  return t >= static_cast<std::uint8_t>(proto::MsgType::kAcquire) &&
         t <= static_cast<std::uint8_t>(proto::MsgType::kBatchAcquire);
}

/// The benchmark-owned transport shim of the traced run: sits between a
/// mesh endpoint and the server, and records a span around every data-op
/// request the server's handler runs and every data-op reply it sends.
/// A reply is matched to its request's trace id through (peer, request id).
class TracedTransport final : public rt::Transport {
 public:
  explicit TracedTransport(rt::Transport& inner) : inner_(&inner) {}

  NodeId self() const override { return inner_->self(); }

  void send(NodeId to, std::vector<std::byte> payload) override {
    const auto header = proto::try_parse_header(payload);
    const bool data = header && header->is_response &&
                      (is_data_type(static_cast<std::uint8_t>(header->type)) ||
                       header->type == proto::MsgType::kRedirect);
    std::uint64_t trace = 0;
    if (data) {
      std::lock_guard lock(mu_);
      auto it = pending_.find(corr(to, header->id));
      if (it != pending_.end()) {
        trace = it->second;
        pending_.erase(it);
      }
    }
    const std::int64_t t0 = now_ns();
    inner_->send(to, std::move(payload));
    if (data) SpanLog::global().record({trace, SpanKind::kSend, t0, now_ns()});
  }

  void set_handler(Handler handler) override {
    if (!handler) {
      inner_->set_handler({});
      return;
    }
    inner_->set_handler([this, h = std::move(handler)](
                            NodeId from, std::vector<std::byte> payload) {
      const auto header = proto::try_parse_header(payload);
      const bool data =
          header && !header->is_response &&
          is_data_type(static_cast<std::uint8_t>(header->type));
      if (data && header->traced) {
        std::lock_guard lock(mu_);
        pending_[corr(from, header->id)] = header->trace_id;
      }
      const std::int64_t t0 = now_ns();
      h(from, std::move(payload));
      if (data)
        SpanLog::global().record({header->traced ? header->trace_id : 0,
                                  SpanKind::kHandler, t0, now_ns()});
    });
  }

  void set_peer_down_handler(PeerDownHandler handler) override {
    inner_->set_peer_down_handler(std::move(handler));
  }

 private:
  static std::uint64_t corr(NodeId peer, std::uint64_t id) {
    return (static_cast<std::uint64_t>(peer) << 48) ^ id;
  }

  rt::Transport* inner_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> pending_;
};

/// Adapts a client's typed callback into a FrameResult.
FrameResult acquire_outcome(const svc::AcquireResult& r, Tokens requested,
                            const std::exception_ptr& e) {
  FrameResult out;
  out.ops = 1;
  if (e != nullptr) {
    out.error = classify(e);
    return out;
  }
  out.granted = r.granted;
  out.grant_over_request = r.granted > requested || r.granted < 0;
  return out;
}

FrameResult plain_outcome(const std::exception_ptr& e) {
  FrameResult out;
  out.ops = 1;
  if (e != nullptr) out.error = classify(e);
  return out;
}

void issue_on_client(svc::Client& client, const std::vector<Op>& ops,
                     const proto::TraceContext* trace, FrameDone done) {
  constexpr svc::NamespaceId ns = svc::kDefaultNamespace;
  if (ops.size() == 1) {
    const Op& op = ops[0];
    switch (op.kind) {
      case OpKind::kAcquire:
        client.acquire_async(
            ns, op.key, op.tokens,
            [done = std::move(done), n = op.tokens](svc::AcquireResult r,
                                                   std::exception_ptr e) {
              done(acquire_outcome(r, n, e));
            },
            0, trace);
        return;
      case OpKind::kRefund:
        client.refund_async(
            ns, op.key, op.tokens,
            [done = std::move(done)](svc::RefundResult, std::exception_ptr e) {
              done(plain_outcome(e));
            },
            0, trace);
        return;
      case OpKind::kQuery:
        client.query_async(
            ns, op.key,
            [done = std::move(done)](svc::QueryResult, std::exception_ptr e) {
              done(plain_outcome(e));
            },
            0, trace);
        return;
    }
  }
  std::vector<svc::AcquireOp> batch;
  batch.reserve(ops.size());
  for (const Op& op : ops) batch.push_back({op.key, op.tokens});
  client.acquire_batch_async(
      ns, batch,
      [done = std::move(done), batch](std::vector<svc::AcquireResult> results,
                                      std::exception_ptr e) {
        FrameResult out;
        out.ops = static_cast<std::uint32_t>(batch.size());
        if (e != nullptr) {
          out.error = classify(e);
        } else {
          if (results.size() != batch.size()) out.grant_over_request = true;
          for (std::size_t i = 0; i < results.size() && i < batch.size();
               ++i) {
            out.granted += results[i].granted;
            if (results[i].granted > batch[i].tokens ||
                results[i].granted < 0)
              out.grant_over_request = true;
          }
        }
        done(out);
      },
      0, trace);
}

/// Creates an account for every key in `keys` with a 0-token acquire.
template <typename Keys>
void preload(svc::AccountTable& table, const Keys& keys) {
  std::vector<svc::AcquireOp> chunk;
  chunk.reserve(4096);
  for (const std::uint64_t key : keys) {
    chunk.push_back({key, 0});
    if (chunk.size() == 4096) {
      table.acquire_batch(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) table.acquire_batch(chunk);
}

// ------------------------------------------------------------ one node

class NodeStack final : public Stack {
 public:
  explicit NodeStack(const StackOptions& o)
      : table_(service_config(*o.spec, o.seed, o.engine)) {
    preload(table_, std::views::iota(std::uint64_t{1}, o.spec->keys + 1));
    if (o.engine) {
      svc::ShardEngineOptions eo;
      eo.workers = std::max<std::size_t>(o.spec->engine_workers, 1);
      eo.registry = &registry_;
      engine_ = std::make_unique<svc::ShardEngine>(table_, eo);
    }
    rt::Transport* server_ep = nullptr;
    rt::Transport* client_ep = nullptr;
    switch (o.wire) {
      case Wire::kInProc:
        inproc_ = std::make_unique<rt::InProcNetwork>(2);
        server_ep = &inproc_->endpoint(0);
        client_ep = &inproc_->endpoint(1);
        break;
      case Wire::kTcp:
        tcp_ = std::make_unique<rt::TcpMesh>(2);
        server_ep = &tcp_->endpoint(0);
        client_ep = &tcp_->endpoint(1);
        break;
      case Wire::kEpoll:
        epoll_ = std::make_unique<rt::EpollMesh>(2, 1);
        server_ep = &epoll_->endpoint(0);
        client_ep = &epoll_->endpoint(1);
        break;
    }
    if (o.traced) {
      shim_ = std::make_unique<TracedTransport>(*server_ep);
      server_ep = shim_.get();
    }
    svc::ServerOptions so;
    so.registry = &registry_;
    so.engine = engine_.get();
    server_ = std::make_unique<svc::Server>(table_, *server_ep, so);
    client_ = std::make_unique<svc::Client>(*client_ep, 0);
    if (inproc_) inproc_->start();
  }

  ~NodeStack() override {
    client_.reset();
    server_.reset();
    if (inproc_) inproc_->stop();
  }

  void issue(const std::vector<Op>& ops, const proto::TraceContext* trace,
             FrameDone done) override {
    issue_on_client(*client_, ops, trace, std::move(done));
  }

  void set_time(TimeUs now_us) override { table_.clock().advance_to(now_us); }

  svc::TableStats table_stats() override {
    if (engine_) return engine_->quiesced([&] { return table_.stats(); });
    return table_.stats();
  }

 private:
  // Declaration order is teardown order reversed: the client and server
  // go first, then the wire, then the engine (drained by the server), then
  // the table and the registry everything exported into.
  toka::obs::Registry registry_;
  svc::AccountTable table_;
  std::unique_ptr<svc::ShardEngine> engine_;
  std::unique_ptr<rt::InProcNetwork> inproc_;
  std::unique_ptr<rt::TcpMesh> tcp_;
  std::unique_ptr<rt::EpollMesh> epoll_;
  std::unique_ptr<TracedTransport> shim_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::Client> client_;
};

// ------------------------------------------------------------- cluster

class ClusterStack final : public Stack {
 public:
  explicit ClusterStack(const StackOptions& o) {
    const std::size_t n = std::max<std::size_t>(o.spec->nodes, 1);
    map_.epoch = 1;
    map_.vnodes = toka::cluster::kDefaultVnodes;
    for (std::size_t i = 0; i < n; ++i)
      map_.nodes.push_back(static_cast<NodeId>(i));
    map_.replicas = o.replicas;
    ring_ = toka::cluster::HashRing(map_);
    // Endpoints: servers [0, n), the ClusterClient's per-node endpoints
    // [n, 2n), the routed single-op clients' endpoints [2n, 3n). One
    // dispatcher lane per node (lane = destination % n).
    net_ = std::make_unique<rt::InProcNetwork>(3 * n, 0, n);
    std::vector<std::vector<std::uint64_t>> owned(n);
    for (std::uint64_t key = 1; key <= o.spec->keys; ++key)
      owned[ring_.owner(svc::kDefaultNamespace, key)].push_back(key);
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>(
          service_config(*o.spec, o.seed + 7919 * i, false));
      preload(node->table, owned[i]);
      rt::Transport* ep = &net_->endpoint(static_cast<NodeId>(i));
      if (o.traced) {
        node->shim = std::make_unique<TracedTransport>(*ep);
        ep = node->shim.get();
      }
      svc::ServerOptions so;
      so.registry = &node->registry;
      node->server = std::make_unique<toka::cluster::ClusterServer>(
          node->table, *ep, map_, so);
      nodes_.push_back(std::move(node));
    }
    toka::cluster::ClusterClientConfig cc;
    cc.call_timeout_us = 2'000'000;
    client_ = std::make_unique<toka::cluster::ClusterClient>(
        [this, n](NodeId server) -> rt::Transport& {
          return net_->endpoint(static_cast<NodeId>(n + server));
        },
        map_, cc);
    for (std::size_t i = 0; i < n; ++i)
      routed_.push_back(std::make_unique<svc::Client>(
          net_->endpoint(static_cast<NodeId>(2 * n + i)),
          static_cast<NodeId>(i)));
    net_->start();
  }

  ~ClusterStack() override {
    routed_.clear();
    client_.reset();
    for (auto& node : nodes_) node->server.reset();
    net_->stop();
  }

  void issue(const std::vector<Op>& ops, const proto::TraceContext*,
             FrameDone done) override {
    if (ops.size() == 1 && ops[0].kind != OpKind::kAcquire) {
      // ClusterClient's async surface is acquire-only, so single refunds
      // and queries go to the ring owner's own client (the ClusterServer
      // still checks ownership and would redirect a stray key).
      // Cluster frames carry no trace context: ClusterClient's async
      // surface takes none, so spans here stay uncorrelated throughout.
      const NodeId owner = ring_.owner(svc::kDefaultNamespace, ops[0].key);
      issue_on_client(*routed_[owner], ops, nullptr, std::move(done));
      return;
    }
    if (ops.size() == 1) {
      const Tokens n = ops[0].tokens;
      client_->acquire_async(
          svc::kDefaultNamespace, ops[0].key, n,
          [done = std::move(done), n](svc::AcquireResult r,
                                      std::exception_ptr e) {
            done(acquire_outcome(r, n, e));
          });
      return;
    }
    // A batch frame: ClusterClient has no async batch call, so the frame
    // is issued as its ops and completes when the last one does.
    struct Fan {
      std::mutex mu;
      FrameResult total;
      std::size_t left = 0;
      FrameDone done;
    };
    auto fan = std::make_shared<Fan>();
    fan->left = ops.size();
    fan->total.ops = static_cast<std::uint32_t>(ops.size());
    fan->done = std::move(done);
    for (const Op& op : ops) {
      const Tokens n = op.tokens;
      client_->acquire_async(
          svc::kDefaultNamespace, op.key, n,
          [fan, n](svc::AcquireResult r, std::exception_ptr e) {
            const FrameResult one = acquire_outcome(r, n, e);
            bool last = false;
            {
              std::lock_guard lock(fan->mu);
              fan->total.granted += one.granted;
              fan->total.grant_over_request |= one.grant_over_request;
              if (one.error != FrameResult::Error::kNone)
                fan->total.error = one.error;
              last = --fan->left == 0;
            }
            if (last) fan->done(fan->total);
          });
    }
  }

  void set_time(TimeUs now_us) override {
    for (auto& node : nodes_) node->table.clock().advance_to(now_us);
  }

  svc::TableStats table_stats() override {
    svc::TableStats total;
    for (auto& node : nodes_) total.merge(node->table.stats());
    return total;
  }

  ClusterCounters cluster_counters() const override {
    ClusterCounters c;
    c.redirects = client_->redirects_followed();
    for (const auto& node : nodes_) {
      // The replication stream's counters as each node exports them.
      for (const toka::obs::Metric& m : node->registry.collect()) {
        const auto v = static_cast<std::uint64_t>(m.value);
        if (m.name == "tokad_replica_deltas") c.delta_frames += v;
        if (m.name == "tokad_replica_acks") c.acks += v;
        if (m.name == "tokad_tokens_forfeited") c.tokens_forfeited += v;
        if (m.name == "tokad_replication_lag")
          c.lag_rounds = std::max(c.lag_rounds, v);
      }
      c.delta_accounts += node->server->replication().delta_accounts_sent();
    }
    return c;
  }

  std::uint64_t replication_lag() const override {
    std::uint64_t lag = 0;
    for (const auto& node : nodes_)
      lag = std::max(lag, node->server->replication().lag_rounds());
    return lag;
  }

 private:
  struct Node {
    explicit Node(const svc::ServiceConfig& cfg) : table(cfg) {}
    toka::obs::Registry registry;
    svc::AccountTable table;
    std::unique_ptr<TracedTransport> shim;
    std::unique_ptr<toka::cluster::ClusterServer> server;
  };

  toka::cluster::ClusterMap map_;
  toka::cluster::HashRing ring_;
  std::unique_ptr<rt::InProcNetwork> net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<toka::cluster::ClusterClient> client_;
  std::vector<std::unique_ptr<svc::Client>> routed_;
};

}  // namespace

StackOptions workload_stack(const WorkloadSpec& spec, std::uint64_t seed,
                            bool traced) {
  StackOptions o;
  o.spec = &spec;
  o.seed = seed;
  o.traced = traced;
  o.replicas = spec.replicas;
  o.engine = spec.plane == Plane::kEngineEpoll;
  o.wire = o.engine ? Wire::kEpoll : Wire::kTcp;
  return o;
}

std::unique_ptr<Stack> build_stack(const StackOptions& options) {
  if (options.spec->plane == Plane::kClusterInProc)
    return std::make_unique<ClusterStack>(options);
  return std::make_unique<NodeStack>(options);
}

}  // namespace tokbench
