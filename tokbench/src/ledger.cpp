#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <variant>

#include "cluster/cluster_map.hpp"
#include "cluster/hash_ring.hpp"
#include "core/account.hpp"
#include "core/strategy.hpp"
#include "drive.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "service/shard_engine.hpp"
#include "stacks.hpp"

namespace tokbench {

namespace svc = toka::service;
namespace proto = toka::service::protocol;

namespace {

/// The ledger's fixed stream: about 1e5 single ops, or 2048 batch frames.
struct LedgerStream {
  std::vector<std::vector<Op>> frames;
  std::vector<std::vector<svc::AcquireOp>> batches;  ///< per frame, if batch
  std::vector<Op> flat;
};

LedgerStream make_stream(const WorkloadSpec& spec, std::uint64_t seed) {
  LedgerStream s;
  OpStream stream(spec, seed, /*stream_id=*/9);
  const std::size_t frames = spec.batch > 1 ? 2048 : 100'000;
  s.frames.resize(frames);
  for (auto& f : s.frames) {
    stream.next_frame(f);
    s.flat.insert(s.flat.end(), f.begin(), f.end());
    if (spec.batch > 1) {
      std::vector<svc::AcquireOp> b;
      for (const Op& op : f) b.push_back({op.key, op.tokens});
      s.batches.push_back(std::move(b));
    }
  }
  return s;
}

/// Op-driven time of the i-th op of the stream.
TimeUs op_time(const WorkloadSpec& spec, std::uint64_t i) {
  return static_cast<TimeUs>(i / std::max<std::uint64_t>(spec.ops_per_tick(), 1)) *
         spec.delta_us;
}

double ns_per(std::int64_t ns, std::uint64_t n) {
  return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

std::uint64_t g_sink = 0;  // defeats dead-code elimination of timed loops

// --------------------------------------------------- level 1: accounts

double level_account(const WorkloadSpec& spec, std::uint64_t seed,
                     const LedgerStream& s, double& replayed_per_op) {
  const svc::ServiceConfig cfg = service_config(spec, seed, false);
  const auto strategy = toka::core::make_strategy(cfg.strategy);
  const Tokens catchup = std::max<Tokens>(2 * strategy->capacity(), 16);
  std::vector<toka::core::TokenAccount> accounts(
      spec.keys + 1, toka::core::TokenAccount(*strategy, 0));
  std::vector<std::int64_t> last(spec.keys + 1, 0);
  toka::util::Rng rng(seed);
  std::uint64_t replayed = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < s.flat.size(); ++i) {
    const Op& op = s.flat[i];
    const std::int64_t tick = op_time(spec, i) / spec.delta_us;
    const std::int64_t due = tick - last[op.key];
    toka::core::TokenAccount& a = accounts[op.key];
    if (due > 0) {
      const std::int64_t apply = std::min<std::int64_t>(due, catchup);
      for (std::int64_t k = 0; k < apply; ++k) a.on_tick(rng);
      replayed += static_cast<std::uint64_t>(apply);
      last[op.key] = tick;
    }
    switch (op.kind) {
      case OpKind::kAcquire: g_sink += static_cast<std::uint64_t>(a.try_spend(op.tokens)); break;
      case OpKind::kRefund: g_sink += static_cast<std::uint64_t>(a.refund_spend(op.tokens)); break;
      case OpKind::kQuery: g_sink += static_cast<std::uint64_t>(a.balance()); break;
    }
  }
  const std::int64_t dt = now_ns() - t0;
  replayed_per_op = static_cast<double>(replayed) / static_cast<double>(s.flat.size());
  return ns_per(dt, s.flat.size());
}

// --------------------------------------------------- level 2: the table

void preload_table(svc::AccountTable& table, const WorkloadSpec& spec) {
  std::vector<svc::AcquireOp> chunk;
  for (std::uint64_t key = 1; key <= spec.keys; ++key) {
    chunk.push_back({key, 0});
    if (chunk.size() == 4096) {
      table.acquire_batch(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) table.acquire_batch(chunk);
}

void exec_single(svc::AccountTable& table, const Op& op) {
  switch (op.kind) {
    case OpKind::kAcquire: g_sink += static_cast<std::uint64_t>(table.acquire(op.key, op.tokens).granted); break;
    case OpKind::kRefund: g_sink += static_cast<std::uint64_t>(table.refund(op.key, op.tokens).accepted); break;
    case OpKind::kQuery: g_sink += static_cast<std::uint64_t>(table.query(op.key).balance); break;
  }
}

double replay_table(svc::AccountTable& table, const WorkloadSpec& spec,
                    const LedgerStream& s) {
  std::uint64_t i = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t f = 0; f < s.frames.size(); ++f) {
    table.clock().advance_to(op_time(spec, i));
    if (spec.batch > 1) {
      g_sink += table.acquire_batch(s.batches[f]).size();
    } else {
      exec_single(table, s.frames[f][0]);
    }
    i += s.frames[f].size();
  }
  return ns_per(now_ns() - t0, s.flat.size());
}

/// One op kind over the stream's keys, continuing the op-driven clock
/// from op index `base`.
double table_pass(svc::AccountTable& table, const WorkloadSpec& spec,
                  const LedgerStream& s, OpKind kind, std::uint64_t base) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < s.flat.size(); ++i) {
    table.clock().advance_to(op_time(spec, base + i));
    exec_single(table, Op{kind, s.flat[i].key, 1});
  }
  return ns_per(now_ns() - t0, s.flat.size());
}

double table_batch_pass(svc::AccountTable& table, const WorkloadSpec& spec,
                        const LedgerStream& s, std::uint64_t base) {
  std::vector<std::vector<svc::AcquireOp>> chunks;
  for (std::size_t i = 0; i < s.flat.size(); i += 64) {
    std::vector<svc::AcquireOp> c;
    for (std::size_t j = i; j < std::min(s.flat.size(), i + 64); ++j)
      c.push_back({s.flat[j].key, 1});
    chunks.push_back(std::move(c));
  }
  const std::int64_t t0 = now_ns();
  std::uint64_t i = 0;
  for (const auto& c : chunks) {
    table.clock().advance_to(op_time(spec, base + i));
    g_sink += table.acquire_batch(c).size();
    i += c.size();
  }
  return ns_per(now_ns() - t0, s.flat.size());
}

// ------------------------------------------------ level 3: the protocol

std::vector<std::byte> encode_request(const std::vector<Op>& f,
                                      std::uint64_t id,
                                      const std::vector<svc::AcquireOp>* b) {
  if (b != nullptr) return proto::encode(proto::BatchAcquireRequest{id, *b});
  const Op& op = f[0];
  switch (op.kind) {
    case OpKind::kAcquire: return proto::encode(proto::AcquireRequest{id, op.key, op.tokens});
    case OpKind::kRefund: return proto::encode(proto::RefundRequest{id, op.key, op.tokens});
    case OpKind::kQuery: break;
  }
  return proto::encode(proto::QueryRequest{id, op.key});
}

/// Executes a decoded request on the table and returns the encoded reply.
std::vector<std::byte> serve(svc::AccountTable& table,
                             const proto::Request& req) {
  if (const auto* a = std::get_if<proto::AcquireRequest>(&req)) {
    const auto r = table.acquire(a->ns, a->key, a->tokens);
    return proto::encode(proto::AcquireResponse{a->id, r.granted, r.balance});
  }
  if (const auto* f = std::get_if<proto::RefundRequest>(&req)) {
    const auto r = table.refund(f->ns, f->key, f->tokens);
    return proto::encode(proto::RefundResponse{f->id, r.accepted, r.balance});
  }
  if (const auto* q = std::get_if<proto::QueryRequest>(&req)) {
    const auto r = table.query(q->ns, q->key);
    return proto::encode(proto::QueryResponse{q->id, r.balance, r.exists});
  }
  const auto& b = std::get<proto::BatchAcquireRequest>(req);
  return proto::encode(
      proto::BatchAcquireResponse{b.id, table.acquire_batch(b.ns, b.ops)});
}

double level_protocol(svc::AccountTable& table, const WorkloadSpec& spec,
                      const LedgerStream& s, double& bytes_per_op) {
  std::uint64_t i = 0;
  std::uint64_t bytes = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t f = 0; f < s.frames.size(); ++f) {
    table.clock().advance_to(op_time(spec, i));
    const auto req = encode_request(s.frames[f], f + 1,
                                    spec.batch > 1 ? &s.batches[f] : nullptr);
    const auto resp = serve(table, proto::decode_request(req));
    g_sink += proto::request_id(proto::decode_response(resp));
    bytes += req.size() + resp.size();
    i += s.frames[f].size();
  }
  const std::int64_t dt = now_ns() - t0;
  bytes_per_op = static_cast<double>(bytes) / static_cast<double>(s.flat.size());
  return ns_per(dt, s.flat.size());
}

/// encode / decode ns of one frame type, and operator-new calls per
/// encode+decode.
struct FrameCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double allocs = 0;
};

template <typename Msg, typename Decode>
FrameCost frame_cost(const Msg& msg, Decode decode, int iters) {
  FrameCost c;
  const std::uint64_t a0 = thread_allocs();
  std::vector<std::byte> frame;
  std::int64_t t0 = now_ns();
  for (int k = 0; k < iters; ++k) {
    frame = proto::encode(msg);
    g_sink += frame.size();
  }
  c.encode_ns = ns_per(now_ns() - t0, static_cast<std::uint64_t>(iters));
  t0 = now_ns();
  for (int k = 0; k < iters; ++k) g_sink += decode(frame);
  c.decode_ns = ns_per(now_ns() - t0, static_cast<std::uint64_t>(iters));
  c.allocs = static_cast<double>(thread_allocs() - a0) / iters;
  return c;
}

void protocol_costs(const WorkloadSpec& spec, const LedgerStream& s,
                    MetricList& out) {
  const auto dreq = [](const std::vector<std::byte>& f) {
    return proto::request_id(proto::decode_request(f));
  };
  const auto dresp = [](const std::vector<std::byte>& f) {
    return proto::request_id(proto::decode_response(f));
  };
  std::vector<svc::AcquireOp> ops64;
  std::vector<svc::AcquireResult> res64;
  for (std::size_t i = 0; i < 64; ++i) {
    ops64.push_back({s.flat[i % s.flat.size()].key, 1});
    res64.push_back({1, 3, false});
  }
  const Op& first = s.flat.front();
  const FrameCost areq = frame_cost(
      proto::AcquireRequest{7, first.key, 1}, dreq, 200'000);
  const FrameCost aresp =
      frame_cost(proto::AcquireResponse{7, 1, 3}, dresp, 200'000);
  const FrameCost breq =
      frame_cost(proto::BatchAcquireRequest{7, ops64}, dreq, 20'000);
  const FrameCost bresp =
      frame_cost(proto::BatchAcquireResponse{7, res64}, dresp, 20'000);
  const auto frame = [&](const std::string& name, const FrameCost& c) {
    out.push_back({"service.protocol." + name + "_encode_ns", c.encode_ns, "ns"});
    out.push_back({"service.protocol." + name + "_decode_ns", c.decode_ns, "ns"});
  };
  frame("acquire_req", areq);
  frame("acquire_resp", aresp);
  frame("batch64_req", breq);
  frame("batch64_resp", bresp);
  // The workload's own frame shape: request + response, per frame.
  const FrameCost& rq = spec.batch > 1 ? breq : areq;
  const FrameCost& rs = spec.batch > 1 ? bresp : aresp;
  out.push_back({"service.protocol.encode_ns", rq.encode_ns + rs.encode_ns, "ns"});
  out.push_back({"service.protocol.decode_ns", rq.decode_ns + rs.decode_ns, "ns"});
  out.push_back(
      {"service.protocol.allocs_per_frame", rq.allocs + rs.allocs, "count"});
}

// ---------------------------------------------- level 4: the shard engine

struct alignas(64) Slot {
  std::atomic<bool> busy{false};
  std::int64_t t_submit = 0;
  std::uint64_t id = 0;
  std::vector<double> handoff_us;
};

void finish_slot(Slot& slot, const std::vector<std::byte>& resp) {
  g_sink += proto::request_id(proto::decode_response(resp));
  slot.handoff_us.push_back(static_cast<double>(now_ns() - slot.t_submit) / 1e3);
  slot.busy.store(false, std::memory_order_release);
}

void engine_op_done(svc::ShardOp& op, void* ctx) {
  auto& slot = *static_cast<Slot*>(ctx);
  std::vector<std::byte> resp;
  switch (op.kind) {
    case svc::ShardOp::Kind::kRefund:
      resp = proto::encode(proto::RefundResponse{slot.id, op.out_a, op.out_b});
      break;
    case svc::ShardOp::Kind::kQuery:
      resp = proto::encode(proto::QueryResponse{slot.id, op.out_a, op.out_b != 0});
      break;
    default:
      resp = proto::encode(proto::AcquireResponse{slot.id, op.out_a, op.out_b});
      break;
  }
  finish_slot(slot, resp);
}

void engine_batch_done(svc::EngineBatch& batch, void* ctx) {
  auto& slot = *static_cast<Slot*>(ctx);
  finish_slot(slot, proto::encode(proto::BatchAcquireResponse{slot.id, batch.results}));
}

struct EngineLevel {
  double ns_per_op = 0;
  double handoff_us_p50 = 0;   ///< submit -> completion
  double queue_depth_p99 = 0;  ///< queue_depth_max() right after a submit
};

EngineLevel level_engine(const WorkloadSpec& spec, std::uint64_t seed,
                         const LedgerStream& s) {
  svc::AccountTable table(service_config(spec, seed, true));
  preload_table(table, spec);
  svc::ShardEngineOptions eo;
  eo.workers = std::max<std::size_t>(spec.engine_workers, 1);
  svc::ShardEngine engine(table, eo);
  std::vector<Slot> slots(std::max<std::uint32_t>(spec.window, 1));
  std::vector<double> depth;
  depth.reserve(s.frames.size());
  std::uint64_t i = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t f = 0; f < s.frames.size(); ++f) {
    Slot& slot = slots[f % slots.size()];
    while (slot.busy.load(std::memory_order_acquire)) std::this_thread::yield();
    table.clock().advance_to(op_time(spec, i));
    const auto req = encode_request(s.frames[f], f + 1,
                                    spec.batch > 1 ? &s.batches[f] : nullptr);
    const proto::Request decoded = proto::decode_request(req);
    slot.id = f + 1;
    slot.busy.store(true, std::memory_order_relaxed);
    slot.t_submit = now_ns();
    if (const auto* b = std::get_if<proto::BatchAcquireRequest>(&decoded)) {
      while (!engine.submit_batch(b->ns, b->ops, engine_batch_done, &slot))
        std::this_thread::yield();
    } else {
      svc::ShardOp op;
      const Op& o = s.frames[f][0];
      op.kind = o.kind == OpKind::kAcquire  ? svc::ShardOp::Kind::kAcquire
                : o.kind == OpKind::kRefund ? svc::ShardOp::Kind::kRefund
                                            : svc::ShardOp::Kind::kQuery;
      op.key = o.key;
      op.tokens = o.tokens;
      op.done = engine_op_done;
      op.ctx = &slot;
      engine.submit(op);
    }
    depth.push_back(static_cast<double>(engine.queue_depth_max()));
    i += s.frames[f].size();
  }
  for (Slot& slot : slots)
    while (slot.busy.load(std::memory_order_acquire)) std::this_thread::yield();
  EngineLevel out;
  out.ns_per_op = ns_per(now_ns() - t0, s.flat.size());
  std::vector<double> all;
  for (Slot& slot : slots)
    all.insert(all.end(), slot.handoff_us.begin(), slot.handoff_us.end());
  out.handoff_us_p50 = percentile(all, 0.5);
  out.queue_depth_p99 = percentile(depth, 0.99);
  return out;
}

// ------------------------------------------- levels 5-8: live stacks

double level_stack(const WorkloadSpec& spec, std::uint64_t seed,
                   const LedgerStream& s, StackOptions o, Tally& tally) {
  o.seed = seed;
  std::unique_ptr<Stack> stack = build_stack(o);
  OpClock clock(spec.ops_per_tick(), spec.delta_us,
                [&](TimeUs t) { stack->set_time(t); });
  FixedFeed feed(s.frames);
  DriveOptions d;
  d.clock = &clock;
  const ClosedResult r = run_closed(*stack, feed, spec.window, tally, d);
  return r.ops > 0 ? r.wall_s * 1e9 / static_cast<double>(r.ops) : 0.0;
}

}  // namespace

void run_ledger(const WorkloadSpec& spec, std::uint64_t seed,
                MetricList& out, Tally& tally) {
  const LedgerStream s = make_stream(spec, seed);
  const std::uint64_t n = s.flat.size();

  // Table footprint and preload time on a fresh table.
  double preload_s = 0, bytes_per_account = 0;
  double table_locked = 0, acquire_ns = 0, refund_ns = 0, query_ns = 0,
         batch_ns = 0;
  {
    const std::uint64_t heap0 = heap_bytes();
    const std::int64_t t0 = now_ns();
    svc::AccountTable table(service_config(spec, seed, false));
    preload_table(table, spec);
    preload_s = static_cast<double>(now_ns() - t0) / 1e9;
    bytes_per_account = static_cast<double>(heap_bytes() - heap0) /
                        static_cast<double>(spec.keys);
    table_locked = replay_table(table, spec, s);
    acquire_ns = table_pass(table, spec, s, OpKind::kAcquire, n);
    query_ns = table_pass(table, spec, s, OpKind::kQuery, 2 * n);
    refund_ns = table_pass(table, spec, s, OpKind::kRefund, 3 * n);
    batch_ns = table_batch_pass(table, spec, s, 4 * n);
  }
  double replayed_per_op = 0;
  const double account = level_account(spec, seed, s, replayed_per_op);
  double table_exclusive = 0;
  {
    svc::AccountTable table(service_config(spec, seed, true));
    preload_table(table, spec);
    table_exclusive = replay_table(table, spec, s);
  }
  double protocol = 0, bytes_per_op = 0;
  {
    svc::AccountTable table(service_config(spec, seed, false));
    preload_table(table, spec);
    protocol = level_protocol(table, spec, s, bytes_per_op);
  }
  protocol_costs(spec, s, out);
  const EngineLevel engine = level_engine(spec, seed, s);

  const bool engine_plane = spec.plane == Plane::kEngineEpoll;
  WorkloadSpec node = spec;
  node.plane = engine_plane ? Plane::kEngineEpoll : Plane::kLockedTcp;
  StackOptions o;
  o.spec = &node;
  o.engine = engine_plane;
  o.wire = Wire::kInProc;
  const double inproc = level_stack(node, seed, s, o, tally);
  o.wire = engine_plane ? Wire::kEpoll : Wire::kTcp;
  const double socket = level_stack(node, seed, s, o, tally);
  WorkloadSpec cl = spec;
  cl.plane = Plane::kClusterInProc;
  cl.nodes = 3;
  StackOptions co;
  co.spec = &cl;
  co.replicas = 0;
  const double route = level_stack(cl, seed, s, co, tally);
  co.replicas = 1;
  const double repl = level_stack(cl, seed, s, co, tally);

  // Ring routing alone, on the stream's keys.
  toka::cluster::ClusterMap map{1, toka::cluster::kDefaultVnodes, {0, 1, 2}};
  const toka::cluster::HashRing ring(map);
  const std::int64_t r0 = now_ns();
  for (const Op& op : s.flat) g_sink += ring.owner(svc::kDefaultNamespace, op.key);
  const double route_ns = ns_per(now_ns() - r0, n);

  out.push_back({"core.settle_ns", account, "ns"});
  out.push_back({"core.replayed_ticks_per_op", replayed_per_op, "1/op"});
  out.push_back({"service.table.acquire_ns", acquire_ns, "ns"});
  out.push_back({"service.table.refund_ns", refund_ns, "ns"});
  out.push_back({"service.table.query_ns", query_ns, "ns"});
  out.push_back({"service.table.batch_ns_per_op", batch_ns, "ns"});
  out.push_back({"service.table.bytes_per_account", bytes_per_account, "B"});
  out.push_back({"service.table.preload_s", preload_s, "s"});
  out.push_back({"service.protocol.bytes_per_op", bytes_per_op, "B"});
  out.push_back({"service.engine.handoff_us_p50", engine.handoff_us_p50, "us"});
  out.push_back(
      {"service.engine.queue_depth_p99", engine.queue_depth_p99, "count"});
  out.push_back({"cluster.route_ns", route_ns, "ns"});
  out.push_back({"ledger.account_ns_per_op", account, "ns"});
  out.push_back({"ledger.table_locked_ns_per_op", table_locked, "ns"});
  out.push_back({"ledger.table_exclusive_ns_per_op", table_exclusive, "ns"});
  out.push_back({"ledger.protocol_ns_per_op", protocol, "ns"});
  out.push_back({"ledger.engine_ns_per_op", engine.ns_per_op, "ns"});
  out.push_back({"ledger.server_inproc_ns_per_op", inproc, "ns"});
  out.push_back({"ledger.server_socket_ns_per_op", socket, "ns"});
  out.push_back({"ledger.cluster_route_ns_per_op", route, "ns"});
  out.push_back({"ledger.replication_ns_per_op", repl, "ns"});
  volatile std::uint64_t keep = g_sink;
  (void)keep;
}

}  // namespace tokbench
