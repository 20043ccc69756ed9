#include "daos/client.h"

#include <algorithm>

#include "sim/when_all.h"

namespace nws::daos {

Client::Client(Cluster& cluster, net::Endpoint endpoint, std::uint64_t salt)
    : cluster_(cluster),
      endpoint_(endpoint),
      rng_(cluster.fork_rng(salt)),
      actor_{static_cast<std::uint32_t>(endpoint.node), static_cast<std::uint32_t>(endpoint.socket)} {}

sim::Task<void> Client::rpc(std::size_t target_index, sim::Duration overhead) {
  const Target& t = cluster_.target(target_index);
  const sim::Duration rtt = 2 * cluster_.topology().latency(endpoint_, net::Endpoint{t.node, t.socket});
  const auto cost = static_cast<sim::Duration>(static_cast<double>(overhead) * jitter());
  co_await cluster_.scheduler().delay(rtt + cost);
}

sim::Task<Status> Client::fault_check(std::size_t target_index) {
  fault::FaultPlan* plan = cluster_.fault_plan();
  if (plan == nullptr) co_return Status::ok();
  if (plan->target_down(target_index, cluster_.scheduler().now())) {
    plan->note_rejection();
    co_return Status::error(Errc::unavailable, "target in injected outage window");
  }
  if (plan->drop_rpc()) {
    ++stats_.rpc_timeouts;
    co_await cluster_.scheduler().delay(plan->spec().rpc_timeout);
    co_return Status::error(Errc::timeout, "injected RPC drop: request timed out");
  }
  if (plan->transient_error()) {
    ++stats_.transient_errors;
    co_return Status::error(Errc::io_error, "injected transient I/O error");
  }
  co_return Status::ok();
}

sim::Task<PoolHandle> Client::pool_connect() {
  obs::Span span("pool_connect", "daos", actor_, trace_iteration_);
  // Pool metadata lives with target 0's engine.
  co_await rpc(0, cluster_.model().pool_connect_overhead);
  co_return PoolHandle{true};
}

sim::Task<Status> Client::cont_create(const Uuid& uuid) {
  obs::Span span("cont_create", "daos", actor_, trace_iteration_);
  co_await rpc(0, cluster_.model().cont_create_overhead);
  if (Status fault = co_await fault_check(0); !fault.is_ok()) co_return fault;
  co_return cluster_.create_container(uuid);
}

sim::Task<Result<ContHandle>> Client::cont_open(const Uuid& uuid) {
  obs::Span span("cont_open", "daos", actor_, trace_iteration_);
  co_await rpc(0, cluster_.model().cont_open_overhead);
  if (Status fault = co_await fault_check(0); !fault.is_ok()) co_return fault;
  auto result = cluster_.open_container(uuid);
  if (!result.is_ok()) co_return result.status();
  co_return ContHandle{result.value()};
}

sim::Task<void> Client::cont_close(ContHandle& handle) {
  handle.container = nullptr;
  co_await cluster_.scheduler().delay(cluster_.model().handle_close_overhead);
}

sim::Task<ContHandle> Client::main_cont_open() {
  co_await rpc(0, cluster_.model().cont_open_overhead);
  co_return ContHandle{&cluster_.main_container()};
}

sim::Task<Result<Epoch>> Client::cont_commit(ContHandle& handle) {
  obs::Span span("epoch.commit", "epoch", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("cont_commit on closed container handle");
  if (handle.pinned()) co_return Status::error(Errc::invalid, "commit on a snapshot handle");
  co_await rpc(0, cluster_.model().epoch_commit_overhead);
  if (Status fault = co_await fault_check(0); !fault.is_ok()) co_return fault;
  ++stats_.epoch_commits;
  co_return handle.container->commit();
}

sim::Task<Result<ContHandle>> Client::cont_snapshot(ContHandle handle, Epoch epoch) {
  obs::Span span("epoch.snapshot", "epoch", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("cont_snapshot on closed container handle");
  co_await rpc(0, cluster_.model().epoch_snapshot_overhead);
  if (Status fault = co_await fault_check(0); !fault.is_ok()) co_return fault;
  auto opened = handle.container->snapshot_open(epoch);
  if (!opened.is_ok()) co_return opened.status();
  ++stats_.epoch_snapshots;
  co_return ContHandle{handle.container, opened.value()};
}

sim::Task<Status> Client::snapshot_close(ContHandle& handle) {
  obs::Span span("epoch.snapshot_close", "epoch", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("snapshot_close on closed container handle");
  if (!handle.pinned()) co_return Status::error(Errc::invalid, "snapshot_close on a live handle");
  handle.container->snapshot_close(handle.epoch);
  handle.container = nullptr;
  handle.epoch = kEpochLatest;
  co_await cluster_.scheduler().delay(cluster_.model().handle_close_overhead);
  co_return Status::ok();
}

sim::Task<Result<Epoch>> Client::cont_committed_epoch(ContHandle& handle) {
  obs::Span span("epoch.query", "epoch", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("cont_committed_epoch on closed container handle");
  co_await rpc(0, cluster_.model().kv_op_overhead);
  if (Status fault = co_await fault_check(0); !fault.is_ok()) co_return fault;
  co_return handle.container->committed_epoch();
}

sim::Task<KvHandle> Client::kv_open(ContHandle cont, const ObjectId& oid) {
  obs::Span span("kv_open", "daos", actor_, trace_iteration_);
  if (!cont.valid()) throw std::logic_error("kv_open on closed container handle");
  // Object open is a client-local handle operation in DAOS.
  co_await cluster_.scheduler().delay(cluster_.model().handle_close_overhead);
  co_return KvHandle{cont.container, oid, &cont.container->kv(oid), cont.epoch};
}

sim::Task<Status> Client::kv_put(KvHandle& handle, const std::string& key, std::string value) {
  return put_kv(handle, key, std::move(value), /*if_absent=*/false);
}

sim::Task<Status> Client::kv_put_if_absent(KvHandle& handle, const std::string& key,
                                           std::string value) {
  return put_kv(handle, key, std::move(value), /*if_absent=*/true);
}

sim::Task<void> Client::replicate_kv_put(const std::vector<std::size_t>& replicas) {
  const Bytes bytes = cluster_.model().kv_put_service_bytes;
  std::vector<sim::Task<void>> fan;
  fan.reserve(replicas.size());
  for (const std::size_t target : replicas) {
    auto one = [](Cluster& cluster, std::vector<net::LinkId> p, Bytes b) -> sim::Task<void> {
      co_await cluster.flows().transfer(std::move(p), b);
    }(cluster_, cluster_.service_path(target, /*is_write=*/true), bytes);
    fan.push_back(std::move(one));
  }
  return sim::when_all(cluster_.scheduler(), std::move(fan));
}

sim::Task<Status> Client::put_kv(KvHandle& handle, const std::string& key, std::string value,
                                 bool if_absent) {
  const char* op = if_absent ? "kv_put_if_absent" : "kv_put";
  obs::Span span(op, "daos", actor_, trace_iteration_, static_cast<double>(value.size()));
  if (!handle.valid()) throw std::logic_error(std::string(op) + " on closed handle");
  if (handle.pinned()) {
    co_return Status::error(Errc::invalid, std::string(op) + " through a snapshot handle");
  }
  const ModelConfig& m = cluster_.model();
  const auto route = kv_route(handle.oid, key, /*is_write=*/true);
  if (!route.status.is_ok()) co_return route.status;
  const std::size_t shard = route.primary;
  co_await rpc(shard, m.kv_op_overhead);
  if (Status fault = co_await fault_check(shard); !fault.is_ok()) co_return fault;
  if (cluster_.inject_io_failure()) {
    co_return Status::error(Errc::io_error, if_absent ? "injected KV conditional put failure"
                                                      : "injected KV put failure");
  }

  // Shard service: metadata work competes with array I/O for the engine and
  // target.  Conditional updates contending on the same object abort and
  // retry, multiplying the server-side work — the cost scales with how many
  // updaters are in flight on the object.
  handle.kv->writer_enter();
  const std::size_t contenders = handle.kv->active_writers() - 1;
  Bytes retry = m.kv_contention_retry_bytes *
                static_cast<Bytes>(std::min(contenders, m.kv_contention_retry_cap));
  const sim::TimePoint now_put = cluster_.scheduler().now();
  const bool recently_read = handle.kv->last_read() >= 0 &&
                             now_put - handle.kv->last_read() < m.kv_hot_entry_window;
  if (handle.kv->active_readers() > 0 || recently_read) retry += m.kv_cross_contention_bytes;
  co_await cluster_.flows().transfer(cluster_.service_path(shard, /*is_write=*/true),
                                     m.kv_put_service_bytes + retry);

  // Replicated classes forward the update to every other live replica; the
  // put is not durable until all of them have serviced it.  A plain put
  // fans out before the serialised transaction-ordering section.  For a
  // conditional put the existence check and the put form one serialised
  // transaction, so its fan-out happens under the lock: losers of a
  // concurrent insert race must not forward anything.
  const bool replicated = !route.replicas.empty();
  if (replicated && !if_absent) co_await replicate_kv_put(route.replicas);
  co_await handle.kv->object_lock().lock();
  if (if_absent) {
    if (handle.kv->contains(key, kEpochLatest)) {
      handle.kv->object_lock().unlock();
      handle.kv->writer_exit();
      co_return Status::error(Errc::already_exists, "KV key exists: " + key);
    }
    if (replicated) co_await replicate_kv_put(route.replicas);
  }
  co_await cluster_.scheduler().delay(
      static_cast<sim::Duration>(static_cast<double>(m.kv_put_serial) * jitter()));
  handle.kv->put(key, std::move(value), handle.container->write_epoch());
  handle.kv->note_update(cluster_.scheduler().now());
  handle.kv->object_lock().unlock();
  handle.kv->writer_exit();

  ++stats_.kv_puts;
  co_return Status::ok();
}

sim::Task<Result<std::string>> Client::kv_get(KvHandle& handle, const std::string& key) {
  obs::Span span("kv_get", "daos", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("kv_get on closed handle");
  const ModelConfig& m = cluster_.model();
  const auto route = kv_route(handle.oid, key, /*is_write=*/false);
  if (!route.status.is_ok()) co_return route.status;
  if (route.degraded) cluster_.pool_map().note_degraded_read();
  const std::size_t shard = route.primary;
  co_await rpc(shard, m.kv_op_overhead);
  if (Status fault = co_await fault_check(shard); !fault.is_ok()) co_return fault;
  if (cluster_.inject_io_failure()) {
    co_return Status::error(Errc::io_error, "injected KV get failure");
  }

  handle.kv->reader_enter();
  const std::size_t concurrent = handle.kv->active_readers() - 1;
  Bytes extra = m.kv_read_concurrency_bytes *
                static_cast<Bytes>(std::min(concurrent, m.kv_read_concurrency_cap));
  const sim::TimePoint now_get = cluster_.scheduler().now();
  const bool hot_entry = handle.kv->last_update() >= 0 &&
                         now_get - handle.kv->last_update() < m.kv_hot_entry_window;
  if (handle.kv->active_writers() > 0 || hot_entry) extra += m.kv_cross_contention_bytes;
  co_await cluster_.flows().transfer(cluster_.service_path(shard, /*is_write=*/false),
                                     m.kv_get_service_bytes + extra);
  // Bounded fetch-servicing slots: a single hot object sustains only
  // kv_get_concurrency simultaneous fetch validations.
  co_await handle.kv->get_slots().acquire();
  co_await cluster_.scheduler().delay(
      static_cast<sim::Duration>(static_cast<double>(m.kv_get_serial) * jitter()));
  handle.kv->get_slots().release();
  handle.kv->note_read(cluster_.scheduler().now());
  handle.kv->reader_exit();

  ++stats_.kv_gets;
  co_return handle.kv->get(key, handle.epoch);
}

sim::Task<Status> Client::kv_remove(KvHandle& handle, const std::string& key) {
  obs::Span span("kv_remove", "daos", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("kv_remove on closed handle");
  if (handle.pinned()) co_return Status::error(Errc::invalid, "kv_remove through a snapshot handle");
  const ModelConfig& m = cluster_.model();
  const auto route = kv_route(handle.oid, key, /*is_write=*/true);
  if (!route.status.is_ok()) co_return route.status;
  const std::size_t shard = route.primary;
  co_await rpc(shard, m.kv_op_overhead);
  if (Status fault = co_await fault_check(shard); !fault.is_ok()) co_return fault;
  co_await handle.kv->object_lock().lock();
  co_await cluster_.scheduler().delay(m.kv_put_serial);
  const Status st = handle.kv->remove(key, handle.container->write_epoch());
  handle.kv->object_lock().unlock();
  co_return st;
}

sim::Task<std::vector<std::string>> Client::kv_list(KvHandle& handle) {
  obs::Span span("kv_list", "daos", actor_, trace_iteration_);
  if (!handle.valid()) throw std::logic_error("kv_list on closed handle");
  const ModelConfig& m = cluster_.model();
  // Enumeration walks every shard; cost scales with entry count.  ORDERING
  // CONTRACT: the returned keys are lexicographically sorted regardless of
  // insertion order or concurrent inserts — readdir over a directory KV
  // depends on it (KvObject backs entries with an ordered map; the
  // DaosTest.KvListOrderingContract regression pins the contract).
  const auto keys = handle.kv->list(handle.epoch);
  const auto per_key = sim::microseconds(2.0);
  co_await rpc(kv_route(handle.oid, "", /*is_write=*/false).primary, m.kv_op_overhead);
  co_await cluster_.scheduler().delay(static_cast<sim::Duration>(keys.size()) * per_key);
  co_return keys;
}

sim::Task<void> Client::kv_close(KvHandle& handle) {
  obs::Span span("kv_close", "daos", actor_, trace_iteration_);
  handle.kv = nullptr;
  co_await cluster_.scheduler().delay(cluster_.model().handle_close_overhead);
}

sim::Task<Result<ArrayHandle>> Client::array_create(ContHandle cont, const ObjectId& oid, Bytes cell_size,
                                                    Bytes chunk_size) {
  obs::Span span("array_create", "daos", actor_, trace_iteration_);
  if (!cont.valid()) throw std::logic_error("array_create on closed container handle");
  if (cont.pinned()) co_return Status::error(Errc::invalid, "array_create on a snapshot handle");
  const ModelConfig& m = cluster_.model();
  const auto routed = lead_target(oid);
  if (!routed.is_ok()) co_return routed.status();
  const std::size_t lead = routed.value();
  co_await rpc(lead, m.array_create_overhead);
  if (Status fault = co_await fault_check(lead); !fault.is_ok()) co_return fault;
  co_await container_indirection(cont.container, lead, /*is_write=*/true);
  auto created = cont.container->create_array(oid, cell_size, chunk_size, cluster_.config().payload_mode);
  if (!created.is_ok()) co_return created.status();
  co_return ArrayHandle{cont.container, oid, created.value(), lead};
}

sim::Task<Result<ArrayHandle>> Client::array_open(ContHandle cont, const ObjectId& oid) {
  obs::Span span("array_open", "daos", actor_, trace_iteration_);
  if (!cont.valid()) throw std::logic_error("array_open on closed container handle");
  const ModelConfig& m = cluster_.model();
  const auto routed = lead_target(oid);
  if (!routed.is_ok()) co_return routed.status();
  const std::size_t lead = routed.value();
  co_await rpc(lead, m.array_open_overhead);
  if (Status fault = co_await fault_check(lead); !fault.is_ok()) co_return fault;
  auto opened = cont.container->open_array(oid);
  if (!opened.is_ok()) co_return opened.status();
  // A pinned container only exposes arrays that existed at the snapshot.
  if (cont.pinned() && !opened.value()->exists_at(cont.epoch)) {
    co_return Status::error(Errc::not_found, "array not in snapshot epoch: " + oid.to_string());
  }
  co_return ArrayHandle{cont.container, oid, opened.value(), lead, cont.epoch};
}

namespace {
/// Chunk round-robin byte split of [offset, offset+len) over `width` members.
std::vector<Bytes> member_split(Bytes offset, Bytes len, Bytes chunk, std::size_t width) {
  std::vector<Bytes> per_member(width, 0);
  Bytes pos = offset;
  Bytes remaining = len;
  while (remaining > 0) {
    const Bytes chunk_index = pos / chunk;
    const Bytes within = pos % chunk;
    const Bytes take = std::min(remaining, chunk - within);
    per_member[static_cast<std::size_t>(chunk_index % width)] += take;
    pos += take;
    remaining -= take;
  }
  return per_member;
}
}  // namespace

Client::IoPlan Client::plan_array_io(const ObjectId& oid, Bytes offset, Bytes len, bool is_write,
                                     std::size_t default_lead) const {
  const ModelConfig& m = cluster_.model();
  const ObjectClass oc = oid.oclass();
  IoPlan plan;
  plan.lead = default_lead;

  if (!is_redundant(oc) && cluster_.pool_map().version() == 1) {
    // Fast path (striping classes, no exclusions): the pre-redundancy fan-out.
    const auto stripe = cluster_.stripe_targets(oid);
    const auto per_member = member_split(offset, len, m.array_chunk_size, stripe.size());
    for (std::size_t i = 0; i < stripe.size(); ++i) {
      if (per_member[i] > 0) plan.extents.emplace_back(stripe[i], per_member[i]);
    }
  } else if (const std::size_t r = replica_count(oc); r > 1) {
    // Replication: every member holds the full byte range.
    const auto routes = cluster_.resolve_stripe(oid);
    if (is_write) {
      for (const auto& route : routes) {
        if (!route.lost) plan.extents.emplace_back(route.target, len);
      }
      if (plan.extents.empty()) {
        plan.status = Status::error(Errc::data_loss, "all replicas lost: " + oid.to_string());
        return plan;
      }
    } else {
      std::size_t pick = routes.size();
      for (std::size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].available) {
          pick = i;
          break;
        }
      }
      if (pick == routes.size()) {
        plan.status = Status::error(Errc::data_loss, "no readable replica: " + oid.to_string());
        return plan;
      }
      plan.extents.emplace_back(routes[pick].target, len);
      plan.degraded = pick != 0;
    }
    plan.lead = plan.extents.front().first;
  } else if (const std::size_t k = ec_data_shards(oc); k > 0) {
    // Erasure code k+p: chunks round-robin over the k data members; every
    // parity member absorbs ~len/k of parity updates on writes and can stand
    // in for one unavailable data member on reads (decode).
    const std::size_t p = ec_parity_shards(oc);
    const auto routes = cluster_.resolve_stripe(oid);
    for (const auto& route : routes) {
      if (route.lost) {
        plan.status = Status::error(Errc::data_loss, "EC stripe beyond parity: " + oid.to_string());
        return plan;
      }
    }
    const auto per_member = member_split(offset, len, m.array_chunk_size, k);
    if (is_write) {
      const Bytes parity_bytes = (len + k - 1) / k;
      for (std::size_t i = 0; i < k; ++i) {
        if (per_member[i] > 0) plan.extents.emplace_back(routes[i].target, per_member[i]);
      }
      for (std::size_t j = k; j < k + p; ++j) plan.extents.emplace_back(routes[j].target, parity_bytes);
    } else {
      std::vector<std::size_t> spare;  // parity members able to stand in
      for (std::size_t j = k; j < k + p; ++j) {
        if (routes[j].available) spare.push_back(routes[j].target);
      }
      std::size_t next_spare = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (per_member[i] == 0) continue;
        if (routes[i].available) {
          plan.extents.emplace_back(routes[i].target, per_member[i]);
          continue;
        }
        if (next_spare == spare.size()) {
          plan.status = Status::error(Errc::data_loss, "EC decode short of shards: " + oid.to_string());
          return plan;
        }
        plan.extents.emplace_back(spare[next_spare++], per_member[i]);
        plan.decode_bytes += per_member[i];
        plan.degraded = true;
      }
    }
    if (!plan.extents.empty()) plan.lead = plan.extents.front().first;
  } else {
    // Striping classes after an exclusion: each member routes individually;
    // a shard whose single copy was on the excluded target is gone.
    const auto routes = cluster_.resolve_stripe(oid);
    const auto per_member = member_split(offset, len, m.array_chunk_size, routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (per_member[i] == 0) continue;
      const auto& route = routes[i];
      if (route.lost || !route.available) {
        plan.status =
            Status::error(Errc::data_loss, "shard unrecoverable (no redundancy): " + oid.to_string());
        return plan;
      }
      plan.extents.emplace_back(route.target, per_member[i]);
    }
    if (!plan.extents.empty()) plan.lead = plan.extents.front().first;
  }

  // Coalesce to at most max_shard_flows flow groups (keeps OC_SX tractable):
  // merge round-robin so every group keeps a distinct representative target.
  if (plan.extents.size() > m.max_shard_flows && m.max_shard_flows > 0) {
    std::vector<std::pair<std::size_t, Bytes>> grouped(m.max_shard_flows, {0, 0});
    for (std::size_t i = 0; i < plan.extents.size(); ++i) {
      auto& g = grouped[i % m.max_shard_flows];
      if (g.second == 0) g.first = plan.extents[i].first;
      g.second += plan.extents[i].second;
    }
    plan.extents = std::move(grouped);
  }
  return plan;
}

Result<std::size_t> Client::lead_target(const ObjectId& oid) const {
  const auto routes = cluster_.resolve_stripe(oid);
  for (const auto& route : routes) {
    if (route.available) return route.target;
  }
  return Status::error(Errc::data_loss, "no available stripe member: " + oid.to_string());
}

Client::KvRoute Client::kv_route(const ObjectId& oid, const std::string& key, bool is_write) const {
  KvRoute route;
  const ObjectClass oc = oid.oclass();
  if (!is_redundant(oc) && cluster_.pool_map().version() == 1) {
    route.primary = cluster_.shard_for_key(oid, key);  // healthy-pool fast path
    return route;
  }
  const auto routes = cluster_.resolve_stripe(oid);
  const std::size_t member = cluster_.stripe_member_for_key(oid, key);
  if (replica_count(oc) > 1) {
    // Replicated KV: every member holds the whole keyspace.  Reads prefer
    // the member the key hashes to; writes fan out to every live replica.
    std::size_t pick = routes.size();
    if (routes[member].available) {
      pick = member;
    } else {
      for (std::size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].available) {
          pick = i;
          break;
        }
      }
    }
    if (pick == routes.size()) {
      route.status = Status::error(Errc::data_loss, "no readable replica: " + oid.to_string());
      return route;
    }
    route.primary = routes[pick].target;
    route.degraded = !is_write && pick != member;
    if (is_write) {
      for (std::size_t i = 0; i < routes.size(); ++i) {
        if (i != pick && !routes[i].lost) route.replicas.push_back(routes[i].target);
      }
    }
  } else {
    const auto& r0 = routes[member];
    if (r0.lost || !r0.available) {
      route.status = Status::error(Errc::data_loss, "KV shard unrecoverable: " + oid.to_string());
      return route;
    }
    route.primary = r0.target;
  }
  return route;
}

sim::Task<void> Client::run_data_flows(const std::vector<std::pair<std::size_t, Bytes>>& extents,
                                       bool is_write) {
  const net::ProviderProfile& provider = cluster_.config().provider;
  const ModelConfig& m = cluster_.model();
  std::vector<sim::Task<void>> flows;
  flows.reserve(extents.size());
  for (const auto& [target_index, bytes] : extents) {
    const Target& t = cluster_.target(target_index);
    auto path = is_write ? cluster_.write_path(endpoint_, t) : cluster_.read_path(endpoint_, t);
    double cap = provider.stream_rate_cap(bytes) * jitter();
    // Very large values churn target buffers (Fig. 6 plateau past 10 MiB).
    if (bytes > m.target_large_object_threshold) {
      const double doublings =
          std::log2(static_cast<double>(bytes) / static_cast<double>(m.target_large_object_threshold));
      cap /= 1.0 + m.target_large_object_penalty * doublings;
    }
    auto one = [](Cluster& cluster, std::vector<net::LinkId> p, Bytes b, double c) -> sim::Task<void> {
      co_await cluster.flows().transfer(std::move(p), b, c);
    }(cluster_, std::move(path), bytes, cap);
    flows.push_back(std::move(one));
  }
  if (flows.size() == 1) {
    co_await std::move(flows.front());
  } else {
    co_await sim::when_all(cluster_.scheduler(), std::move(flows));
  }
}

sim::Task<void> Client::container_indirection(Container* container, std::size_t target_index,
                                              bool is_write) {
  if (container->is_main()) co_return;
  const ModelConfig& m = cluster_.model();
  co_await cluster_.scheduler().delay(
      static_cast<sim::Duration>(static_cast<double>(m.container_indirection_latency) * jitter()));
  Bytes service = m.container_indirection_bytes;
  // Mixed-load half of the container penalty (model_config.h).
  if (container->mixed_array_load(cluster_.scheduler().now(), m.kv_hot_entry_window)) {
    service += m.container_mixed_load_bytes;
  }
  co_await cluster_.flows().transfer(cluster_.container_service_path(target_index, is_write), service);
}

sim::Task<Status> Client::array_write(ArrayHandle& handle, Bytes offset, const std::uint8_t* data,
                                      Bytes len) {
  obs::Span span("array_write", "daos", actor_, trace_iteration_, static_cast<double>(len));
  if (!handle.valid()) throw std::logic_error("array_write on closed handle");
  if (handle.pinned()) co_return Status::error(Errc::invalid, "array_write through a snapshot handle");
  if (len == 0) co_return Status::ok();
  const ModelConfig& m = cluster_.model();
  const auto plan = plan_array_io(handle.oid, offset, len, /*is_write=*/true, handle.lead_target);
  if (!plan.status.is_ok()) co_return plan.status;
  const auto& extents = plan.extents;

  const auto fanout =
      static_cast<sim::Duration>(extents.size() > 1 ? (extents.size() - 1) * m.stripe_fanout_overhead : 0);
  co_await rpc(plan.lead, m.array_io_overhead + fanout);
  if (Status fault = co_await fault_check(plan.lead); !fault.is_ok()) co_return fault;
  if (cluster_.inject_io_failure()) co_return Status::error(Errc::io_error, "injected array write failure");
  co_await container_indirection(handle.container, plan.lead, /*is_write=*/true);

  // Pool space for newly written extent growth (never reclaimed: the field
  // functions de-reference but do not delete, Section 4).
  const Bytes new_end = offset + len;
  if (new_end > handle.array->size()) {
    auto charged = cluster_.charge_capacity(plan.lead, new_end - handle.array->size());
    if (!charged.is_ok()) co_return charged.status();
    handle.array->note_allocation(charged.value().first, charged.value().second);
  }

  // Epoch placement: the write lands at the container's pending epoch.  If
  // it supersedes a retained committed version (retention window or open
  // snapshots), the server copies that version first — the write
  // amplification the retention policy trades for time-travel reads.
  const Epoch write_epoch = handle.container->write_epoch();
  const bool retain = handle.container->retains_superseded();

  handle.container->array_io_enter(/*is_write=*/true);
  if (m.array_conflict_serialization) {
    co_await handle.array->object_lock().lock();
    const Bytes cow = handle.array->pending_cow_bytes(write_epoch, retain);
    if (cow > 0) {
      co_await cluster_.flows().transfer(
          cluster_.service_path(plan.lead, /*is_write=*/true), cow);
    }
    co_await run_data_flows(extents, /*is_write=*/true);
    handle.array->write(offset, data, len, write_epoch, retain);
    handle.array->object_lock().unlock();
  } else {
    const Bytes cow = handle.array->pending_cow_bytes(write_epoch, retain);
    if (cow > 0) {
      co_await cluster_.flows().transfer(
          cluster_.service_path(plan.lead, /*is_write=*/true), cow);
    }
    co_await run_data_flows(extents, /*is_write=*/true);
    handle.array->write(offset, data, len, write_epoch, retain);
  }
  handle.container->array_io_exit(/*is_write=*/true, cluster_.scheduler().now());

  ++stats_.array_writes;
  stats_.bytes_written += len;
  co_return Status::ok();
}

sim::Task<Result<Bytes>> Client::array_read(ArrayHandle& handle, Bytes offset, std::uint8_t* out,
                                            Bytes len) {
  obs::Span span("array_read", "daos", actor_, trace_iteration_, static_cast<double>(len));
  if (!handle.valid()) throw std::logic_error("array_read on closed handle");
  if (len == 0) co_return Bytes{0};
  const ModelConfig& m = cluster_.model();

  // Only the bytes that exist (at the handle's epoch) are transferred.
  const Bytes at_epoch = handle.array->size(handle.epoch);
  const Bytes available = at_epoch > offset ? at_epoch - offset : 0;
  const Bytes to_read = std::min(len, available);
  if (to_read == 0) co_return Bytes{0};
  const auto plan = plan_array_io(handle.oid, offset, to_read, /*is_write=*/false, handle.lead_target);
  if (!plan.status.is_ok()) co_return plan.status;
  if (plan.degraded) cluster_.pool_map().note_degraded_read();
  const auto& extents = plan.extents;

  const auto fanout =
      static_cast<sim::Duration>(extents.size() > 1 ? (extents.size() - 1) * m.stripe_fanout_overhead : 0);
  co_await rpc(plan.lead, m.array_io_overhead + fanout);
  if (Status fault = co_await fault_check(plan.lead); !fault.is_ok()) co_return fault;
  if (cluster_.inject_io_failure()) {
    co_return Status::error(Errc::io_error, "injected array read failure");
  }
  co_await container_indirection(handle.container, plan.lead, /*is_write=*/false);
  // EC reconstruction: the engine reads k surviving shards and re-derives
  // the missing member's bytes before shipping them (docs/FAULTS.md).
  if (plan.decode_bytes > 0) {
    co_await cluster_.flows().transfer(
        cluster_.service_path(plan.lead, /*is_write=*/false),
        static_cast<Bytes>(static_cast<double>(plan.decode_bytes) * m.ec_decode_service_factor));
  }

  Bytes n = 0;
  handle.container->array_io_enter(/*is_write=*/false);
  if (m.array_conflict_serialization) {
    co_await handle.array->object_lock().lock();
    co_await run_data_flows(extents, /*is_write=*/false);
    n = handle.array->read(offset, out, to_read, handle.epoch);
    handle.array->object_lock().unlock();
  } else {
    co_await run_data_flows(extents, /*is_write=*/false);
    n = handle.array->read(offset, out, to_read, handle.epoch);
  }
  handle.container->array_io_exit(/*is_write=*/false, cluster_.scheduler().now());

  ++stats_.array_reads;
  stats_.bytes_read += n;
  co_return n;
}

sim::Task<Status> Client::array_destroy(ContHandle cont, const ObjectId& oid) {
  obs::Span span("array_destroy", "daos", actor_, trace_iteration_);
  if (!cont.valid()) throw std::logic_error("array_destroy on closed container handle");
  if (cont.pinned()) co_return Status::error(Errc::invalid, "array_destroy on a snapshot handle");
  const ModelConfig& m = cluster_.model();
  const auto routed = lead_target(oid);
  if (!routed.is_ok()) co_return routed.status();
  const std::size_t lead = routed.value();
  co_await rpc(lead, m.array_create_overhead);  // punch is create-priced
  if (Status fault = co_await fault_check(lead); !fault.is_ok()) co_return fault;
  auto destroyed = cont.container->destroy_array(oid);
  if (!destroyed.is_ok()) co_return destroyed.status();
  for (const auto& [region, allocation] : destroyed.value()->allocations()) {
    cluster_.release_capacity(region, allocation);
  }
  co_return Status::ok();
}

sim::Task<Bytes> Client::array_get_size(ArrayHandle& handle) {
  if (!handle.valid()) throw std::logic_error("array_get_size on closed handle");
  co_await rpc(handle.lead_target, cluster_.model().array_open_overhead);
  co_return handle.array->size(handle.epoch);
}

sim::Task<Status> Client::array_set_size(ArrayHandle& handle, Bytes size) {
  obs::Span span("array_set_size", "daos", actor_, trace_iteration_, static_cast<double>(size));
  if (!handle.valid()) throw std::logic_error("array_set_size on closed handle");
  if (handle.pinned()) {
    co_return Status::error(Errc::invalid, "array_set_size through a snapshot handle");
  }
  const ModelConfig& m = cluster_.model();
  co_await rpc(handle.lead_target, m.array_open_overhead);
  if (Status fault = co_await fault_check(handle.lead_target); !fault.is_ok()) co_return fault;
  co_await container_indirection(handle.container, handle.lead_target, /*is_write=*/true);

  if (size > handle.array->size()) {
    auto charged = cluster_.charge_capacity(handle.lead_target, size - handle.array->size());
    if (!charged.is_ok()) co_return charged.status();
    handle.array->note_allocation(charged.value().first, charged.value().second);
  }

  const Epoch write_epoch = handle.container->write_epoch();
  const bool retain = handle.container->retains_superseded();
  co_await handle.array->object_lock().lock();
  const Bytes cow = handle.array->pending_cow_bytes(write_epoch, retain);
  if (cow > 0) {
    co_await cluster_.flows().transfer(
        cluster_.service_path(handle.lead_target, /*is_write=*/true), cow);
  }
  handle.array->truncate(size, write_epoch, retain);
  handle.array->object_lock().unlock();
  co_return Status::ok();
}

sim::Task<void> Client::array_close(ArrayHandle& handle) {
  obs::Span span("array_close", "daos", actor_, trace_iteration_);
  handle.array = nullptr;
  co_await cluster_.scheduler().delay(cluster_.model().array_close_overhead);
}

}  // namespace nws::daos
