// Epoch/MVCC semantics of the store (docs/EPOCHS.md).
//
// The core of the suite is property-based: randomly interleaved
// put/remove/array-write/commit/snapshot-open/read/close schedules are run
// against a reference model, asserting snapshot isolation (a pinned epoch
// always reads the state recorded at its commit), epoch monotonicity and the
// retention bound on version chains.  Schedules are seeded and replayable:
//
//   NWS_EPOCH_SEED=<n>   base seed (default below); a failure report names
//                        the exact per-schedule seed to re-run
//   NWS_EPOCH_COUNT=<n>  number of schedules (default 40)
//
// Deterministic companions cover the error surface (uncommitted / aggregated
// / retention-0 snapshots), the digest-exactness regression versioning fixed,
// the client-level epoch API, FieldIo commit/pin round-trips in every mode
// and epoch-filtered catalogue listing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/objects.h"
#include "fdb/catalogue.h"
#include "fdb/field_io.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"

namespace nws {
namespace {

using daos::Container;
using daos::Epoch;
using daos::kEpochLatest;
using daos::ObjectClass;
using daos::ObjectId;
using daos::ObjectType;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  // NWSLINT(allow:determinism): replay-knob helper; every call site passes an NWS_* literal
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Property-based schedules against a reference model.
// ---------------------------------------------------------------------------

/// Committed state recorded at one publication epoch.
struct CommittedState {
  std::map<std::string, std::string> kv;
  Bytes array_size = 0;
  std::uint64_t array_checksum = 0;
  bool array_written = false;
};

struct ScheduleHarness {
  sim::Scheduler sched;  // never run: direct functional calls only
  Container cont;
  daos::KvObject* kv;
  daos::ArrayObject* arr;
  Rng rng;
  std::size_t retention;

  std::map<std::string, std::string> live;          // expected head KV state
  std::map<Epoch, CommittedState> committed;        // recorded at each commit
  std::map<Epoch, int> open_snapshots;              // refcounts we hold
  std::vector<std::uint8_t> array_bytes;            // expected head contents
  std::uint64_t value_counter = 0;
  std::uint64_t commits = 0;

  ScheduleHarness(std::uint64_t seed, std::size_t retention_depth)
      : cont(sched, daos::Uuid{seed, 0x45504f43ull}, false, 4, retention_depth), rng(seed),
        retention(retention_depth) {
    kv = &cont.kv(ObjectId::generate(1, 1, ObjectType::key_value, ObjectClass::SX));
    arr = cont.create_array(ObjectId::generate(1, 2, ObjectType::array, ObjectClass::S1), 1, 1_KiB,
                            daos::PayloadMode::full)
              .value();
  }

  std::string random_key() { return "key" + std::to_string(rng.next_below(6)); }

  void op_put() {
    const std::string key = random_key();
    const std::string value = std::to_string(value_counter++).insert(0, 1, 'v');
    kv->put(key, value, cont.write_epoch());
    live[key] = value;
  }

  void op_remove() {
    const std::string key = random_key();
    const Status st = kv->remove(key, cont.write_epoch());
    if (live.count(key) != 0) {
      EXPECT_TRUE(st.is_ok()) << st.message();
      live.erase(key);
    } else {
      EXPECT_EQ(st.code(), Errc::not_found);
    }
  }

  void op_array_write() {
    const Bytes size = 256 + 64 * rng.next_below(16);
    std::vector<std::uint8_t> payload(size);
    const auto fill = static_cast<std::uint8_t>(rng.next_below(256));
    for (Bytes i = 0; i < size; ++i) payload[i] = static_cast<std::uint8_t>(fill + i);
    arr->write(0, payload.data(), size, cont.write_epoch(), cont.retains_superseded());
    // Arrays never truncate: a shorter re-write overlays the front and keeps
    // the tail (size is the high-water mark).
    if (array_bytes.size() < size) array_bytes.resize(size, 0);
    std::copy(payload.begin(), payload.end(), array_bytes.begin());
  }

  void op_commit() {
    const Epoch before = cont.committed_epoch();
    const Epoch epoch = cont.commit();
    ++commits;
    EXPECT_EQ(epoch, before + 1) << "commit must advance the epoch by exactly one";
    EXPECT_EQ(cont.write_epoch(), epoch + 1);
    CommittedState state;
    state.kv = live;
    if (!array_bytes.empty()) {
      state.array_written = true;
      state.array_size = array_bytes.size();
      state.array_checksum = daos::fnv1a(array_bytes.data(), array_bytes.size());
    }
    committed[epoch] = std::move(state);
    check_retention_bound();
  }

  void op_snapshot_open() {
    if (cont.committed_epoch() == 0) return;
    const Epoch epoch = 1 + rng.next_below(cont.committed_epoch());
    const Result<Epoch> opened = cont.snapshot_open(epoch);
    if (opened.is_ok()) {
      EXPECT_EQ(opened.value(), epoch);
      ++open_snapshots[epoch];
      verify_snapshot(epoch);
    } else {
      EXPECT_EQ(opened.status().code(), Errc::not_found);
      // Epochs inside the retention window can never have been aggregated.
      EXPECT_LE(epoch + retention, cont.committed_epoch())
          << "epoch " << epoch << " aggregated away inside the retention window";
    }
  }

  void op_snapshot_close() {
    if (open_snapshots.empty()) return;
    auto it = open_snapshots.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(open_snapshots.size())));
    verify_snapshot(it->first);  // still intact at the moment of release
    cont.snapshot_close(it->first);
    if (--it->second == 0) open_snapshots.erase(it);
  }

  /// Snapshot isolation: a pinned epoch reads exactly its recorded state no
  /// matter how many writes and commits happened since.
  void verify_snapshot(Epoch epoch) {
    const CommittedState& expected = committed.at(epoch);
    for (int k = 0; k < 6; ++k) {
      const std::string key = "key" + std::to_string(k);
      const auto want = expected.kv.find(key);
      EXPECT_EQ(kv->contains(key, epoch), want != expected.kv.end())
          << key << " visibility at epoch " << epoch;
      if (want != expected.kv.end()) {
        const Result<std::string> got = kv->get(key, epoch);
        ASSERT_TRUE(got.is_ok()) << key << " at epoch " << epoch << ": " << got.status().message();
        EXPECT_EQ(got.value(), want->second) << key << " torn at epoch " << epoch;
      }
    }
    std::vector<std::string> expected_keys;
    for (const auto& [k, v] : expected.kv) expected_keys.push_back(k);
    EXPECT_EQ(kv->list(epoch), expected_keys);
    if (expected.array_written) {
      EXPECT_EQ(arr->size(epoch), expected.array_size);
      EXPECT_EQ(arr->checksum(epoch), expected.array_checksum)
          << "array bytes torn at epoch " << epoch;
    } else {
      EXPECT_FALSE(arr->exists_at(epoch));
    }
  }

  /// Retention bound: right after a commit no key retains more versions than
  /// the aggregation floor allows.  The floor is at least
  /// min(committed - retention, oldest open snapshot).
  void check_retention_bound() {
    Epoch floor = cont.committed_epoch() > retention ? cont.committed_epoch() - retention : 0;
    if (!open_snapshots.empty()) floor = std::min(floor, open_snapshots.begin()->first);
    const std::size_t bound = static_cast<std::size_t>(cont.committed_epoch() - floor) + 1;
    for (int k = 0; k < 6; ++k) {
      EXPECT_LE(kv->version_count("key" + std::to_string(k)), bound);
    }
    EXPECT_LE(arr->version_count(), bound);
  }

  void run(std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      switch (rng.next_below(10)) {
        case 0: case 1: op_put(); break;
        case 2: op_remove(); break;
        case 3: case 4: op_array_write(); break;
        case 5: case 6: op_commit(); break;
        case 7: op_snapshot_open(); break;
        case 8: op_snapshot_close(); break;
        default:
          // Live (unpinned) reads see the head, uncommitted writes included.
          for (const auto& [key, value] : live) {
            const Result<std::string> got = kv->get(key, kEpochLatest);
            ASSERT_TRUE(got.is_ok());
            EXPECT_EQ(got.value(), value);
          }
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
      // Every open snapshot stays readable while the head moves on.
      for (const auto& [epoch, refs] : open_snapshots) verify_snapshot(epoch);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: released pins free the floor; accounting must balance.
    while (!open_snapshots.empty()) op_snapshot_close();
    const daos::EpochStats& stats = cont.epoch_stats();
    EXPECT_EQ(stats.commits, commits);
    EXPECT_EQ(stats.snapshots_released, stats.snapshots_opened);
    if (stats.bytes_reclaimed > 0) {
      EXPECT_GT(stats.versions_pruned, 0u);
    }
  }
};

TEST(EpochPropertyTest, RandomSchedulesPreserveSnapshotIsolation) {
  const std::uint64_t base_seed = env_u64("NWS_EPOCH_SEED", 20260808);
  const std::uint64_t schedules = env_u64("NWS_EPOCH_COUNT", 40);
  for (std::uint64_t s = 0; s < schedules; ++s) {
    const std::uint64_t seed = base_seed + s;
    SCOPED_TRACE("schedule seed " + std::to_string(seed) +
                 " (replay: NWS_EPOCH_SEED=" + std::to_string(seed) + " NWS_EPOCH_COUNT=1)");
    // Sweep the retention depth with the schedule: 1..4 plus the pin-heavy 8.
    const std::size_t retention = s % 5 == 4 ? 8 : 1 + s % 4;
    ScheduleHarness harness(seed, retention);
    harness.run(80);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Deterministic error surface and retention mechanics.
// ---------------------------------------------------------------------------

TEST(EpochContainerTest, SnapshotOpenErrorSurface) {
  sim::Scheduler sched;
  Container cont(sched, daos::Uuid{1, 2}, false, 4, 1);
  EXPECT_EQ(cont.snapshot_open(1).status().code(), Errc::invalid);  // uncommitted
  EXPECT_EQ(cont.commit(), 1u);
  EXPECT_EQ(cont.snapshot_open(2).status().code(), Errc::invalid);
  EXPECT_EQ(cont.snapshot_open(kEpochLatest).value(), 1u);
  cont.snapshot_close(1);
  for (Epoch e = 2; e <= 5; ++e) EXPECT_EQ(cont.commit(), e);
  // Retention 1 with head at 5: epoch 1 fell out of the window long ago.
  EXPECT_EQ(cont.snapshot_open(1).status().code(), Errc::not_found);
  EXPECT_EQ(cont.snapshot_open(5).value(), 5u);
  cont.snapshot_close(5);
}

TEST(EpochContainerTest, RetentionZeroRecyclesInPlace) {
  sim::Scheduler sched;
  Container cont(sched, daos::Uuid{1, 3}, false, 4, 0);
  EXPECT_EQ(cont.snapshot_open(kEpochLatest).status().code(), Errc::unsupported);
  daos::ArrayObject* arr =
      cont.create_array(ObjectId::generate(1, 1, ObjectType::array, ObjectClass::S1), 1, 1_KiB,
                        daos::PayloadMode::full)
          .value();
  std::vector<std::uint8_t> payload(512, 0xab);
  for (int i = 0; i < 5; ++i) {
    const Bytes cow =
        arr->write(0, payload.data(), payload.size(), cont.write_epoch(), cont.retains_superseded());
    EXPECT_EQ(cow, 0u) << "retention 0 must never copy-on-write";
    cont.commit();
  }
  EXPECT_EQ(arr->version_count(), 1u) << "superseded versions must be recycled in place";
  EXPECT_EQ(cont.epoch_stats().cow_bytes, 0u);
}

TEST(EpochContainerTest, AggregationStillDropsARemoveAfterSkippingACleanKv) {
  // Aggregation skips a KV whose keys each hold one live version; a later
  // remove must still be aggregated away with the version it hid.
  sim::Scheduler sched;
  Container cont(sched, daos::Uuid{1, 5}, false, 4, 1);
  daos::KvObject& kv = cont.kv(ObjectId::generate(1, 1, ObjectType::key_value, ObjectClass::SX));
  kv.put("k", "v", cont.write_epoch());
  kv.put("j", "v", cont.write_epoch());
  for (Epoch e = 1; e <= 3; ++e) EXPECT_EQ(cont.commit(), e);
  EXPECT_EQ(cont.epoch_stats().versions_pruned, 0u);
  EXPECT_TRUE(kv.remove("k", cont.write_epoch()).is_ok());
  for (Epoch e = 4; e <= 6; ++e) EXPECT_EQ(cont.commit(), e);
  EXPECT_EQ(kv.version_count("k"), 0u);
  EXPECT_EQ(kv.version_count("j"), 1u);
  EXPECT_EQ(cont.epoch_stats().versions_pruned, 2u);
  // A lone tombstone above the floor survives one pass and goes in the next.
  kv.put("x", "v", cont.write_epoch());
  EXPECT_TRUE(kv.remove("x", cont.write_epoch()).is_ok());
  for (Epoch e = 7; e <= 8; ++e) EXPECT_EQ(cont.commit(), e);
  EXPECT_EQ(kv.version_count("x"), 0u);
  EXPECT_EQ(cont.epoch_stats().versions_pruned, 3u);
}

TEST(EpochContainerTest, OpenSnapshotHoldsTheAggregationFloor) {
  sim::Scheduler sched;
  Container cont(sched, daos::Uuid{1, 4}, false, 4, 1);
  daos::KvObject& kv = cont.kv(ObjectId::generate(1, 1, ObjectType::key_value, ObjectClass::SX));
  kv.put("k", "epoch1", cont.write_epoch());
  EXPECT_EQ(cont.commit(), 1u);
  const Epoch pinned = cont.snapshot_open(1).value();
  for (Epoch e = 2; e <= 8; ++e) {
    kv.put("k", "epoch" + std::to_string(e), cont.write_epoch());
    EXPECT_EQ(cont.commit(), e);
    // The pin keeps its version readable far outside the retention window.
    EXPECT_EQ(kv.get("k", pinned).value(), "epoch1");
  }
  EXPECT_GT(kv.version_count("k"), 2u);  // the pin held aggregation back
  cont.snapshot_close(pinned);
  // Floor released: the chain collapses to the retention window.
  EXPECT_LE(kv.version_count("k"), 2u);
  EXPECT_EQ(cont.snapshot_open(1).status().code(), Errc::not_found);
  EXPECT_GT(cont.epoch_stats().versions_pruned, 0u);
  EXPECT_GT(cont.epoch_stats().bytes_reclaimed, 0u);
}

// Regression (this PR): an in-flight partial re-write used to fold the
// whole object's digest inexact in place, so a committed version lost its
// exact whole-object checksum.  Versioning isolates the committed version.
TEST(EpochDigestTest, CommittedDigestStaysExactAcrossPartialRewrite) {
  sim::Scheduler sched;
  Container cont(sched, daos::Uuid{1, 5}, false, 4, 2);
  daos::ArrayObject* arr =
      cont.create_array(ObjectId::generate(1, 1, ObjectType::array, ObjectClass::S1), 1, 1_KiB,
                        daos::PayloadMode::digest)
          .value();
  // Whole-object write, committed: digest is exact.
  std::vector<std::uint8_t> whole(4_KiB, 0x5a);
  arr->write(0, whole.data(), whole.size(), cont.write_epoch(), cont.retains_superseded());
  const Epoch published = cont.commit();
  ASSERT_TRUE(arr->checksum_exact(published));
  const std::uint64_t exact = arr->checksum(published);
  EXPECT_EQ(exact, daos::fnv1a(whole.data(), whole.size()));
  // In-flight partial re-write in the middle: only the *pending* version's
  // digest turns inexact; the committed epoch keeps the exact one.
  std::vector<std::uint8_t> patch(512, 0xc3);
  arr->write(1_KiB, patch.data(), patch.size(), cont.write_epoch(), cont.retains_superseded());
  EXPECT_FALSE(arr->checksum_exact(kEpochLatest));
  EXPECT_TRUE(arr->checksum_exact(published));
  EXPECT_EQ(arr->checksum(published), exact);
  EXPECT_EQ(arr->size(published), 4_KiB);
}

// ---------------------------------------------------------------------------
// Client-level epoch API (coroutine paths, RPC timing attached).
// ---------------------------------------------------------------------------

struct ClientFixture {
  sim::Scheduler sched;
  std::unique_ptr<daos::Cluster> cluster;

  explicit ClientFixture(daos::PayloadMode mode = daos::PayloadMode::full,
                         std::size_t retention = 2) {
    daos::ClusterConfig cfg = bench::testbed_config(1, 1);
    cfg.payload_mode = mode;
    cfg.model.epoch_retention_depth = retention;
    cluster = std::make_unique<daos::Cluster>(sched, cfg);
  }

  template <typename Body>
  void run(Body body) {
    auto proc = [](daos::Cluster& cl, Body b) -> sim::Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 0);
      co_await b(client);
    };
    sched.spawn(proc(*cluster, std::move(body)));
    sched.run();
  }
};

TEST(ClientEpochTest, CommitSnapshotReadRoundtrip) {
  ClientFixture fx;
  fx.run([](daos::Client& c) -> sim::Task<void> {
    daos::ContHandle cont = co_await c.main_cont_open();
    daos::KvHandle kv =
        co_await c.kv_open(cont, ObjectId::generate(7, 1, ObjectType::key_value, ObjectClass::SX));
    (co_await c.kv_put(kv, "state", "first")).expect_ok("put");
    const Epoch e1 = (co_await c.cont_commit(cont)).value();
    EXPECT_EQ(e1, 1u);
    EXPECT_EQ((co_await c.cont_committed_epoch(cont)).value(), e1);

    daos::ContHandle snap = (co_await c.cont_snapshot(cont)).value();
    EXPECT_TRUE(snap.pinned());
    EXPECT_EQ(snap.epoch, e1);
    daos::KvHandle pinned_kv = co_await c.kv_open(snap, kv.oid);
    EXPECT_TRUE(pinned_kv.pinned());

    // Overwrite and publish a second state; the pin must not move.
    (co_await c.kv_put(kv, "state", "second")).expect_ok("put");
    const Epoch e2 = (co_await c.cont_commit(cont)).value();
    EXPECT_EQ(e2, e1 + 1);
    EXPECT_EQ((co_await c.kv_get(pinned_kv, "state")).value(), "first");
    EXPECT_EQ((co_await c.kv_get(kv, "state")).value(), "second");

    (co_await c.snapshot_close(snap)).expect_ok("close");
    EXPECT_FALSE(snap.valid());
    co_return;
  });
}

TEST(ClientEpochTest, PinnedArrayReadsSeeTheirEpochOnly) {
  ClientFixture fx;
  fx.run([](daos::Client& c) -> sim::Task<void> {
    daos::ContHandle cont = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(7, 2, ObjectType::array, ObjectClass::S1);
    daos::ArrayHandle arr = (co_await c.array_create(cont, oid, 1, 1_MiB)).value();
    std::vector<std::uint8_t> v1(4096, 0x11), v2(4096, 0x22);
    (co_await c.array_write(arr, 0, v1.data(), v1.size())).expect_ok("write v1");
    const Epoch e1 = (co_await c.cont_commit(cont)).value();

    daos::ContHandle snap = (co_await c.cont_snapshot(cont, e1)).value();
    daos::ArrayHandle pinned = (co_await c.array_open(snap, oid)).value();
    // Writes through a pinned handle are rejected; snapshots are read-only.
    EXPECT_EQ((co_await c.array_write(pinned, 0, v2.data(), v2.size())).code(), Errc::invalid);

    (co_await c.array_write(arr, 0, v2.data(), v2.size())).expect_ok("write v2");
    std::vector<std::uint8_t> got(4096);
    EXPECT_EQ((co_await c.array_read(pinned, 0, got.data(), got.size())).value(), got.size());
    EXPECT_EQ(got, v1) << "pinned read observed bytes from a later epoch";
    EXPECT_EQ((co_await c.array_read(arr, 0, got.data(), got.size())).value(), got.size());
    EXPECT_EQ(got, v2);
    (co_await c.snapshot_close(snap)).expect_ok("close");
    co_return;
  });
}

// ---------------------------------------------------------------------------
// FieldIo commit/pin round-trips, every layout mode.
// ---------------------------------------------------------------------------

fdb::FieldKey field_key(int step) {
  fdb::FieldKey key;
  key.set("class", "od").set("date", "20260808").set("time", "0000");
  key.set("param", "t").set("step", std::to_string(step));
  return key;
}

class FieldIoEpochModes : public ::testing::TestWithParam<fdb::Mode> {};

TEST_P(FieldIoEpochModes, CommitPinReadRoundtrip) {
  ClientFixture fx(daos::PayloadMode::full);
  const fdb::Mode mode = GetParam();
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    fdb::FieldIoConfig cfg;
    cfg.mode = mode;
    fdb::FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    const fdb::FieldKey key = field_key(0);
    const Bytes size = 64_KiB;
    const std::vector<std::uint8_t> v1 = bench::make_versioned_payload(key.canonical(), size, 1);
    const std::vector<std::uint8_t> v2 = bench::make_versioned_payload(key.canonical(), size, 2);

    (co_await io.write(key, v1.data(), size)).expect_ok("write v1");
    const Epoch e1 = (co_await io.commit(key)).value();
    EXPECT_EQ((co_await io.committed_epoch(key)).value(), e1);

    EXPECT_EQ((co_await io.pin_snapshot(key)).value(), e1);
    EXPECT_TRUE(io.pinned(key));
    // Next version streams in and is published while the pin is held.
    (co_await io.write(key, v2.data(), size)).expect_ok("write v2");
    const Epoch e2 = (co_await io.commit(key)).value();
    EXPECT_GT(e2, e1);

    std::vector<std::uint8_t> got(size);
    EXPECT_EQ((co_await io.read(key, got.data(), size)).value(), size);
    EXPECT_EQ(bench::versioned_payload_version(got.data(), size, key.canonical()), 1)
        << "pinned read must observe the pinned publication, torn-free";
    EXPECT_EQ(got, v1);

    (co_await io.unpin_snapshot(key)).expect_ok("unpin");
    EXPECT_FALSE(io.pinned(key));
    EXPECT_EQ((co_await io.read(key, got.data(), size)).value(), size);
    EXPECT_EQ(bench::versioned_payload_version(got.data(), size, key.canonical()), 2);
    EXPECT_EQ(io.stats().commits, 2u);
    EXPECT_EQ(io.stats().snapshot_pins, 1u);
    co_return;
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, FieldIoEpochModes,
                         ::testing::Values(fdb::Mode::full, fdb::Mode::no_containers,
                                           fdb::Mode::no_index),
                         [](const auto& mode_info) {
                           std::string name = fdb::mode_name(mode_info.param);
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(FieldIoEpochTest, PinRequiresACommittedForecast) {
  ClientFixture fx(daos::PayloadMode::digest);
  fx.run([](daos::Client& client) -> sim::Task<void> {
    fdb::FieldIo io(client, fdb::FieldIoConfig{}, 0);
    (co_await io.init()).expect_ok("init");
    // Unknown forecast: nothing to pin.
    EXPECT_FALSE((co_await io.pin_snapshot(field_key(0))).is_ok());
    EXPECT_FALSE((co_await io.committed_epoch(field_key(0))).is_ok());
    co_return;
  });
}

// ---------------------------------------------------------------------------
// Epoch-filtered catalogue listing.
// ---------------------------------------------------------------------------

TEST(CatalogueEpochTest, ListFieldsAtSeesOnlyPublishedFields) {
  ClientFixture fx(daos::PayloadMode::digest);
  fx.run([](daos::Client& client) -> sim::Task<void> {
    fdb::FieldIoConfig cfg;  // full mode
    fdb::FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    (co_await io.write(field_key(0), nullptr, 1_MiB)).expect_ok("write step 0");
    const Epoch e1 = (co_await io.commit(field_key(0))).value();
    (co_await io.write(field_key(1), nullptr, 1_MiB)).expect_ok("write step 1");
    const Epoch e2 = (co_await io.commit(field_key(1))).value();
    (co_await io.write(field_key(2), nullptr, 1_MiB)).expect_ok("write step 2");  // unpublished

    fdb::Catalogue catalogue(client, cfg);
    (co_await catalogue.init()).expect_ok("catalogue init");
    const std::string forecast = field_key(0).most_significant();
    EXPECT_EQ((co_await catalogue.list_fields(forecast)).value().size(), 3u);
    EXPECT_EQ((co_await catalogue.list_fields_at(forecast, e1)).value().size(), 1u);
    EXPECT_EQ((co_await catalogue.list_fields_at(forecast, e2)).value().size(), 2u);
    // kEpochLatest: the newest *committed* publication — step 2 is invisible.
    EXPECT_EQ((co_await catalogue.list_fields_at(forecast)).value().size(), 2u);
    EXPECT_EQ((co_await catalogue.list_fields_at("'class': 'xx'")).status().code(),
              Errc::not_found);
    co_return;
  });
}

TEST(CatalogueEpochTest, ListFieldsAtUnsupportedWithoutRetention) {
  ClientFixture fx(daos::PayloadMode::digest, /*retention=*/0);
  fx.run([](daos::Client& client) -> sim::Task<void> {
    fdb::FieldIoConfig cfg;
    cfg.mode = fdb::Mode::no_containers;
    fdb::FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    (co_await io.write(field_key(0), nullptr, 1_MiB)).expect_ok("write");
    EXPECT_TRUE((co_await io.commit(field_key(0))).is_ok());
    fdb::Catalogue catalogue(client, cfg);
    (co_await catalogue.init()).expect_ok("catalogue init");
    EXPECT_EQ((co_await catalogue.list_fields_at(field_key(0).most_significant())).status().code(),
              Errc::unsupported);
    co_return;
  });
}

}  // namespace
}  // namespace nws
