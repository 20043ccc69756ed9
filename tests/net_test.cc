// Unit and property tests for the flow-level network model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/flow.h"
#include "net/provider.h"
#include "net/topology.h"
#include "sim/scheduler.h"

namespace nws::net {
namespace {

using nws::operator""_MiB;
using nws::operator""_KiB;

struct Fixture {
  sim::Scheduler sched;
  FlowScheduler flows{sched};
};

Link plain_link(const std::string& name, double capacity) {
  Link l;
  l.name = name;
  l.raw_capacity = capacity;
  return l;
}

sim::Task<void> run_transfer(FlowScheduler& fs, std::vector<LinkId> path, nws::Bytes bytes, double cap,
                             sim::TimePoint* done_at, sim::Scheduler* sched) {
  co_await fs.transfer(std::move(path), bytes, cap);
  *done_at = sched->now();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EfficiencyCurveTest, InterpolatesAndClamps) {
  const EfficiencyCurve c({{1, 10.0}, {3, 20.0}, {5, 30.0}});
  EXPECT_DOUBLE_EQ(c.evaluate(0.5), 10.0);
  EXPECT_DOUBLE_EQ(c.evaluate(1), 10.0);
  EXPECT_DOUBLE_EQ(c.evaluate(2), 15.0);
  EXPECT_DOUBLE_EQ(c.evaluate(4), 25.0);
  EXPECT_DOUBLE_EQ(c.evaluate(9), 30.0);
}

TEST(EfficiencyCurveTest, RejectsUnsortedPoints) {
  EXPECT_THROW(EfficiencyCurve({{2, 1.0}, {1, 2.0}}), std::invalid_argument);
}

TEST(EfficiencyCurveTest, EmptyEvaluateThrows) {
  const EfficiencyCurve c;
  EXPECT_THROW((void)c.evaluate(1), std::logic_error);
}

TEST(FlowSchedulerTest, SingleFlowUsesFullLink) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));  // 100 B/s
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(10.0));
  EXPECT_EQ(fx.flows.stats().flows_completed, 1u);
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0);
}

TEST(FlowSchedulerTest, TwoFlowsShareFairly) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &b, &fx.sched));
  fx.sched.run();
  // Both at 50 B/s -> 20 s.
  EXPECT_EQ(a, sim::seconds(20.0));
  EXPECT_EQ(b, sim::seconds(20.0));
}

TEST(FlowSchedulerTest, ShortFlowReleasesBandwidthToLongFlow) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint small = -1;
  sim::TimePoint large = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 500, kInf, &small, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1500, kInf, &large, &fx.sched));
  fx.sched.run();
  // Phase 1: both at 50 B/s for 10 s (small done, large has 1000 left).
  // Phase 2: large at 100 B/s for 10 s.
  EXPECT_EQ(small, sim::seconds(10.0));
  EXPECT_EQ(large, sim::seconds(20.0));
}

TEST(FlowSchedulerTest, PerFlowCapHonoured) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, 10.0, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(100.0));
}

TEST(FlowSchedulerTest, MaxMinRedistributesCappedHeadroom) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint capped = -1;
  sim::TimePoint open1 = -1;
  sim::TimePoint open2 = -1;
  // Capped flow takes 10 B/s; the two open flows split the remaining 90.
  fx.sched.spawn(run_transfer(fx.flows, {link}, 100, 10.0, &capped, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 450, kInf, &open1, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 450, kInf, &open2, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(capped, sim::seconds(10.0));
  EXPECT_EQ(open1, sim::seconds(10.0));
  EXPECT_EQ(open2, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, MultiLinkBottleneck) {
  Fixture fx;
  const LinkId fat = fx.flows.add_link(plain_link("fat", 1000.0));
  const LinkId thin = fx.flows.add_link(plain_link("thin", 10.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {fat, thin}, 100, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, DisjointFlowsDoNotInterfere) {
  Fixture fx;
  const LinkId l1 = fx.flows.add_link(plain_link("l1", 100.0));
  const LinkId l2 = fx.flows.add_link(plain_link("l2", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {l1}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {l2}, 1000, kInf, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, DisjointArrivalsSkipFullSolve) {
  // Exact-regime fast path: an arrival whose links carry no other flow takes
  // its solo bottleneck rate without running the max-min solver, and a
  // departure that leaves its links empty needs no solve either.
  Fixture fx;
  const LinkId l1 = fx.flows.add_link(plain_link("l1", 100.0));
  const LinkId l2 = fx.flows.add_link(plain_link("l2", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {l1}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {l2}, 1000, 40.0, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(25.0));  // solo rate still honours the flow cap
  EXPECT_EQ(fx.flows.stats().rate_recomputations, 0u);
}

sim::Task<void> transfer_at(Fixture& fx, sim::TimePoint when, std::vector<LinkId> path,
                            nws::Bytes bytes, sim::TimePoint* done_at) {
  co_await fx.sched.delay(when - fx.sched.now());
  co_await fx.flows.transfer(std::move(path), bytes, kInf);
  *done_at = fx.sched.now();
}

TEST(FlowSchedulerTest, CoincidentArrivalAndCompletionSolveOnce) {
  // Regression: when start_flow's settle() also completes a flow at the same
  // instant, the combined change must be charged exactly ONE rate update, not
  // one for the completions plus one for the arrival.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  // B's wake-up timer is scheduled before A's completion timer, so at t=10s
  // B's start_flow runs first and its settle() sweeps up the just-finished A
  // (a shared departure: B is now on A's link).
  fx.sched.spawn(transfer_at(fx, sim::seconds(10.0), {link}, 500, &b));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &a, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(15.0));
  EXPECT_EQ(fx.flows.stats().flows_completed, 2u);
  // A's arrival and B's departure both hit fast paths; the only solve is the
  // coincident arrival+completion at t=10s.
  EXPECT_EQ(fx.flows.stats().rate_recomputations, 1u);
}

TEST(FlowSchedulerTest, EmptyPathCompletesImmediately) {
  Fixture fx;
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {}, 1000, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, 0);
}

TEST(FlowSchedulerTest, ZeroByteTransferCompletesImmediately) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 0, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, 0);
}

TEST(FlowSchedulerTest, InstantTransfersAreAccounted) {
  // Regression: the empty-path and zero-byte fast paths used to return
  // without touching FlowStats, so conservation checks (bytes requested ==
  // bytes delivered) failed whenever a model legitimately moved zero-cost
  // payloads.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 0, kInf, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(fx.flows.stats().flows_started, 2u);
  EXPECT_EQ(fx.flows.stats().flows_completed, 2u);
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0);
}

TEST(FlowSchedulerTest, UnknownLinkRejected) {
  Fixture fx;
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {42}, 10, kInf, &done, &fx.sched));
  EXPECT_THROW(fx.sched.run(), std::out_of_range);
}

TEST(FlowSchedulerTest, NonPositiveCapacityRejected) {
  Fixture fx;
  EXPECT_THROW(fx.flows.add_link(plain_link("bad", 0.0)), std::invalid_argument);
}

TEST(FlowSchedulerTest, EfficiencyCurveReducesAggregate) {
  Fixture fx;
  Link l = plain_link("nic", 125.0);
  // 1 stream: 31; 2 streams: 41 aggregate (mini Table 2 shape).
  l.efficiency = EfficiencyCurve({{1, 31.0}, {2, 41.0}});
  const LinkId link = fx.flows.add_link(std::move(l));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 310, kInf, &a, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));  // single stream at 31 B/s

  sim::Scheduler sched2;
  FlowScheduler flows2(sched2);
  Link l2 = plain_link("nic", 125.0);
  l2.efficiency = EfficiencyCurve({{1, 31.0}, {2, 41.0}});
  const LinkId link2 = flows2.add_link(std::move(l2));
  sched2.spawn(run_transfer(flows2, {link2}, 205, kInf, &a, &sched2));
  sched2.spawn(run_transfer(flows2, {link2}, 205, kInf, &b, &sched2));
  sched2.run();
  EXPECT_EQ(a, sim::seconds(10.0));  // two streams at 20.5 B/s each
  EXPECT_EQ(b, sim::seconds(10.0));
}

// Reference max-min fill: every round re-scans every unfrozen flow and its
// whole path (the solver before its incidence-driven rewrite).  The solver
// must reproduce these rates bit for bit.  1e-6 is the solver's saturation
// head-room (kRateEpsilon in flow.cc).
std::vector<double> reference_fill(const std::vector<Link>& links,
                                   const std::vector<std::vector<LinkId>>& paths,
                                   const std::vector<double>& caps) {
  const std::size_t n = paths.size();
  std::vector<std::size_t> unfrozen(links.size(), 0);
  for (const auto& path : paths) {
    for (const LinkId l : path) ++unfrozen[l];
  }
  std::vector<double> residual(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) residual[l] = links[l].effective_capacity(unfrozen[l]);
  std::vector<double> rate(n, 0.0);
  std::vector<char> frozen(n, 0);
  std::size_t n_frozen = 0;
  double level = 0.0;
  while (n_frozen < n) {
    double delta = kInf;
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (unfrozen[l] > 0) delta = std::min(delta, residual[l] / static_cast<double>(unfrozen[l]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) delta = std::min(delta, caps[i] - level);
    }
    if (delta < 0.0) delta = 0.0;
    level += delta;
    for (std::size_t l = 0; l < links.size(); ++l) residual[l] -= delta * static_cast<double>(unfrozen[l]);
    const std::size_t frozen_before = n_frozen;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      bool saturated = caps[i] - level <= 1e-6;
      for (const LinkId l : paths[i]) saturated = saturated || residual[l] <= 1e-6 * links[l].raw_capacity;
      if (!saturated) continue;
      frozen[i] = 1;
      ++n_frozen;
      rate[i] = level;
      for (const LinkId l : paths[i]) --unfrozen[l];
    }
    if (n_frozen == frozen_before) {  // numerical corner: the rest freeze at this level
      for (std::size_t i = 0; i < n; ++i) rate[i] = frozen[i] ? rate[i] : level;
      break;
    }
  }
  return rate;
}

sim::Task<void> hold_transfer(FlowScheduler& fs, std::vector<LinkId> path, double bytes, double cap) {
  co_await fs.transfer(std::move(path), static_cast<nws::Bytes>(bytes), cap);
}

// Bit-exactness property: random instances (1-4 link paths with repeated
// links, efficiency curves, finite and infinite caps, an outage on some)
// solved by the scheduler and by reference_fill must agree in every bit.
// Link-bound instances keep every cap slack; cap-bound ones draw caps below
// the links' fair shares, so most flows freeze at their caps.
void expect_fill_matches_reference(bool cap_bound) {
  std::size_t cap_frozen = 0;
  std::size_t link_frozen = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed * 2 + (cap_bound ? 1 : 0));
    Fixture fx;
    std::vector<Link> links;
    const std::size_t n_links = 1 + rng.next_below(12);
    for (std::size_t l = 0; l < n_links; ++l) {
      Link link = plain_link("l" + std::to_string(l), rng.uniform(1e8, 1e10));
      if (rng.next_below(3) == 0) {
        const double c = link.raw_capacity;
        link.efficiency = EfficiencyCurve({{1, 0.3 * c}, {4, rng.uniform(0.6, 0.9) * c}, {16, 1.2 * c}});
      }
      links.push_back(link);
      fx.flows.add_link(std::move(link));
    }
    const std::size_t n_flows = 1 + rng.next_below(40);
    std::vector<std::vector<LinkId>> paths(n_flows);
    std::vector<double> caps(n_flows);
    for (std::size_t i = 0; i < n_flows; ++i) {
      const std::size_t hops = 1 + rng.next_below(4);
      for (std::size_t h = 0; h < hops; ++h) paths[i].push_back(static_cast<LinkId>(rng.next_below(n_links)));
      if (i == 0) paths[i].push_back(paths[i].front());  // a link crossed twice
      if (cap_bound) {
        caps[i] = rng.next_below(5) == 0 ? kInf : rng.uniform(1e6, 2e8);
      } else {
        caps[i] = rng.next_below(2) == 0 ? kInf : 1e12;
      }
      fx.sched.spawn(hold_transfer(fx.flows, paths[i], 1e10, caps[i]));
    }
    while (fx.flows.active_flows() < n_flows) ASSERT_TRUE(fx.sched.step());

    // Setting a capacity factor forces one full solve over every flow.
    const auto touched = static_cast<LinkId>(rng.next_below(n_links));
    const bool outage = rng.next_below(4) == 0;
    links[touched].capacity_factor = outage ? 0.0 : 1.0;
    fx.flows.set_capacity_factor(touched, links[touched].capacity_factor);
    const std::vector<double> want = reference_fill(links, paths, caps);
    const std::vector<double> got = fx.flows.current_rates();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < n_flows; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "seed " << seed << " flow " << i << ": " << got[i] << " vs reference " << want[i];
      if (caps[i] - want[i] <= 1e-6) {
        ++cap_frozen;
      } else {
        ++link_frozen;
      }
    }
    fx.flows.set_capacity_factor(touched, 1.0);  // end any outage, then drain
    fx.sched.run();
    EXPECT_EQ(fx.flows.active_flows(), 0u);
  }
  // Each regime really exercised what it claims to.
  if (cap_bound) {
    EXPECT_GT(cap_frozen, link_frozen);
  } else {
    EXPECT_EQ(cap_frozen, 0u);
  }
}

TEST(MaxMinFillTest, LinkBoundMatchesReferenceBitForBit) { expect_fill_matches_reference(false); }

TEST(MaxMinFillTest, CapBoundMatchesReferenceBitForBit) { expect_fill_matches_reference(true); }

// Property sweep: N equal flows through one link must each get capacity/N
// (conservation + fairness), regardless of N.
class FlowFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairness, EqualFlowsSplitEqually) {
  const int n = GetParam();
  Fixture fx;
  fx.flows.set_lazy_recompute(std::numeric_limits<std::size_t>::max(), 1);  // exact solver
  const LinkId link = fx.flows.add_link(plain_link("l", 1000.0));
  std::vector<sim::TimePoint> done(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &done[static_cast<std::size_t>(i)], &fx.sched));
  }
  fx.sched.run();
  for (const auto t : done) EXPECT_EQ(t, sim::seconds(static_cast<double>(n)));
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0 * n);
  EXPECT_EQ(fx.flows.stats().peak_concurrent, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Widths, FlowFairness, ::testing::Values(1, 2, 3, 7, 16, 64, 256));

// The bounded-staleness mode must conserve bytes exactly and approximate
// the exact completion time closely.
TEST(FlowSchedulerTest, LazyRecomputeStaysCloseToExact) {
  auto run_with = [](std::size_t threshold) {
    sim::Scheduler sched;
    FlowScheduler flows(sched);
    flows.set_lazy_recompute(threshold, 12);
    const LinkId link = flows.add_link(plain_link("l", 1000.0));
    const int n = 400;
    auto done = std::make_shared<std::vector<sim::TimePoint>>(n, -1);
    for (int i = 0; i < n; ++i) {
      // Staggered arrivals so the flow set keeps churning.
      auto proc = [](sim::Scheduler& s, FlowScheduler& fs, LinkId l, sim::TimePoint* out,
                     int idx) -> sim::Task<void> {
        co_await s.delay(sim::milliseconds(static_cast<double>(idx)));
        std::vector<LinkId> path{l};
        co_await fs.transfer(std::move(path), 500, kInf);
        *out = s.now();
      };
      sched.spawn(proc(sched, flows, link, &(*done)[static_cast<std::size_t>(i)], i));
    }
    sched.run();
    double total = flows.stats().bytes_delivered;
    return std::pair<double, sim::TimePoint>(total, sched.now());
  };
  const auto exact = run_with(std::numeric_limits<std::size_t>::max());
  const auto lazy = run_with(64);
  EXPECT_DOUBLE_EQ(exact.first, lazy.first);  // bytes conserved exactly
  const double exact_t = static_cast<double>(exact.second);
  const double lazy_t = static_cast<double>(lazy.second);
  EXPECT_NEAR(lazy_t / exact_t, 1.0, 0.05);  // completion time within 5%
}

TEST(ProviderTest, TcpStreamCurveMatchesTable2Row) {
  const ProviderProfile tcp = tcp_provider();
  // Single-stream optimum ~3.1 GiB/s in the low-MiB range (Table 2 row 2).
  double best = 0.0;
  for (const nws::Bytes s : {256_KiB, 512_KiB, 1_MiB, 2_MiB, 4_MiB, 8_MiB, 16_MiB, 32_MiB}) {
    best = std::max(best, tcp.stream_rate_cap(s));
  }
  EXPECT_NEAR(to_gib_per_sec(best), 3.1, 0.15);
  // Large transfers are slower than the optimum.
  EXPECT_LT(tcp.stream_rate_cap(32_MiB), best);
  // Tiny transfers are latency-bound.
  EXPECT_LT(tcp.stream_rate_cap(64_KiB), 0.8 * best);
}

TEST(ProviderTest, Psm2StreamNearsAdapterLimit) {
  const ProviderProfile psm2 = psm2_provider();
  EXPECT_NEAR(to_gib_per_sec(psm2.stream_rate_cap(8_MiB)), 12.1, 0.2);
  EXPECT_LT(psm2.stream_rate_cap(8_MiB), gib_per_sec(12.5));
}

TEST(ProviderTest, TcpAggregateCurveMatchesTable2) {
  const ProviderProfile tcp = tcp_provider();
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(1)), 3.1, 0.01);
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(8)), 9.5, 0.01);
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(16)), 9.0, 0.01);
  // Degradation past 8 streams (Table 2: 16 pairs slower than 8).
  EXPECT_GT(to_gib_per_sec(tcp.nic_curve.evaluate(8)), to_gib_per_sec(tcp.nic_curve.evaluate(16)));
}

TEST(ProviderTest, LookupByName) {
  EXPECT_EQ(provider_by_name("tcp").name, "tcp");
  EXPECT_EQ(provider_by_name("psm2").name, "psm2");
  EXPECT_THROW(provider_by_name("verbs"), std::invalid_argument);
  EXPECT_FALSE(provider_by_name("psm2").supports_dual_rail);
  EXPECT_TRUE(provider_by_name("tcp").supports_dual_rail);
}

TEST(TopologyTest, PathsFollowRails) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);

  // Same rail: tx + rx only.
  const auto same_rail = topo.path({0, 0}, {1, 0});
  ASSERT_EQ(same_rail.size(), 2u);
  EXPECT_EQ(same_rail[0], topo.nic_tx({0, 0}));
  EXPECT_EQ(same_rail[1], topo.nic_rx({1, 0}));

  // Cross rail: enters on sender's rail, crosses destination UPI.
  const auto cross_rail = topo.path({0, 0}, {1, 1});
  ASSERT_EQ(cross_rail.size(), 3u);
  EXPECT_EQ(cross_rail[0], topo.nic_tx({0, 0}));
  EXPECT_EQ(cross_rail[1], topo.nic_rx({1, 0}));  // same-rail NIC on destination
  EXPECT_EQ(cross_rail[2], topo.upi(1));

  // Same node, different socket: UPI only, no fabric.
  const auto intra = topo.path({0, 0}, {0, 1});
  ASSERT_EQ(intra.size(), 1u);
  EXPECT_EQ(intra[0], topo.upi(0));

  // Same endpoint: no links.
  EXPECT_TRUE(topo.path({0, 1}, {0, 1}).empty());
}

TEST(TopologyTest, LatencyOrdering) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);
  EXPECT_LT(topo.latency({0, 0}, {0, 0}), topo.latency({0, 0}, {0, 1}));
  EXPECT_LT(topo.latency({0, 0}, {0, 1}), topo.latency({0, 0}, {1, 0}));
  EXPECT_LT(topo.latency({0, 0}, {1, 0}), topo.latency({0, 0}, {1, 1}));
}

TEST(TopologyTest, RejectsBadEndpoints) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 1;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);
  EXPECT_THROW((void)topo.nic_tx({1, 0}), std::out_of_range);
  EXPECT_THROW((void)topo.nic_tx({0, 2}), std::out_of_range);
}

TEST(TopologyTest, PsmLatencyBelowTcp) {
  sim::Scheduler s1;
  FlowScheduler f1(s1);
  TopologyConfig c1;
  c1.nodes = 2;
  c1.provider = tcp_provider();
  const Topology t1(f1, c1);

  sim::Scheduler s2;
  FlowScheduler f2(s2);
  TopologyConfig c2;
  c2.nodes = 2;
  c2.provider = psm2_provider();
  const Topology t2(f2, c2);

  EXPECT_LT(t2.latency({0, 0}, {1, 0}), t1.latency({0, 0}, {1, 0}));
}

// End-to-end sanity: a TCP transfer between two nodes should deliver about
// 3.1 GiB/s for one stream and ~9.5 GiB/s aggregate for 8 streams.
class TcpStreamScaling : public ::testing::TestWithParam<int> {};

TEST_P(TcpStreamScaling, AggregateTracksTable2) {
  const int streams = GetParam();
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);

  const nws::Bytes per_stream = 64_MiB;
  std::vector<sim::TimePoint> done(static_cast<std::size_t>(streams), -1);
  for (int i = 0; i < streams; ++i) {
    auto path = topo.path({0, 0}, {1, 0});
    const double cap = cfg.provider.stream_rate_cap(2_MiB);  // chunked at optimum
    sched.spawn(run_transfer(flows, std::move(path), per_stream, cap, &done[static_cast<std::size_t>(i)],
                             &sched));
  }
  sched.run();
  sim::TimePoint last = 0;
  for (const auto t : done) last = std::max(last, t);
  const double aggregate =
      static_cast<double>(per_stream) * streams / sim::to_seconds(last);
  const double expected = std::min(static_cast<double>(streams) * cfg.provider.stream_rate_cap(2_MiB),
                                   cfg.provider.nic_curve.evaluate(streams));
  EXPECT_NEAR(to_gib_per_sec(aggregate), to_gib_per_sec(expected), 0.1);
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, TcpStreamScaling, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace nws::net
