#include "net/flow.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nws::net {

namespace {
// Bytes below which a flow counts as finished (guards float round-off).
constexpr double kCompletionEpsilon = 0.5;
// Rate head-room treated as saturated during progressive filling.
constexpr double kRateEpsilon = 1e-6;
}  // namespace

LinkId FlowScheduler::add_link(Link link) {
  if (link.raw_capacity <= 0.0) throw std::invalid_argument("link capacity must be positive: " + link.name);
  links_.push_back(std::move(link));
  on_link_.emplace_back();
  residual_.push_back(0.0);
  unfrozen_on_link_.push_back(0);
  active_pos_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

void FlowScheduler::start_flow(std::vector<LinkId> path, double bytes, double rate_cap,
                               std::coroutine_handle<> h) {
  for (const LinkId id : path) {
    if (id >= links_.size()) throw std::out_of_range("flow path references unknown link");
  }
  const auto index = static_cast<std::uint32_t>(flows_.size());
  Flow flow;
  flow.path = std::move(path);
  flow.slot.resize(flow.path.size());
  flow.total = bytes;
  flow.cap = rate_cap;
  flow.waiter = h;
  for (std::uint32_t hop = 0; hop < flow.path.size(); ++hop) {
    const LinkId id = flow.path[hop];
    std::vector<Incidence>& list = on_link_[id];
    if (list.empty()) {
      active_pos_[id] = active_links_.size();
      active_links_.push_back(id);
    }
    flow.slot[hop] = static_cast<std::uint32_t>(list.size());
    list.push_back({index, hop});
  }
  if (obs::TraceRecorder* tr = obs::current_trace()) {
    // Flow lifetimes render on a synthetic "network" process; a rotating
    // lane keeps concurrent flows on separate rows in the viewer.
    flow.span = tr->begin("flow", "net", obs::Actor{obs::kNetworkNode, trace_lane_++ % 32}, 0, bytes);
  }
  flows_.push_back(std::move(flow));
  // Stalled until the rate update in settle() gives it a rate.
  const sim::TimePoint now = sched_.now();
  remaining_.push_back(bytes);
  rate_.push_back(0.0);
  stamp_.push_back(now);
  finish_.push_back(bytes <= kCompletionEpsilon ? now : kNever);
  ++stats_.flows_started;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, flows_.size());
  settle(flows_.size() - 1);
}

void FlowScheduler::set_capacity_factor(LinkId id, double factor) {
  if (id >= links_.size()) throw std::out_of_range("set_capacity_factor on unknown link");
  if (factor < 0.0) throw std::invalid_argument("negative link capacity factor");
  capacity_modulated_ = true;
  links_[id].capacity_factor = factor;
  if (!flows_.empty()) {
    changes_since_full_ = 0;  // force an exact solve: capacities moved under us
    recompute_rates();
  }
  settle();
}

void FlowScheduler::set_rate(std::size_t i, double rate) {
  const sim::TimePoint now = sched_.now();
  const double left = remaining_[i] - rate_[i] * sim::to_seconds(now - stamp_[i]);
  remaining_[i] = left < 0.0 ? 0.0 : left;
  rate_[i] = rate;
  stamp_[i] = now;
  if (remaining_[i] <= kCompletionEpsilon) {
    finish_[i] = now;
    return;
  }
  // Rounded up to a whole nanosecond, at least one ahead, so the timer never
  // re-fires at the current instant.
  const double ns = rate > 0.0 ? std::ceil(remaining_[i] / rate * 1e9) : HUGE_VAL;
  if (ns >= static_cast<double>(kNever - now)) {
    finish_[i] = kNever;  // stalled (or beyond the clock's range)
  } else {
    finish_[i] = now + std::max<sim::Duration>(1, static_cast<sim::Duration>(ns));
  }
}

bool FlowScheduler::links_private_to(const Flow& f) const {
  for (const LinkId id : f.path) {
    if (on_link_[id].size() != 1) return false;
  }
  return true;
}

double FlowScheduler::solo_rate(const Flow& f) const {
  double rate = f.cap;
  for (const LinkId id : f.path) {
    rate = std::min(rate, links_[id].effective_capacity(1));
  }
  return rate;
}

void FlowScheduler::maybe_recompute(std::size_t added, bool shared_departure) {
  if (flows_.size() <= lazy_threshold_) {
    // Exact regime.  Changes disjoint from every other flow cannot move any
    // other flow's max-min rate: an arrival whose links carry nothing else
    // just takes its solo bottleneck rate, and a departure that left its
    // links empty needs no adjustment at all.  Everything else re-solves.
    changes_since_full_ = 0;
    const bool arrival_disjoint = added != kNoFlow && links_private_to(flows_[added]);
    if (!shared_departure && (added == kNoFlow || arrival_disjoint)) {
      if (added != kNoFlow) set_rate(added, solo_rate(flows_[added]));
      return;
    }
    recompute_rates();
    return;
  }
  // Bounded-staleness regime: exact solve periodically; in between, an added
  // flow simply starts at the last fair-share floor (capped), and departures
  // leave the remaining rates untouched until the next full solve.  See
  // set_lazy_recompute() for the error bound.
  if (++changes_since_full_ >= lazy_interval_) {
    changes_since_full_ = 0;
    recompute_rates();
    return;
  }
  if (added != kNoFlow) {
    const double cap = flows_[added].cap;
    double rate = fair_share_floor_ > 0.0 ? std::min(cap, fair_share_floor_) : cap;
    if (!std::isfinite(rate)) rate = fair_share_floor_;
    if (rate <= 0.0) {
      changes_since_full_ = 0;
      recompute_rates();
    } else {
      set_rate(added, rate);
    }
  }
}

void FlowScheduler::recompute_rates() {
  ++stats_.rate_recomputations;
  const std::size_t n_flows = flows_.size();
  if (n_flows == 0) return;

  // Every active link's flows are its on_link_ list (a flow crossing a link
  // twice is listed twice, as it is counted twice); the fill counts them down
  // in unfrozen_on_link_.  The scratch vectors are members so a steady-state
  // solve performs no allocation.
  double cap_floor = std::numeric_limits<double>::infinity();  // <= every unfrozen cap
  for (const LinkId l : active_links_) {
    const std::size_t n = on_link_[l].size();
    residual_[l] = links_[l].effective_capacity(n);
    unfrozen_on_link_[l] = n;
  }
  for (const Flow& f : flows_) cap_floor = std::min(cap_floor, f.cap);
  live_links_.assign(active_links_.begin(), active_links_.end());
  frozen_.assign(n_flows, 0);
  new_rate_.resize(n_flows);

  // Progressive filling: raise every unfrozen flow's rate uniformly until a
  // link saturates or a flow hits its own cap; freeze and repeat.
  std::size_t n_frozen = 0;
  double level = 0.0;
  const auto freeze = [&](std::size_t i) {
    frozen_[i] = 1;
    ++n_frozen;
    new_rate_[i] = level;
    for (const LinkId id : flows_[i].path) --unfrozen_on_link_[id];
  };
  // Finite caps of the flows unfrozen so far, ascending, built only once the
  // cap floor could decide a round: link-bound solves never sort.
  bool caps_sorted = false;
  std::size_t next_cap = 0;  // by_cap_[..next_cap) are all frozen
  const auto sort_caps = [&] {
    by_cap_.clear();
    for (std::size_t i = 0; i < n_flows; ++i) {
      if (!frozen_[i] && std::isfinite(flows_[i].cap)) by_cap_.push_back(i);
    }
    std::sort(by_cap_.begin(), by_cap_.end(),
              [this](std::size_t a, std::size_t b) { return flows_[a].cap < flows_[b].cap; });
    caps_sorted = true;
  };

  while (n_frozen < n_flows) {
    // Smallest increment that saturates some link; links left without
    // unfrozen flows drop out of the live list here.
    double delta = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const LinkId l : live_links_) {
      if (unfrozen_on_link_[l] == 0) continue;
      live_links_[kept++] = l;
      delta = std::min(delta, residual_[l] / static_cast<double>(unfrozen_on_link_[l]));
    }
    live_links_.resize(kept);
    // ... or that brings a flow to its cap.  Rounding is monotone, so
    // min_i(cap_i - level) == min_i(cap_i) - level bit for bit.
    if (!caps_sorted && cap_floor - level < delta) sort_caps();
    if (caps_sorted) {
      while (next_cap < by_cap_.size() && frozen_[by_cap_[next_cap]]) ++next_cap;
      if (next_cap < by_cap_.size()) delta = std::min(delta, flows_[by_cap_[next_cap]].cap - level);
    }
    if (!std::isfinite(delta)) throw std::logic_error("max-min fill diverged (uncapped flow on no links?)");
    if (delta < 0.0) delta = 0.0;

    // Links not live carry no unfrozen flow, so they would subtract zero,
    // and no later round reads them.  Saturation is decided on residuals
    // alone, which freezing does not change, so it is found before any
    // freezing and freezes exactly the flows on the saturated links.
    level += delta;
    saturated_.clear();
    for (const LinkId l : live_links_) {
      residual_[l] -= delta * static_cast<double>(unfrozen_on_link_[l]);
      if (residual_[l] <= kRateEpsilon * links_[l].raw_capacity) saturated_.push_back(l);
    }
    const std::size_t frozen_before = n_frozen;
    for (const LinkId l : saturated_) {
      for (const Incidence& e : on_link_[l]) {
        if (!frozen_[e.flow]) freeze(e.flow);
      }
    }
    // Flows at their cap: a prefix of the unfrozen ones in cap order.
    if (!caps_sorted && cap_floor - level <= kRateEpsilon) sort_caps();
    if (caps_sorted) {
      for (; next_cap < by_cap_.size(); ++next_cap) {
        const std::size_t i = by_cap_[next_cap];
        if (frozen_[i]) continue;
        if (flows_[i].cap - level > kRateEpsilon) break;
        freeze(i);
      }
    }
    if (n_frozen == frozen_before) {
      // Numerical corner: nothing saturated exactly; freeze everything at
      // the current level to guarantee termination.
      for (std::size_t i = 0; i < n_flows; ++i) {
        if (!frozen_[i]) freeze(i);
      }
    }
  }

  // Only flows whose rate moved are charged their progress and re-stamped.
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n_flows; ++i) {
    const double rate = new_rate_[i];
    if (rate > 0.0) floor = std::min(floor, rate);
    if (rate != rate_[i]) set_rate(i, rate);
  }
  fair_share_floor_ = std::isfinite(floor) ? floor : 0.0;
}

bool FlowScheduler::remove_flow(std::size_t i) {
  bool shared = false;
  Flow& gone = flows_[i];
  for (std::size_t hop = 0; hop < gone.path.size(); ++hop) {
    const LinkId id = gone.path[hop];
    std::vector<Incidence>& list = on_link_[id];
    // Swap-remove this hop's entry; the entry moved into its slot (possibly
    // another hop of this same flow) learns its new slot.
    const Incidence moved = list.back();
    list[gone.slot[hop]] = moved;
    flows_[moved.flow].slot[moved.hop] = gone.slot[hop];
    list.pop_back();
    if (!list.empty()) {
      shared = true;
    } else {
      // Swap-remove from the active set; its order affects no result.
      const LinkId last = active_links_.back();
      active_links_[active_pos_[id]] = last;
      active_pos_[last] = active_pos_[id];
      active_links_.pop_back();
    }
  }
  const std::size_t back = flows_.size() - 1;
  if (i != back) {
    flows_[i] = std::move(flows_[back]);
    const Flow& moved = flows_[i];
    for (std::size_t hop = 0; hop < moved.path.size(); ++hop) {
      on_link_[moved.path[hop]][moved.slot[hop]].flow = static_cast<std::uint32_t>(i);
    }
    remaining_[i] = remaining_[back];
    rate_[i] = rate_[back];
    stamp_[i] = stamp_[back];
    finish_[i] = finish_[back];
  }
  flows_.pop_back();
  remaining_.pop_back();
  rate_.pop_back();
  stamp_.pop_back();
  finish_.pop_back();
  return shared;
}

void FlowScheduler::settle(std::size_t added_idx) {
  completion_timer_.cancel();
  const sim::TimePoint now = sched_.now();

  // Complete flows whose finish has come, tracking where the just-added
  // flow ends up under swap-removal and whether any departure left other
  // flows behind on a shared link (those flows' rates may now rise).
  bool completed_any = false;
  bool shared_departure = false;
  for (std::size_t i = 0; i < flows_.size();) {
    if (finish_[i] > now) {
      ++i;
      continue;
    }
    const auto waiter = flows_[i].waiter;
    if (flows_[i].span != 0) {
      if (obs::TraceRecorder* tr = obs::current_trace()) tr->end(flows_[i].span);
    }
    stats_.bytes_delivered += flows_[i].total;
    ++stats_.flows_completed;
    if (i == added_idx) {
      added_idx = kNoFlow;  // the arrival itself finished instantly
    } else if (flows_.size() - 1 == added_idx) {
      added_idx = i;  // the arrival is the back element being swapped in
    }
    shared_departure = remove_flow(i) || shared_departure;
    completed_any = true;
    sched_.schedule_handle(now, waiter);
  }
  // Exactly one rate update per settle, even when an arrival and one or more
  // completions coincide at the same instant (this used to run the solver —
  // and count a rate_recomputation — twice for that case).
  if (completed_any || added_idx != kNoFlow) maybe_recompute(added_idx, shared_departure);
  if (flows_.empty()) return;

  const sim::TimePoint next = *std::min_element(finish_.begin(), finish_.end());
  if (next == kNever) {
    // Every active flow is stalled.  Under capacity modulation this is an
    // outage window: a scheduled restore event will recompute rates, so no
    // completion timer is needed (and a genuine hang still surfaces as a
    // scheduler deadlock).  Without modulation it is a model error.
    if (capacity_modulated_) return;
    throw std::logic_error("active flows with zero rate: link capacities exhausted");
  }
  completion_timer_ = sched_.schedule_callback(std::max(next, now + 1), [this] { settle(); });
}

bool FlowScheduler::incidence_consistent() const {
  std::vector<std::size_t> crossings(links_.size(), 0);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    if (f.slot.size() != f.path.size()) return false;
    for (std::size_t hop = 0; hop < f.path.size(); ++hop) {
      const std::vector<Incidence>& list = on_link_[f.path[hop]];
      if (f.slot[hop] >= list.size()) return false;
      const Incidence& e = list[f.slot[hop]];
      if (e.flow != i || e.hop != hop) return false;
      ++crossings[f.path[hop]];
    }
  }
  std::size_t active = 0;
  for (LinkId l = 0; l < links_.size(); ++l) {
    if (on_link_[l].size() != crossings[l]) return false;
    if (on_link_[l].empty()) continue;
    ++active;
    if (active_pos_[l] >= active_links_.size() || active_links_[active_pos_[l]] != l) return false;
  }
  return active == active_links_.size();
}

}  // namespace nws::net
