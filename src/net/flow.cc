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
  link_flow_count_.push_back(0);
  residual_.push_back(0.0);
  unfrozen_on_link_.push_back(0);
  link_begin_.push_back(0);
  active_pos_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

void FlowScheduler::start_flow(std::vector<LinkId> path, double bytes, double rate_cap,
                               std::coroutine_handle<> h) {
  for (const LinkId id : path) {
    if (id >= links_.size()) throw std::out_of_range("flow path references unknown link");
  }
  advance_progress();
  Flow flow;
  flow.path = std::move(path);
  flow.remaining = bytes;
  flow.total = bytes;
  flow.cap = rate_cap;
  flow.waiter = h;
  flows_.push_back(std::move(flow));
  for (const LinkId id : flows_.back().path) {
    if (link_flow_count_[id]++ == 0) {
      active_pos_[id] = active_links_.size();
      active_links_.push_back(id);
    }
  }
  if (obs::TraceRecorder* tr = obs::current_trace()) {
    // Flow lifetimes render on a synthetic "network" process; a rotating
    // lane keeps concurrent flows on separate rows in the viewer.
    flows_.back().span =
        tr->begin("flow", "net", obs::Actor{obs::kNetworkNode, trace_lane_++ % 32}, 0, bytes);
  }
  ++stats_.flows_started;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, flows_.size());
  settle(flows_.size() - 1);
}

void FlowScheduler::set_capacity_factor(LinkId id, double factor) {
  if (id >= links_.size()) throw std::out_of_range("set_capacity_factor on unknown link");
  if (factor < 0.0) throw std::invalid_argument("negative link capacity factor");
  capacity_modulated_ = true;
  advance_progress();
  links_[id].capacity_factor = factor;
  if (!flows_.empty()) {
    changes_since_full_ = 0;  // force an exact solve: capacities moved under us
    recompute_rates();
  }
  settle();
}

void FlowScheduler::advance_progress() {
  const sim::TimePoint now = sched_.now();
  const double dt = sim::to_seconds(now - last_update_);
  last_update_ = now;
  if (dt <= 0.0) return;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
}

bool FlowScheduler::links_private_to(const Flow& f) const {
  for (const LinkId id : f.path) {
    if (link_flow_count_[id] != 1) return false;
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

void FlowScheduler::maybe_recompute(Flow* added, bool shared_departure) {
  if (flows_.size() <= lazy_threshold_) {
    // Exact regime.  Changes disjoint from every other flow cannot move any
    // other flow's max-min rate: an arrival whose links carry nothing else
    // just takes its solo bottleneck rate, and a departure that left its
    // links empty needs no adjustment at all.  Everything else re-solves.
    const bool arrival_disjoint = added != nullptr && links_private_to(*added);
    if (!shared_departure && (added == nullptr || arrival_disjoint)) {
      changes_since_full_ = 0;
      if (added != nullptr) added->rate = solo_rate(*added);
      return;
    }
    changes_since_full_ = 0;
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
  if (added != nullptr) {
    added->rate = fair_share_floor_ > 0.0 ? std::min(added->cap, fair_share_floor_) : added->cap;
    if (!std::isfinite(added->rate)) added->rate = fair_share_floor_;
    if (added->rate <= 0.0) {
      changes_since_full_ = 0;
      recompute_rates();
    }
  }
}

void FlowScheduler::recompute_rates() {
  ++stats_.rate_recomputations;
  const std::size_t n_flows = flows_.size();
  if (n_flows == 0) return;

  // Link->flow incidence over the active links (start_flow/settle keep that
  // set on link_flow_count_ 0<->1 transitions), as CSR: link l's flows are
  // incidence_[link_begin_[l] .. + link_flow_count_[l]).  A flow crossing a
  // link twice is listed twice, as it is counted twice.  The fill cursor is
  // unfrozen_on_link_, which so ends equal to link_flow_count_.  The scratch
  // vectors are members so a steady-state solve performs no allocation.
  std::size_t n_incidences = 0;
  for (const LinkId l : active_links_) {
    link_begin_[l] = n_incidences;
    n_incidences += link_flow_count_[l];
    residual_[l] = links_[l].effective_capacity(link_flow_count_[l]);
    unfrozen_on_link_[l] = 0;
  }
  incidence_.resize(n_incidences);
  double cap_floor = std::numeric_limits<double>::infinity();  // <= every unfrozen cap
  for (std::size_t i = 0; i < n_flows; ++i) {
    for (const LinkId l : flows_[i].path) incidence_[link_begin_[l] + unfrozen_on_link_[l]++] = i;
    cap_floor = std::min(cap_floor, flows_[i].cap);
  }
  live_links_.assign(active_links_.begin(), active_links_.end());
  frozen_.assign(n_flows, 0);

  // Progressive filling: raise every unfrozen flow's rate uniformly until a
  // link saturates or a flow hits its own cap; freeze and repeat.
  std::size_t n_frozen = 0;
  double level = 0.0;
  const auto freeze = [&](std::size_t i) {
    frozen_[i] = 1;
    ++n_frozen;
    flows_[i].rate = level;
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
      const std::size_t begin = link_begin_[l];
      for (std::size_t k = begin; k < begin + link_flow_count_[l]; ++k) {
        if (!frozen_[incidence_[k]]) freeze(incidence_[k]);
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

  double floor = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate > 0.0) floor = std::min(floor, f.rate);
  }
  fair_share_floor_ = std::isfinite(floor) ? floor : 0.0;
}

void FlowScheduler::settle(std::size_t added_idx) {
  completion_timer_.cancel();

  // Complete flows that are done as of now, tracking where the just-added
  // flow ends up under swap-removal and whether any departure left other
  // flows behind on a shared link (those flows' rates may now rise).
  bool completed_any = false;
  bool shared_departure = false;
  for (std::size_t i = 0; i < flows_.size();) {
    if (flows_[i].remaining <= kCompletionEpsilon) {
      for (const LinkId id : flows_[i].path) {
        if (--link_flow_count_[id] > 0) {
          shared_departure = true;
        } else {
          // Swap-remove from the active set; its order affects no result.
          const LinkId moved = active_links_.back();
          active_links_[active_pos_[id]] = moved;
          active_pos_[moved] = active_pos_[id];
          active_links_.pop_back();
        }
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
      flows_[i] = std::move(flows_.back());
      flows_.pop_back();
      completed_any = true;
      sched_.schedule_handle(sched_.now(), waiter);
    } else {
      ++i;
    }
  }
  // Exactly one rate update per settle, even when an arrival and one or more
  // completions coincide at the same instant (this used to run the solver —
  // and count a rate_recomputation — twice for that case).
  Flow* added = added_idx == kNoFlow ? nullptr : &flows_[added_idx];
  if (completed_any || added != nullptr) maybe_recompute(added, shared_departure);
  if (flows_.empty()) return;

  // Earliest next completion (seconds), rounded up to a whole nanosecond so
  // the timer never re-fires at the current instant.
  double min_time = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate > 0.0) min_time = std::min(min_time, f.remaining / f.rate);
  }
  if (!std::isfinite(min_time)) {
    // Every active flow is stalled.  Under capacity modulation this is an
    // outage window: a scheduled restore event will recompute rates, so no
    // completion timer is needed (and a genuine hang still surfaces as a
    // scheduler deadlock).  Without modulation it is a model error.
    if (capacity_modulated_) return;
    throw std::logic_error("active flows with zero rate: link capacities exhausted");
  }
  auto delta = static_cast<sim::Duration>(std::ceil(min_time * 1e9));
  if (delta < 1) delta = 1;
  completion_timer_ = sched_.schedule_callback(sched_.now() + delta, [this] {
    advance_progress();
    settle();
  });
}

std::vector<double> FlowScheduler::current_rates() const {
  std::vector<double> rates;
  rates.reserve(flows_.size());
  for (const Flow& f : flows_) rates.push_back(f.rate);
  return rates;
}

std::size_t FlowScheduler::flows_on_link(LinkId id) const {
  std::size_t n = 0;
  for (const Flow& f : flows_) {
    n += static_cast<std::size_t>(std::count(f.path.begin(), f.path.end(), id));
  }
  return n;
}

}  // namespace nws::net
