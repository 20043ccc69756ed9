// Flow-level bandwidth sharing with max-min fairness.
//
// Every bulk data movement in the simulation (an IOR segment, a field
// write's array transfer, an MPI message) is a *flow*: a byte count pushed
// along a path of links.  While a flow is active it receives a rate; rates
// are recomputed with progressive-filling max-min fairness whenever the set
// of active flows changes, honouring
//
//   * each link's effective capacity (which may depend on how many flows the
//     link is carrying — the TCP efficiency curve), and
//   * each flow's own rate cap (the provider's per-stream limit, possibly
//     jittered per operation to model service-time variance).
//
// A flow completes when its byte count has been delivered; the awaiting
// simulated process is then resumed.  This is the classic flow-level network
// simulation approach: accurate steady-state sharing without per-packet
// cost.
//
// The solver keeps its state between events.  Each link holds the list of
// (flow, hop) entries crossing it, and each flow its slot in every list of
// its path: an arrival appends, a completion swap-removes its own entries
// and renames those of the flow moved into its index.  A link's flow count
// is its list size, so a solve reads the incidence as it stands.
//
// The fill is driven by that incidence: each round touches only the links
// that still carry unfrozen flows, and a link that saturates freezes exactly
// the flows listed on it.  Flow caps enter through a lower bound on the
// unfrozen caps and, once that bound could decide a round, through the caps
// in ascending order.  A round costs O(live links + flows frozen in it), not
// O(flows x path).  The rates are bit-identical to a plain round-by-round
// fill that re-scans every unfrozen flow's path: saturation depends only on
// link residuals, which freezing leaves unchanged; links without unfrozen
// flows only ever subtract zero; and since rounding is monotone,
// min_i(cap_i - level) equals min_i(cap_i) - level exactly.  Every
// floating-point operation that sets a rate is the same as in that fill.
//
// Progress is event-driven.  Each flow's remaining bytes are valid as of its
// stamp (the instant its rate last changed), and its projected finish is
// that stamp plus remaining / rate, rounded up to a whole nanosecond.  A
// solve writes its rates to scratch and re-stamps only the flows whose rate
// differs bit for bit; the others keep remaining, stamp and finish
// untouched.  A flow completes once its finish is at or before now, and the
// completion timer is armed at the earliest finish, so an event that moves
// no rate touches no flow's progress: it only scans the finish array.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.h"
#include "net/link.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace nws::net {

/// Identifies an active flow inside the scheduler.
using FlowId = std::uint64_t;

struct FlowStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  double bytes_delivered = 0.0;
  std::size_t peak_concurrent = 0;
  std::uint64_t rate_recomputations = 0;
};

class FlowScheduler {
 public:
  explicit FlowScheduler(sim::Scheduler& sched) : sched_(sched) {}
  FlowScheduler(const FlowScheduler&) = delete;
  FlowScheduler& operator=(const FlowScheduler&) = delete;

  /// Registers a link and returns its id.
  LinkId add_link(Link link);

  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Mutable link access for topology post-configuration (e.g. scaling a
  /// client NIC's receive efficiency).  Must not be used once flows are
  /// active on the link.
  [[nodiscard]] Link& mutable_link(LinkId id) { return links_.at(id); }

  /// Awaitable transfer of `bytes` along `path`, rate-capped at `rate_cap`
  /// bytes/s (use infinity for no cap).  Completes when all bytes have been
  /// delivered.  An empty path transfers instantaneously.
  auto transfer(std::vector<LinkId> path, nws::Bytes bytes,
                double rate_cap = std::numeric_limits<double>::infinity()) {
    struct Awaiter {
      FlowScheduler& fs;
      std::vector<LinkId> path;
      double bytes;
      double rate_cap;
      bool await_ready() const {
        if (bytes > 0.0 && !path.empty()) return false;
        // Instant completion (zero bytes, or a path-less local move): still a
        // transfer the workload performed, so it must reach FlowStats —
        // skipping it undercounted flows_started/bytes_delivered for exactly
        // the degenerate ops the metrics registry reports.
        fs.note_instant_transfer(bytes);
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) { fs.start_flow(std::move(path), bytes, rate_cap, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, std::move(path), static_cast<double>(bytes), rate_cap};
  }

  [[nodiscard]] const FlowStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Bounded-staleness rate updates for very wide workloads: with more than
  /// `threshold` active flows, a full max-min recomputation runs only every
  /// `interval` flow arrivals/departures; in between, new flows start at the
  /// last fair-share floor.  The transient error is bounded by
  /// interval/threshold (~2% at the defaults); below the threshold the
  /// solver is exact.  Pass threshold = SIZE_MAX to force exactness.
  void set_lazy_recompute(std::size_t threshold, std::size_t interval) {
    lazy_threshold_ = threshold;
    lazy_interval_ = interval;
  }

  /// Degrades (or restores) a link's capacity at the current simulated time:
  /// effective capacity is multiplied by `factor` (0 = outage) from now on.
  /// Rates are recomputed at once, and a flow whose rate changes is charged
  /// its progress at the old rate first, so a mid-transfer change is
  /// accounted exactly.  Fault injection entry point.
  void set_capacity_factor(LinkId id, double factor);

  /// Current max-min rate of every active flow (test hook; bytes/s).
  [[nodiscard]] std::vector<double> current_rates() const { return rate_; }

  /// Number of active flows currently crossing `id`, a flow crossing it
  /// twice counted twice: the size of the link's maintained incidence list.
  [[nodiscard]] std::size_t flows_on_link(LinkId id) const { return on_link_.at(id).size(); }

  /// Test hook: true when the maintained incidence matches the active flows'
  /// paths — every list entry points at its flow's hop on that link and back
  /// through the flow's slot, each list holds as many entries as paths cross
  /// the link, and the active-link set is exactly the links with entries.
  [[nodiscard]] bool incidence_consistent() const;

 private:
  struct Flow {
    std::vector<LinkId> path;
    std::vector<std::uint32_t> slot;  // slot[h]: this flow's entry in on_link_[path[h]]
    double total = 0.0;               // bytes
    double cap = 0.0;                 // bytes/s
    std::coroutine_handle<> waiter;
    obs::TraceRecorder::Token span = 0;  // lifetime span (0 = tracing off)
  };
  /// One flow crossing a link: the flow's index and the hop of its path.
  struct Incidence {
    std::uint32_t flow;
    std::uint32_t hop;
  };

  static constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);
  static constexpr sim::TimePoint kNever = std::numeric_limits<sim::TimePoint>::max();

  /// Accounts a transfer that completed in await_ready (zero bytes or an
  /// empty path): it never becomes an active Flow but did start and finish.
  void note_instant_transfer(double bytes) {
    ++stats_.flows_started;
    ++stats_.flows_completed;
    if (bytes > 0.0) stats_.bytes_delivered += bytes;
  }

  void start_flow(std::vector<LinkId> path, double bytes, double rate_cap, std::coroutine_handle<> h);
  /// Changes flow `i`'s rate now: charges the bytes moved since its stamp,
  /// re-stamps it and projects its finish.
  void set_rate(std::size_t i, double rate);
  /// Recomputes all flow rates (progressive-filling max-min, driven by the
  /// maintained incidence; see the file comment for cost and exactness).
  void recompute_rates();
  /// Rate update after the active set changed: exact solve (with disjoint
  /// fast paths) below the lazy threshold, bounded-staleness above it.
  /// `added` indexes the flow that just arrived (kNoFlow if none);
  /// `shared_departure` means a completed flow left other flows behind on
  /// one of its links.
  void maybe_recompute(std::size_t added, bool shared_departure);
  /// True if no other active flow shares a link with `f`.
  [[nodiscard]] bool links_private_to(const Flow& f) const;
  /// Max-min rate of a flow alone on every link of its path.
  [[nodiscard]] double solo_rate(const Flow& f) const;
  /// Drops flow `i`'s incidence entries and swap-removes it from the flow
  /// arrays.  Returns true if a link it crossed still carries other flows.
  bool remove_flow(std::size_t i);
  /// Completes the flows whose finish has come, performs at most ONE rate
  /// update for the combined arrival/departure change at this instant, and
  /// re-arms the completion timer at the earliest finish.  `added_idx`
  /// indexes the flow pushed by start_flow (kNoFlow when called from the
  /// timer or set_capacity_factor).
  void settle(std::size_t added_idx = kNoFlow);

  sim::Scheduler& sched_;
  std::vector<Link> links_;
  std::vector<Flow> flows_;
  // Progress state, parallel to flows_: bytes left as of the stamp, rate,
  // stamp and projected finish (kNever while stalled).
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<sim::TimePoint> stamp_;
  std::vector<sim::TimePoint> finish_;
  std::vector<std::vector<Incidence>> on_link_;  // per link: the flows crossing it
  sim::Timer completion_timer_;
  FlowStats stats_;
  // Links with a non-empty on_link_ list, in no particular order;
  // active_pos_[l] is l's index in it (valid while l is active), for O(1)
  // removal.
  std::vector<LinkId> active_links_;
  std::vector<std::size_t> active_pos_;
  // Solver scratch, persistent so steady-state recomputes do not allocate.
  std::vector<double> residual_;
  std::vector<std::size_t> unfrozen_on_link_;
  std::vector<LinkId> live_links_;       // active links with unfrozen flows
  std::vector<LinkId> saturated_;
  std::vector<std::size_t> by_cap_;      // finite-cap flows, ascending cap
  std::vector<char> frozen_;
  std::vector<double> new_rate_;         // the fill's rates, before re-stamping
  std::size_t lazy_threshold_ = 224;
  std::size_t lazy_interval_ = 12;
  std::size_t changes_since_full_ = 0;
  double fair_share_floor_ = 0.0;  // min positive rate at the last full solve
  std::uint32_t trace_lane_ = 0;   // rotating tid for flow spans (readability)
  // Set once capacity modulation is in use: flows stalled at rate 0 during an
  // outage window are then legal (a restore event will recompute), instead of
  // the all-flows-stalled state being diagnosed as a model error.
  bool capacity_modulated_ = false;
};

}  // namespace nws::net
