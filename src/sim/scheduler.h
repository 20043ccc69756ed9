// Discrete-event scheduler.
//
// Single-threaded event loop over simulated time.  Events are ordered by
// (timestamp, insertion sequence) so execution is deterministic.  Root
// processes are spawned as detached coroutines; the run loop finishes when
// the event queue drains, and reports a deadlock if live processes remain
// blocked (e.g. a mutex never released).
//
// Timer callbacks are stored in a pooled slot table rather than per-event
// heap allocations: scheduling a callback costs no allocation in the steady
// state (slots are recycled through a free list, callables live in a
// small-buffer store, and Timer handles validate their slot through a
// generation counter).  This is the simulator's hottest allocation site —
// every flow settle/completion arms a timer — so the pool is what the
// selfprof events/sec figure mostly measures.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace nws::sim {

/// Thrown by Scheduler::run() when the queue drains while processes are
/// still blocked on primitives.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::size_t blocked)
      : std::runtime_error("simulation deadlock: " + std::to_string(blocked) +
                           " process(es) blocked with no pending events") {}
};

/// Type-erased move-only callable with small-buffer storage sized for the
/// simulator's timer lambdas (a couple of pointers); larger callables fall
/// back to the heap.  Unlike std::function this never allocates for the
/// common case and supports move-only captures.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~InlineCallback() { reset(); }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable (releasing its captures) without calling it.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() {
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    void (*destroy)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src);  // move + destroy src
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](unsigned char* b) { (**std::launder(reinterpret_cast<Fn**>(b)))(); },
      [](unsigned char* b) { delete *std::launder(reinterpret_cast<Fn**>(b)); },
      [](unsigned char* dst, unsigned char* src) {
        ::new (static_cast<void*>(dst)) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
  };

  void move_from(InlineCallback& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/// Cancellable timer handle returned by schedule_callback().
///
/// Lifetime contract: the handle references a pooled slot through a
/// generation counter and a shared table, so cancel() and pending() are safe
/// after the timer fired, after repeated cancels, and even after the
/// Scheduler itself has been destroyed.  Cancelling releases the stored
/// callback immediately (captured resources are freed without waiting for
/// the event queue to reach the cancelled entry).
class Timer {
 public:
  Timer() = default;

  /// Cancels the pending callback; safe to call after firing, repeatedly, or
  /// after the scheduler is gone.
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;

  struct Slot {
    InlineCallback callback;
    std::uint64_t generation = 0;  // bumped on recycle: stale handles miss
  };
  /// Shared between the scheduler and outstanding Timer handles; `dead`
  /// flips when the scheduler is destroyed (slots keep their storage until
  /// the last handle drops, but callbacks are released eagerly).
  struct SlotTable {
    std::deque<Slot> slots;       // deque: grows without relocating slots
    std::vector<std::uint32_t> free_slots;
    bool dead = false;
  };

  Timer(std::shared_ptr<SlotTable> table, std::uint32_t slot, std::uint64_t generation)
      : table_(std::move(table)), slot_(slot), generation_(generation) {}

  std::shared_ptr<SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Scheduler {
 public:
  Scheduler() : timers_(std::make_shared<Timer::SlotTable>()) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Spawns a root process; it begins executing at the current simulated time
  /// once the run loop reaches it.
  void spawn(Task<void> task);

  /// Resumes `h` at absolute time `t` (>= now).
  void schedule_handle(TimePoint t, std::coroutine_handle<> h);

  /// Runs `cb` at absolute time `t`.  The returned Timer can cancel it.
  /// Steady-state cost: one slot-table lookup, no heap allocation (the
  /// callable lands in the slot's small-buffer store).
  template <typename F>
  Timer schedule_callback(TimePoint t, F&& cb) {
    if (t < now_) throw std::logic_error("schedule_callback in the past");
    const std::uint32_t slot = acquire_slot();
    Timer::Slot& s = timers_->slots[slot];
    s.callback.emplace(std::forward<F>(cb));
    queue_.push(Event{t, next_seq_++, nullptr, slot, s.generation});
    return Timer{timers_, slot, s.generation};
  }

  /// Awaitable: suspends the current coroutine for `d` simulated time.
  auto delay(Duration d) {
    struct Awaiter {
      Scheduler& sched;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sched.schedule_handle(sched.now_ + d, h); }
      void await_resume() const noexcept {}
    };
    if (d < 0) throw std::invalid_argument("negative delay");
    return Awaiter{*this, d};
  }

  /// Awaitable: yields to other events scheduled at the current time.
  auto yield() { return delay(0); }

  /// Runs until the event queue is empty.  Throws DeadlockError if live
  /// processes remain, or rethrows the first unhandled process exception.
  void run();

  /// Executes the single next event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t live_processes() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Timer slot-pool introspection (regression coverage for eager slot
  /// recycling on cancel; the pool must not grow with cancelled timers).
  [[nodiscard]] std::size_t timer_slot_count() const { return timers_->slots.size(); }
  [[nodiscard]] std::size_t free_timer_slots() const { return timers_->free_slots.size(); }

 private:
  static constexpr std::uint32_t kNoTimer = 0xffffffffu;

  struct Event {
    TimePoint t;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // set for resumptions, null for timers
    std::uint32_t timer_slot = kNoTimer;
    std::uint64_t timer_generation = 0;
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void recycle_slot(std::uint32_t slot);

  void note_process_done() { --live_; }
  void note_process_failed(std::exception_ptr e) {
    --live_;
    if (!first_error_) first_error_ = e;
  }

  // Detached wrapper coroutine that owns a root Task, reports its completion
  // (or failure) back to the scheduler, and self-destroys at the end.
  struct Detached {
    struct promise_type {
      Detached get_return_object() {
        return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }  // wrapper body catches everything
    };
    std::coroutine_handle<promise_type> handle;
  };
  static Detached run_root(Scheduler& sched, Task<void> task);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;
  std::exception_ptr first_error_;
  std::shared_ptr<Timer::SlotTable> timers_;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
};

inline void Timer::cancel() {
  if (table_ && !table_->dead) {
    Slot& slot = table_->slots[slot_];
    if (slot.generation == generation_) {
      // Free captures now, not at queue drain, and recycle the slot eagerly:
      // the queued event goes stale through the generation bump, so cancelled
      // far-future timers no longer pin a slot until the queue reaches them.
      slot.callback.reset();
      ++slot.generation;
      table_->free_slots.push_back(slot_);
    }
  }
  table_.reset();
}

inline bool Timer::pending() const {
  if (!table_ || table_->dead) return false;
  return table_->slots[slot_].generation == generation_;
}

}  // namespace nws::sim
