// Trace spans on the simulated clock, exported as Chrome trace_event JSON.
//
// The paper's methodology (Section 5.5) is timestamped events — I/O start,
// object open/close, data transfer boundaries — tagged with client node,
// process and iteration.  This recorder captures exactly that as *spans*
// (begin/end pairs) keyed to the simulated clock, and exports them in the
// Chrome trace_event format so a run loads directly into Perfetto or
// chrome://tracing: node -> pid, process (rank) -> tid, iteration -> args.
//
// Zero cost when disabled: instrumentation sites construct an obs::Span,
// whose constructor is one thread_local read plus a branch on the resulting
// pointer; with no TraceSession installed nothing else happens.  Recording
// is enabled by installing a TraceRecorder for the current thread
// (TraceSession RAII) and binding it to the simulation's clock for the
// duration of a run (ScopedClock RAII) — the recorder outlives individual
// runs, and each bind shifts the epoch so sequential runs (e.g. a write
// phase replayed after a warm-up, or several repetitions) lay out one after
// another on a single timeline.
//
// Spans may end out of creation order (coroutine frames interleave and are
// destroyed whenever the scheduler drops them), so Span holds an index token
// into the recorder rather than assuming stack discipline.  Spans still
// open at export time are clamped to the latest timestamp seen.
//
// Two export paths:
//  - write_chrome_json(): whole-run buffering, spans sorted at the end.
//  - stream_to()/finish_stream(): bounded in-memory buffer with chunked
//    incremental writes — million-span runs never hold the full trace in
//    memory.  Correctness of the streamed order rests on an invariant the
//    recorder maintains anyway: span *creation* order is nondecreasing in
//    start time (the simulated clock is monotone within a run and the epoch
//    shift chains runs monotonically), so flushing the closed prefix in
//    creation order yields the same ts-sorted artifact the buffered path
//    produces, and obs_lint's monotonicity check holds.
//
// The recorder is reached through a thread-local pointer, so a traced run
// executes on the thread that installed it: bench binaries force --jobs 1
// under --trace (bench_util.h resolve_jobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "sim/scheduler.h"

namespace nws::obs {

/// Who performed the work: simulated node id -> trace pid, process/rank on
/// that node -> trace tid.
struct Actor {
  std::uint32_t node = 0;
  std::uint32_t proc = 0;
};

/// Synthetic pid for spans with no client attribution (network flows).
inline constexpr std::uint32_t kNetworkNode = 0xFFFFu;

class JsonWriter;

class TraceRecorder {
 public:
  /// Opaque span handle; 0 is the invalid token (recording disabled or clock
  /// unbound when the span began).
  using Token = std::uint32_t;

  /// Default bounded-buffer size for streaming mode (spans, not bytes).
  static constexpr std::size_t kDefaultStreamBuffer = 65536;

  struct SpanRecord {
    const char* name;  // static string (span taxonomy, docs/OBSERVABILITY.md)
    const char* cat;   // static string: "io" | "daos" | "net" | "retry" | ...
    std::uint64_t start_ns = 0;  // epoch-shifted simulated time
    std::uint64_t end_ns = 0;
    std::uint32_t node = 0;
    std::uint32_t proc = 0;
    std::uint32_t iteration = 0;
    double bytes = -1.0;  // payload size; < 0 = not applicable
    bool open = true;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();

  /// Begins a span at the current simulated time.  Returns 0 (and records
  /// nothing) while no clock is bound.
  Token begin(const char* name, const char* cat, Actor actor, std::uint32_t iteration = 0,
              double bytes = -1.0);

  /// Ends the span; token 0, double-end, and already-flushed tokens are
  /// no-ops.  With the clock already unbound the span keeps its start time
  /// (zero duration).
  void end(Token token);

  /// Total spans recorded (streamed-out spans included).
  [[nodiscard]] std::size_t span_count() const { return flushed_ + spans_.size(); }
  /// Spans still in memory (all of them unless streaming flushed some).
  [[nodiscard]] const std::deque<SpanRecord>& spans() const { return spans_; }

  /// Latest epoch-shifted timestamp seen; the next bound run starts here.
  [[nodiscard]] std::uint64_t high_water() const { return high_water_; }

  /// Chrome trace_event JSON: process_name metadata per pid plus one
  /// complete ("ph":"X") event per span, sorted by start time.  Timestamps
  /// are microseconds (the format's unit); still-open spans are clamped.
  /// Throws std::logic_error in streaming mode (use finish_stream instead).
  void write_chrome_json(std::ostream& os) const;

  /// Switches to streaming export: the JSON prologue is written now, and
  /// whenever more than `max_buffered` spans are buffered the closed prefix
  /// is flushed to `os` in creation order (per-pid metadata emitted on first
  /// use).  `os` must outlive the recorder or a finish_stream() call.
  /// Throws std::logic_error if already streaming or spans were flushed.
  void stream_to(std::ostream& os, std::size_t max_buffered = kDefaultStreamBuffer);

  /// Flushes every remaining span (open ones clamped to the high-water
  /// mark), writes the JSON epilogue, and leaves streaming mode.
  void finish_stream();

  [[nodiscard]] bool streaming() const { return stream_ != nullptr; }

 private:
  friend class ScopedClock;

  void bind_clock(const sim::Scheduler* sched);
  void unbind_clock();
  void flush_closed_prefix();
  void write_stream_span(const SpanRecord& s);

  [[nodiscard]] std::uint64_t now_ns() const {
    return epoch_ns_ + static_cast<std::uint64_t>(clock_->now());
  }

  const sim::Scheduler* clock_ = nullptr;
  std::uint64_t epoch_ns_ = 0;    // shift applied to the bound clock
  std::uint64_t high_water_ = 0;  // latest timestamp recorded so far
  std::deque<SpanRecord> spans_;  // deque: streaming pops the closed prefix
  std::size_t flushed_ = 0;       // spans already streamed out

  // Streaming state (null unless stream_to() is active).
  std::unique_ptr<JsonWriter> stream_;
  std::size_t max_buffered_ = kDefaultStreamBuffer;
  std::vector<std::uint32_t> stream_pids_;  // pids whose metadata was emitted
};

/// Returns the recorder installed for this thread, or nullptr (tracing off).
TraceRecorder* current_trace();

/// Installs `rec` as this thread's recorder for the scope.  Nesting restores
/// the previous recorder on destruction.
class TraceSession {
 public:
  explicit TraceSession(TraceRecorder& rec);
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession();

 private:
  TraceRecorder* previous_;
};

/// Binds the thread's recorder (if any) to `sched` for the scope of one
/// simulation run.  Placed where the run owns a fresh sim::Scheduler
/// (run_ior_once / run_field_once / the MPI and Lustre runners); a no-op
/// when tracing is off.
class ScopedClock {
 public:
  explicit ScopedClock(sim::Scheduler& sched) : rec_(current_trace()) {
    if (rec_ != nullptr) rec_->bind_clock(&sched);
  }
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;
  ~ScopedClock() {
    if (rec_ != nullptr) rec_->unbind_clock();
  }

 private:
  TraceRecorder* rec_;
};

/// RAII span over the thread's current recorder.  Constructing one while
/// tracing is off costs a thread_local read and a branch on a null pointer.
class Span {
 public:
  Span(const char* name, const char* cat, Actor actor = {}, std::uint32_t iteration = 0,
       double bytes = -1.0)
      : rec_(current_trace()) {
    if (rec_ != nullptr) token_ = rec_->begin(name, cat, actor, iteration, bytes);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (rec_ != nullptr) rec_->end(token_);
  }

 private:
  TraceRecorder* rec_;
  TraceRecorder::Token token_ = 0;
};

}  // namespace nws::obs
