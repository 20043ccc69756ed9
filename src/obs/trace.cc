#include "obs/trace.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/json.h"

namespace nws::obs {

namespace {
thread_local TraceRecorder* g_current_trace = nullptr;

void write_pid_metadata(JsonWriter& w, std::uint32_t pid) {
  w.begin_object();
  w.member("name", "process_name");
  w.member("ph", "M");
  w.member("pid", std::uint64_t{pid});
  w.key("args");
  w.begin_object();
  w.member("name",
           pid == kNetworkNode ? std::string("network") : "node " + std::to_string(pid));
  w.end_object();
  w.end_object();
}

void write_span_event(JsonWriter& w, const TraceRecorder::SpanRecord& s, std::uint64_t end) {
  w.begin_object();
  w.member("name", s.name);
  w.member("cat", s.cat);
  w.member("ph", "X");
  w.member("ts", static_cast<double>(s.start_ns) / 1000.0);
  w.member("dur", static_cast<double>(end - s.start_ns) / 1000.0);
  w.member("pid", std::uint64_t{s.node});
  w.member("tid", std::uint64_t{s.proc});
  w.key("args");
  w.begin_object();
  w.member("iteration", std::uint64_t{s.iteration});
  if (s.bytes >= 0.0) w.member("bytes", s.bytes);
  w.end_object();
  w.end_object();
}
}  // namespace

TraceRecorder* current_trace() { return g_current_trace; }

TraceSession::TraceSession(TraceRecorder& rec) : previous_(g_current_trace) {
  g_current_trace = &rec;
}

TraceSession::~TraceSession() { g_current_trace = previous_; }

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::bind_clock(const sim::Scheduler* sched) {
  clock_ = sched;
  // Each bound run starts where the previous one left off, so repetitions
  // recorded back-to-back share one monotone timeline.
  epoch_ns_ = high_water_;
}

void TraceRecorder::unbind_clock() { clock_ = nullptr; }

TraceRecorder::Token TraceRecorder::begin(const char* name, const char* cat, Actor actor,
                                          std::uint32_t iteration, double bytes) {
  if (clock_ == nullptr) return 0;
  const std::uint64_t t = now_ns();
  high_water_ = std::max(high_water_, t);
  SpanRecord rec;
  rec.name = name;
  rec.cat = cat;
  rec.start_ns = t;
  rec.end_ns = t;
  rec.node = actor.node;
  rec.proc = actor.proc;
  rec.iteration = iteration;
  rec.bytes = bytes;
  spans_.push_back(rec);
  if (stream_ != nullptr && spans_.size() > max_buffered_) flush_closed_prefix();
  return static_cast<Token>(flushed_ + spans_.size());  // global index + 1
}

void TraceRecorder::end(Token token) {
  if (token == 0 || token > flushed_ + spans_.size()) return;
  if (token <= flushed_) return;  // already streamed out (was closed)
  SpanRecord& rec = spans_[token - 1 - flushed_];
  if (!rec.open) return;
  rec.open = false;
  if (clock_ != nullptr) {
    rec.end_ns = std::max(rec.start_ns, now_ns());
    high_water_ = std::max(high_water_, rec.end_ns);
  }
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  if (stream_ != nullptr) {
    throw std::logic_error("write_chrome_json on a streaming TraceRecorder; use finish_stream");
  }
  // Stable export order: by start time, then by creation order.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });

  std::vector<std::uint32_t> pids;
  for (const SpanRecord& s : spans_) pids.push_back(s.node);
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());

  JsonWriter w(os);
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const std::uint32_t pid : pids) write_pid_metadata(w, pid);
  for (const std::size_t i : order) {
    const SpanRecord& s = spans_[i];
    write_span_event(w, s, s.open ? std::max(s.start_ns, high_water_) : s.end_ns);
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void TraceRecorder::stream_to(std::ostream& os, std::size_t max_buffered) {
  if (stream_ != nullptr) throw std::logic_error("TraceRecorder is already streaming");
  if (flushed_ != 0) throw std::logic_error("TraceRecorder was streamed before");
  max_buffered_ = std::max<std::size_t>(max_buffered, 1);
  stream_ = std::make_unique<JsonWriter>(os);
  stream_->begin_object();
  stream_->member("displayTimeUnit", "ms");
  stream_->key("traceEvents");
  stream_->begin_array();
}

void TraceRecorder::write_stream_span(const SpanRecord& s) {
  // Per-pid metadata on first use: the trace_event format allows "M" events
  // anywhere in the array, so streaming need not know the pid set upfront.
  const auto it = std::lower_bound(stream_pids_.begin(), stream_pids_.end(), s.node);
  if (it == stream_pids_.end() || *it != s.node) {
    stream_pids_.insert(it, s.node);
    write_pid_metadata(*stream_, s.node);
  }
  write_span_event(*stream_, s, s.open ? std::max(s.start_ns, high_water_) : s.end_ns);
}

void TraceRecorder::flush_closed_prefix() {
  // Creation order is nondecreasing in start_ns (monotone clock + epoch
  // chaining), so flushing the prefix preserves the sorted-artifact
  // contract.  An open span holds back everything behind it; long-lived
  // spans therefore bound how far the buffer can shrink, not correctness.
  while (!spans_.empty() && !spans_.front().open) {
    write_stream_span(spans_.front());
    spans_.pop_front();
    ++flushed_;
  }
}

void TraceRecorder::finish_stream() {
  if (stream_ == nullptr) throw std::logic_error("finish_stream without stream_to");
  for (const SpanRecord& s : spans_) write_stream_span(s);
  flushed_ += spans_.size();
  spans_.clear();
  stream_->end_array();
  stream_->end_object();
  stream_.reset();
  stream_pids_.clear();
}

}  // namespace nws::obs
