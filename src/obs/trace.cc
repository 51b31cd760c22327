#include "obs/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace kcpq {
namespace obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kQuery: return "query";
    case TraceEventKind::kDescend: return "descend";
    case TraceEventKind::kHeapPush: return "heap_push";
    case TraceEventKind::kHeapPop: return "heap_pop";
    case TraceEventKind::kPrune: return "prune";
    case TraceEventKind::kLeafKernel: return "leaf_kernel";
    case TraceEventKind::kIoWait: return "io_wait";
    case TraceEventKind::kRetry: return "retry";
    case TraceEventKind::kRetryAbandoned: return "retry_abandoned";
    case TraceEventKind::kBoundUpdate: return "bound_update";
    case TraceEventKind::kIoPark: return "io_park";
    case TraceEventKind::kIoHedge: return "io_hedge";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
}

uint64_t TraceBuffer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceBuffer::Record(TraceEvent event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
  ++total_recorded_;
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // When the ring has wrapped, `next_` points at the oldest event.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

namespace {

std::string FormatTraceDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ChromeTraceJson(const TraceBuffer& buffer) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : buffer.Events()) {
    if (!first) os << ",";
    first = false;
    const bool complete = e.dur_ns > 0;
    // Chrome trace timestamps are microseconds (doubles are fine: the
    // viewer tolerates fractional µs).
    os << "{\"name\":\"" << TraceEventKindName(e.kind) << "\","
       << "\"ph\":\"" << (complete ? 'X' : 'i') << "\","
       << "\"ts\":" << FormatTraceDouble(e.ts_ns / 1000.0) << ",";
    if (complete) {
      os << "\"dur\":" << FormatTraceDouble(e.dur_ns / 1000.0) << ",";
    } else {
      os << "\"s\":\"t\",";
    }
    os << "\"pid\":1,\"tid\":1,\"args\":{"
       << "\"level_p\":" << e.level_p << ",\"level_q\":" << e.level_q
       << ",\"value\":" << FormatTraceDouble(e.value)
       << ",\"bound\":" << FormatTraceDouble(e.bound) << ",\"a\":" << e.a
       << ",\"b\":" << e.b << "}}";
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
     << "\"total_recorded\":" << buffer.total_recorded()
     << ",\"dropped\":" << buffer.dropped() << "}}";
  return os.str();
}

bool WriteChromeTrace(const TraceBuffer& buffer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ChromeTraceJson(buffer) << "\n";
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace kcpq
