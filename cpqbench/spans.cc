#include "spans.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace cpqbench {
namespace {

constexpr const char* kLayers[kSpanNameCount] = {
    "exec", "cpq", "cpq", "cpq", "hs", "rtree", "rtree",
    "storage", "storage", "storage",
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;
  uint64_t op = 0;
  int mode = -1;  // -1: not a client thread; 0/1: client, op untraced/traced
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
std::atomic<bool> g_background{false};

ThreadBuffer& Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    local = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

const char* SpanLayer(SpanName name) { return kLayers[name]; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BeginOp(uint64_t op, bool record) {
  ThreadBuffer& t = Local();
  t.op = op;
  t.mode = record ? 1 : 0;
}

void EndOp() {
  ThreadBuffer& t = Local();
  t.op = 0;
  t.mode = 0;
}

void SetBackgroundRecording(bool on) {
  g_background.store(on, std::memory_order_relaxed);
}

std::vector<std::vector<Span>> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::vector<Span>> out;
  for (const auto& b : g_buffers) out.push_back(b->spans);
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_buffers) b->spans.clear();
}

ScopedSpan::ScopedSpan(SpanName name) {
  ThreadBuffer& t = Local();
  const bool record = t.mode < 0 ? g_background.load(std::memory_order_relaxed)
                                 : t.mode == 1;
  if (!record) return;
  index_ = static_cast<int32_t>(t.spans.size());
  Span s;
  s.op = t.mode < 0 ? 0 : t.op;
  s.parent = t.open.empty() ? -1 : t.open.back();
  s.name = name;
  s.start_ns = NowNs();
  t.spans.push_back(s);
  t.open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadBuffer& t = Local();
  t.spans[index_].end_ns = NowNs();
  t.open.pop_back();
}

double SpanAnalysis::LayerSelf(const std::string& layer) const {
  double sum = 0.0;
  for (int n = 0; n < kSpanNameCount; ++n) {
    if (layer == SpanLayer(static_cast<SpanName>(n))) sum += self_s[n];
  }
  return sum;
}

SpanAnalysis AnalyzeSpans(const std::vector<std::vector<Span>>& threads,
                          const std::vector<uint64_t>& op_wall_ns) {
  SpanAnalysis a;
  std::vector<uint64_t> covered_ns(op_wall_ns.size(), 0);
  for (const std::vector<Span>& spans : threads) {
    std::vector<std::vector<int32_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[spans[i].parent].push_back(static_cast<int32_t>(i));
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      a.durations_us[s.name].push_back(static_cast<double>(dur) * 1e-3);
      a.total_s[s.name] += static_cast<double>(dur) * 1e-9;
      if (s.op == 0 || s.op >= op_wall_ns.size() || op_wall_ns[s.op] == 0) {
        continue;
      }
      // Self time: the span minus the union of its children's intervals.
      std::vector<std::pair<uint64_t, uint64_t>> iv;
      for (int32_t c : children[i]) {
        const Span& ch = spans[c];
        if (ch.start_ns < s.start_ns || ch.end_ns > s.end_ns) ++a.violations;
        iv.emplace_back(std::max(ch.start_ns, s.start_ns),
                        std::min(ch.end_ns, s.end_ns));
      }
      std::sort(iv.begin(), iv.end());
      uint64_t covered = 0, reach = s.start_ns;
      for (const auto& [b, e] : iv) {
        const uint64_t from = std::max(b, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      a.self_s[s.name] += static_cast<double>(dur - covered) * 1e-9;
      if (s.parent < 0) covered_ns[s.op] += dur;
    }
  }
  for (size_t op = 1; op < op_wall_ns.size(); ++op) {
    if (op_wall_ns[op] == 0) continue;
    ++a.ops;
    if (covered_ns[op] > op_wall_ns[op]) ++a.violations;
    a.wall_s += static_cast<double>(op_wall_ns[op]) * 1e-9;
  }
  double self = 0.0;
  for (double s : a.self_s) self += s;
  a.unattributed_s = a.wall_s - self;
  return a;
}

}  // namespace cpqbench
