// Copyright (c) memflow authors. MIT license.

#include "perfbench/src/recorder.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "common/json.h"

namespace memflow::perfbench {

namespace {
std::atomic<std::uint64_t> next_recorder_id{1};
}  // namespace

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[kNumSpanKinds] = {
      "rts.run", "rts.offer", "rts.submit", "body",
      "region.allocate", "region.open", "region.write", "region.read"};
  return kNames[static_cast<int>(kind)];
}

Recorder::Recorder() : id_(next_recorder_id.fetch_add(1)) {}

Recorder::Slot& Recorder::ThreadSlot() {
  thread_local Slot slot;
  return slot;
}

Recorder::Slot& Recorder::Attach() {
  Slot& slot = ThreadSlot();
  if (slot.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    buffers_.back().index = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back().spans.reserve(1 << 14);
    slot = Slot{id_, &buffers_.back(), 0};
  }
  return slot;
}

Recorder::Scope::Scope(Recorder* rec, SpanKind kind, std::uint32_t job, std::uint64_t bytes)
    : rec_(rec) {
  if (rec_ == nullptr) {
    return;
  }
  Slot& slot = rec_->Attach();
  span_.kind = kind;
  span_.job = job;
  span_.bytes = bytes;
  span_.id = (static_cast<std::uint64_t>(slot.buffer->index) << 40) |
             (slot.buffer->spans.size() + 1);
  span_.parent = slot.current != 0 ? slot.current : rec_->root_.load(std::memory_order_relaxed);
  prev_ = slot.current;
  slot.current = span_.id;
  // Reserve the span's slot now so ids stay dense per buffer.
  slot.buffer->spans.emplace_back();
  span_.start_ns = NowNs();
}

Recorder::Scope::~Scope() {
  if (rec_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  Slot& slot = ThreadSlot();
  slot.buffer->spans[(span_.id & ((std::uint64_t{1} << 40) - 1)) - 1] = span_;
  slot.current = prev_;
}

std::vector<Span> Recorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Buffer& b : buffers_) {
    out.insert(out.end(), b.spans.begin(), b.spans.end());
  }
  return out;
}

SpanTotals Recorder::Totals(const std::vector<Span>& spans) {
  // Children intervals per parent, for the covered-time subtraction.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  children.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SpanTotals t;
  for (const Span& s : spans) {
    const int k = static_cast<int>(s.kind);
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_start = 0;
      std::int64_t cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) {
          continue;
        }
        if (a > cur_end) {
          covered += std::max<std::int64_t>(0, cur_end - cur_start);
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      covered += std::max<std::int64_t>(0, cur_end - cur_start);
    }
    t.calls[k]++;
    t.total_ns[k] += dur;
    t.self_ns[k] += dur - covered;
    t.bytes[k] += s.bytes;
  }
  return t;
}

std::string Recorder::ChromeTrace(std::vector<Span> spans, std::size_t limit) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  if (spans.size() > limit) {
    spans.resize(limit);
  }
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\":" + JsonQuote(SpanKindName(s.kind)) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.id >> 40) +
           ",\"ts\":" + JsonNumber(static_cast<double>(s.start_ns - t0) / 1e3) +
           ",\"dur\":" + JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"request\":" + std::to_string(s.job) +
           ",\"span\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"bytes\":" + std::to_string(s.bytes) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace memflow::perfbench
