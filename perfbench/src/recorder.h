// Copyright (c) memflow authors. MIT license.
//
// The benchmark's own span recorder. Spans are taken from outside the
// runtime, around calls into each module's public functions: the dispatch
// loop (RunToCompletion), each Offer/Submit, each task body, and each region
// call a benchmark body makes. Bodies run on the runtime's worker threads, so
// every thread appends to its own buffer; nothing is merged until the episode
// ends. A span's self time is its duration minus the part of its interval
// that its children cover.

#ifndef MEMFLOW_PERFBENCH_RECORDER_H_
#define MEMFLOW_PERFBENCH_RECORDER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace memflow::perfbench {

enum class SpanKind : std::uint8_t {
  kRun = 0,   // Runtime::RunToCompletion
  kOffer,     // ServingLayer::Offer
  kSubmit,    // Runtime::Submit
  kBody,      // one task body (checkpoint wrapper included)
  kAllocate,  // TaskContext::AllocateOutput / AllocatePrivateScratch
  kOpen,      // TaskContext::OpenSync
  kWrite,     // SyncAccessor::Write
  kRead,      // SyncAccessor::Read
};
inline constexpr int kNumSpanKinds = 8;

const char* SpanKindName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // unique within one recorder
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t job = 0;     // request id (JobId value; 0 = none)
  SpanKind kind = SpanKind::kRun;
  std::uint64_t bytes = 0;   // payload of region reads/writes
};

// Per-kind totals over one episode's spans.
struct SpanTotals {
  std::array<std::uint64_t, kNumSpanKinds> calls{};
  std::array<std::int64_t, kNumSpanKinds> total_ns{};
  std::array<std::int64_t, kNumSpanKinds> self_ns{};
  std::array<std::uint64_t, kNumSpanKinds> bytes{};
};

class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Parent for spans opened on a thread that has no open span of its own
  // (task bodies on worker threads belong to the enclosing dispatch loop).
  void set_root(std::uint64_t id) { root_.store(id, std::memory_order_relaxed); }

  // RAII span: opens on construction, records on destruction. A null
  // recorder makes it a no-op, which is how the untraced runs skip tracing.
  class Scope {
   public:
    Scope(Recorder* rec, SpanKind kind, std::uint32_t job = 0, std::uint64_t bytes = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return span_.id; }
    void set_job(std::uint32_t job) { span_.job = job; }

   private:
    Recorder* rec_;
    Span span_;
    std::uint64_t prev_ = 0;
  };

  // Every recorded span, across threads. Call once no scope is open.
  std::vector<Span> Collect() const;

  // Per-kind call counts, summed durations and summed self times.
  static SpanTotals Totals(const std::vector<Span>& spans);

  // Chrome trace-event JSON of the first `limit` spans (by start time), with
  // the request id as an arg; loadable in chrome://tracing or Perfetto.
  static std::string ChromeTrace(std::vector<Span> spans, std::size_t limit);

 private:
  struct Buffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
  };
  struct Slot {
    std::uint64_t owner = 0;
    Buffer* buffer = nullptr;
    std::uint64_t current = 0;
  };
  static Slot& ThreadSlot();
  Slot& Attach();

  const std::uint64_t id_;
  std::atomic<std::uint64_t> root_{0};
  mutable std::mutex mu_;      // guards buffers_ growth only
  std::deque<Buffer> buffers_;  // deque: stable addresses for thread slots
};

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_RECORDER_H_
