// Copyright (c) memflow authors. MIT license.
//
// One episode = one fresh cluster + runtime driven through a fixed,
// seed-determined set of jobs. The timed phase repeats episodes of the same
// seed until the run's time is used up, so every episode must produce
// bit-identical virtual-time results — the determinism check compares them.
// This header holds what all three workloads share: the per-job records the
// bodies and observers fill, the body/region-call wrappers that feed the span
// recorder, and the read-out of the runtime's own counters after a run.

#ifndef MEMFLOW_PERFBENCH_EPISODE_H_
#define MEMFLOW_PERFBENCH_EPISODE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/context.h"
#include "dataflow/job.h"
#include "perfbench/src/recorder.h"
#include "rts/runtime.h"

namespace memflow::perfbench {

using Named = std::vector<std::pair<std::string, double>>;

// Latency classes the results are split by. Closed-loop jobs count as batch.
enum LatencyClass : int { kInteractive = 0, kBatch = 1 };
inline constexpr int kNumLatencyClasses = 2;
inline constexpr const char* kClassNames[kNumLatencyClasses] = {"interactive", "batch"};

struct JobRecord {
  std::int64_t due_ns = 0;  // virtual arrival (open loop) or submit (closed loop)
  std::atomic<std::int64_t> first_start_ns{std::numeric_limits<std::int64_t>::max()};
  std::int64_t finish_ns = -1;
  int cls = kBatch;
  bool admitted = false;
  bool done = false;  // reached a terminal state after admission
  bool ok = false;    // finished with OK status and a correct output
  // Set by whichever check (body or observer) found the output wrong.
  std::atomic<bool> wrong{false};
};

// Per-episode state shared between the workload's loop and task bodies.
struct Tracker {
  explicit Tracker(std::size_t num_jobs) : jobs(num_jobs) {}

  Recorder* rec = nullptr;  // null = untraced
  const simhw::VirtualClock* clock = nullptr;
  std::vector<JobRecord> jobs;
  std::array<std::atomic<std::uint64_t>, simhw::kNumComputeDeviceKinds> tasks_by_kind{};
  // Heap in use (bytes) at two completion counts, for retained memory.
  std::int64_t heap_warm = 0;
  std::int64_t heap_end = 0;
  std::uint64_t warm_jobs = 0;
  std::uint64_t end_jobs = 0;
};

// Bytes the allocator has handed out and not taken back (all arenas plus
// mmapped chunks). Unlike RSS it also rises when freed pages of an earlier
// episode get reused, so it shows per-job retention in every episode.
std::int64_t HeapInUse();

// Samples the heap at the warm-up and final completion counts.
void NoteCompletion(Tracker& tr, std::uint64_t completed, std::uint64_t total);

// Wraps every task body of `job`: counts the task's device kind, records the
// job's first virtual start (queue wait), and opens a body span.
void WrapJob(Tracker& tr, std::size_t job_index, dataflow::Job& job);

// Region calls made by benchmark bodies, each under its own span.
Result<region::RegionId> TracedAllocateOutput(Tracker& tr, dataflow::TaskContext& ctx,
                                              std::uint64_t size);
Result<region::SyncAccessor> TracedOpenSync(Tracker& tr, dataflow::TaskContext& ctx,
                                            region::RegionId id);
Result<SimDuration> TracedWrite(Tracker& tr, dataflow::TaskContext& ctx,
                                region::SyncAccessor& acc, const void* src,
                                std::uint64_t size);
Result<SimDuration> TracedRead(Tracker& tr, dataflow::TaskContext& ctx,
                               region::SyncAccessor& acc, void* dst, std::uint64_t size);
// Asynchronous counterparts, for regions a task cannot load/store directly
// (e.g. another node's DRAM across the fabric). Write/read = enqueue + drain.
Result<region::AsyncAccessor> TracedOpenAsync(Tracker& tr, dataflow::TaskContext& ctx,
                                              region::RegionId id);
Result<SimDuration> TracedWrite(Tracker& tr, dataflow::TaskContext& ctx,
                                region::AsyncAccessor& acc, const void* src,
                                std::uint64_t size);
Result<SimDuration> TracedRead(Tracker& tr, dataflow::TaskContext& ctx,
                               region::AsyncAccessor& acc, void* dst, std::uint64_t size);

struct EpisodeResult {
  double setup_s = 0;   // build cluster/runtime/tenants/schedule
  double run_s = 0;     // RunToCompletion wall
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;  // finished ok with a correct output
  std::uint64_t failed = 0;     // refused, failed, or wrong output
  std::uint64_t wrong = 0;      // jobs whose output check failed
  // Virtual-time values in a fixed order, compared bit-for-bit across runs,
  // worker counts and seeds' repeat runs; plus a digest of the job log.
  Named virt;
  std::uint64_t digest = 0;
  // Host-time per-layer values (meaningful on traced episodes).
  Named host;
  std::string chrome_trace;

  double JobsPerSec() const { return run_s > 0 ? static_cast<double>(completed) / run_s : 0; }
};

// Nearest-rank quantile of an unsorted sample (copied). 0 when empty.
double Quantile(std::vector<double> v, double p);
double Median(std::vector<double> v);

// Everything read the same way on every workload once the run ended:
// latency and queue-wait quantiles, placement and memory shares, region and
// cost-model counters, the self-profiler's phases, and (when traced) the
// span totals. `checkpoint_bytes` is what the episode's checkpointers wrote.
void CollectCommon(rts::Runtime& rt, Tracker& tr, int workers, std::int64_t run_wall_ns,
                   std::uint64_t checkpoint_bytes, EpisodeResult& out);

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_EPISODE_H_
