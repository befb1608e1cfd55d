// Copyright (c) memflow authors. MIT license.

#include "perfbench/src/episode.h"

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string_view>

#include "analysis/verifier.h"
#include "common/hash.h"
#include "perfbench/src/workloads.h"
#include "rts/serving.h"
#include "telemetry/selfprof.h"

namespace memflow::perfbench {

std::int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

void NoteCompletion(Tracker& tr, std::uint64_t completed, std::uint64_t total) {
  // Warm-up is the first fifth of the episode; the final sample is taken at
  // the last completion, before teardown frees anything.
  if (completed == std::max<std::uint64_t>(1, total / 5)) {
    tr.heap_warm = HeapInUse();
    tr.warm_jobs = completed;
  }
  if (completed == total) {
    tr.heap_end = HeapInUse();
    tr.end_jobs = completed;
  }
}

void WrapJob(Tracker& tr, std::size_t job_index, dataflow::Job& job) {
  for (std::uint32_t t = 0; t < job.num_tasks(); ++t) {
    dataflow::TaskSpec& spec = job.task(dataflow::TaskId{t});
    spec.fn = [&tr, job_index, fn = std::move(spec.fn)](dataflow::TaskContext& ctx) {
      tr.tasks_by_kind[static_cast<int>(ctx.device_kind())].fetch_add(
          1, std::memory_order_relaxed);
      // The clock stands still while a batch of bodies runs, so this is the
      // task's virtual start.
      const std::int64_t now = tr.clock->now().ns;
      std::atomic<std::int64_t>& first = tr.jobs[job_index].first_start_ns;
      std::int64_t seen = first.load(std::memory_order_relaxed);
      while (now < seen && !first.compare_exchange_weak(seen, now)) {
      }
      Recorder::Scope span(tr.rec, SpanKind::kBody, ctx.self().job);
      return fn(ctx);
    };
  }
}

Result<region::RegionId> TracedAllocateOutput(Tracker& tr, dataflow::TaskContext& ctx,
                                              std::uint64_t size) {
  Recorder::Scope span(tr.rec, SpanKind::kAllocate, ctx.self().job);
  return ctx.AllocateOutput(size);
}

Result<region::SyncAccessor> TracedOpenSync(Tracker& tr, dataflow::TaskContext& ctx,
                                            region::RegionId id) {
  Recorder::Scope span(tr.rec, SpanKind::kOpen, ctx.self().job);
  return ctx.OpenSync(id);
}

Result<SimDuration> TracedWrite(Tracker& tr, dataflow::TaskContext& ctx,
                                region::SyncAccessor& acc, const void* src,
                                std::uint64_t size) {
  Recorder::Scope span(tr.rec, SpanKind::kWrite, ctx.self().job, size);
  return acc.Write(0, src, size);
}

Result<SimDuration> TracedRead(Tracker& tr, dataflow::TaskContext& ctx,
                               region::SyncAccessor& acc, void* dst, std::uint64_t size) {
  Recorder::Scope span(tr.rec, SpanKind::kRead, ctx.self().job, size);
  return acc.Read(0, dst, size);
}

Result<region::AsyncAccessor> TracedOpenAsync(Tracker& tr, dataflow::TaskContext& ctx,
                                              region::RegionId id) {
  Recorder::Scope span(tr.rec, SpanKind::kOpen, ctx.self().job);
  return ctx.OpenAsync(id);
}

Result<SimDuration> TracedWrite(Tracker& tr, dataflow::TaskContext& ctx,
                                region::AsyncAccessor& acc, const void* src,
                                std::uint64_t size) {
  Recorder::Scope span(tr.rec, SpanKind::kWrite, ctx.self().job, size);
  acc.EnqueueWrite(0, src, size);
  return acc.Drain();
}

Result<SimDuration> TracedRead(Tracker& tr, dataflow::TaskContext& ctx,
                               region::AsyncAccessor& acc, void* dst, std::uint64_t size) {
  Recorder::Scope span(tr.rec, SpanKind::kRead, ctx.self().job, size);
  acc.EnqueueRead(0, dst, size);
  return acc.Drain();
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(rank + 0.5)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {

// "CXL-DRAM" -> "cxl_dram": metric-name-safe device kind.
std::string KindSuffix(std::string_view name) {
  std::string out;
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

void CollectCommon(rts::Runtime& rt, Tracker& tr, int workers, std::int64_t run_wall_ns,
                   std::uint64_t checkpoint_bytes, EpisodeResult& out) {
  // --- job outcomes (virtual) ---------------------------------------------------
  std::vector<double> lat_all;
  std::vector<double> lat_cls[kNumLatencyClasses];
  std::vector<double> wait_cls[kNumLatencyClasses];
  std::int64_t first_due = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_finish = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const JobRecord& j : tr.jobs) {
    first_due = std::min(first_due, j.due_ns);
    digest = HashCombine(digest, static_cast<std::uint64_t>(j.due_ns));
    digest = HashCombine(digest, static_cast<std::uint64_t>(j.finish_ns));
    digest = HashCombine(digest, j.ok ? 1 : 0);
    out.wrong += j.wrong.load() ? 1 : 0;
    if (!j.admitted || !j.done) {
      continue;
    }
    last_finish = std::max(last_finish, j.finish_ns);
    const double lat = static_cast<double>(j.finish_ns - j.due_ns);
    if (j.ok) {
      lat_all.push_back(lat);
      lat_cls[j.cls].push_back(lat);
    }
    const std::int64_t start = j.first_start_ns.load(std::memory_order_relaxed);
    if (start != std::numeric_limits<std::int64_t>::max()) {
      wait_cls[j.cls].push_back(static_cast<double>(start - j.due_ns));
    }
  }
  out.digest = HashCombine(digest, rt.self_profiler().Fingerprint());
  const double span_s = static_cast<double>(last_finish - first_due) / 1e9;
  Named& v = out.virt;
  v.emplace_back("sim_jobs_per_s", span_s > 0 ? static_cast<double>(out.completed) / span_s : 0);
  v.emplace_back("latency_p50_ns", Quantile(lat_all, 0.50));
  v.emplace_back("latency_p99_ns", Quantile(lat_all, 0.99));
  v.emplace_back("latency_samples", static_cast<double>(lat_all.size()));
  for (int c = 0; c < kNumLatencyClasses; ++c) {
    v.emplace_back(std::string(kClassNames[c]) + "_p99_ns", Quantile(lat_cls[c], 0.99));
    v.emplace_back(std::string(kClassNames[c]) + "_samples",
                   static_cast<double>(lat_cls[c].size()));
  }
  v.emplace_back("failed_share",
                 Share(static_cast<double>(out.failed), static_cast<double>(out.offered)));
  for (int c = 0; c < kNumLatencyClasses; ++c) {
    v.emplace_back(std::string("rts.queue_wait_p99_ns.") + kClassNames[c],
                   Quantile(wait_cls[c], 0.99));
  }

  // --- placement and memory shares (virtual) ------------------------------------
  double tasks_total = 0;
  for (const auto& n : tr.tasks_by_kind) {
    tasks_total += static_cast<double>(n.load());
  }
  for (int k = 0; k < simhw::kNumComputeDeviceKinds; ++k) {
    v.emplace_back("rts.placement.task_share." +
                       KindSuffix(ComputeDeviceKindName(static_cast<simhw::ComputeDeviceKind>(k))),
                   Share(static_cast<double>(tr.tasks_by_kind[k].load()), tasks_total));
  }
  double bytes_by_kind[simhw::kNumMemoryDeviceKinds] = {};
  double busy_by_kind[simhw::kNumMemoryDeviceKinds] = {};
  double bytes_total = 0;
  double busy_total = 0;
  for (const simhw::MemoryDeviceId id : rt.cluster().AllMemoryDevices()) {
    const simhw::MemoryDevice& dev = rt.cluster().memory(id);
    const int k = static_cast<int>(dev.profile().kind);
    const double bytes = static_cast<double>(dev.stats().bytes_read + dev.stats().bytes_written);
    const double busy = static_cast<double>(dev.stats().busy_time.ns);
    bytes_by_kind[k] += bytes;
    busy_by_kind[k] += busy;
    bytes_total += bytes;
    busy_total += busy;
  }
  for (int k = 0; k < simhw::kNumMemoryDeviceKinds; ++k) {
    const std::string kind =
        KindSuffix(MemoryDeviceKindName(static_cast<simhw::MemoryDeviceKind>(k)));
    v.emplace_back("region.bytes_share." + kind, Share(bytes_by_kind[k], bytes_total));
    v.emplace_back("simhw.busy_share." + kind, Share(busy_by_kind[k], busy_total));
  }
  const rts::RuntimeStats& st = rt.stats();
  const double jobs = std::max<double>(1, static_cast<double>(out.completed));
  const double tasks = std::max<double>(1, static_cast<double>(st.tasks_executed));
  v.emplace_back("region.zero_copy_share",
                 Share(static_cast<double>(st.zero_copy_handovers),
                       static_cast<double>(st.zero_copy_handovers + st.copied_handovers)));
  v.emplace_back("simhw.bytes_per_job", bytes_total / jobs);
  v.emplace_back("region.allocations_per_job",
                 static_cast<double>(rt.regions().stats().allocations) / jobs);
  v.emplace_back("region.live_regions_end",
                 static_cast<double>(rt.regions().LiveRegions().size()));

  const telemetry::SelfProfile prof = rt.self_profiler().Report(run_wall_ns);
  const auto phase = [&](telemetry::Phase p) -> const telemetry::PhaseStat& {
    return prof.phases[static_cast<int>(p)];
  };
  // The worker tree lists only phases that ran on workers.
  const auto worker_phase = [&](telemetry::Phase p) {
    for (const telemetry::PhaseStat& s : prof.worker_phases) {
      if (s.phase == p) {
        return s;
      }
    }
    return telemetry::PhaseStat{.phase = p};
  };
  const double batches = static_cast<double>(phase(telemetry::Phase::kBatchRun).calls);
  v.emplace_back("rts.tasks_per_batch", Share(static_cast<double>(st.tasks_executed), batches));
  const rts::CostModel& model = rt.cost_model();
  v.emplace_back("rts.cost_model.memo_hits", static_cast<double>(model.memo_hits()));
  v.emplace_back("rts.cost_model.memo_misses", static_cast<double>(model.memo_misses()));
  v.emplace_back("rts.cost_model.memo_hit_ratio",
                 Share(static_cast<double>(model.memo_hits()),
                       static_cast<double>(model.memo_hits() + model.memo_misses())));
  const double ckpt_bytes = static_cast<double>(checkpoint_bytes);
  v.emplace_back("rts.checkpoint.bytes_per_job", ckpt_bytes / jobs);

  // --- host-time per-layer values -------------------------------------------------
  Named& h = out.host;
  const auto ns = [](const telemetry::PhaseStat& s, bool inclusive) {
    return static_cast<double>(inclusive ? s.inclusive_ns : s.exclusive_ns);
  };
  h.emplace_back("rts.phase.event_drain_ns_per_task",
                 ns(phase(telemetry::Phase::kEventDrain), false) / tasks);
  h.emplace_back("rts.phase.stage_ns_per_task", ns(phase(telemetry::Phase::kStage), false) / tasks);
  h.emplace_back("rts.phase.batch_commit_ns_per_task",
                 ns(phase(telemetry::Phase::kBatchCommit), false) / tasks);
  double lock_wait = 0;
  const telemetry::MetricsSnapshot snap = rt.metrics().Snapshot();
  if (const telemetry::FamilySnapshot* f = snap.FindFamily("region_lock_wait_ns_total")) {
    for (const telemetry::SeriesSnapshot& s : f->series) {
      lock_wait += static_cast<double>(s.counter);
    }
  }
  h.emplace_back("region.lock_wait_ns_per_job", lock_wait / jobs);
  const double encode_ns = ns(phase(telemetry::Phase::kCheckpointEncode), true) +
                           ns(worker_phase(telemetry::Phase::kCheckpointEncode), true);
  h.emplace_back("rts.checkpoint.encode_ns_per_mib",
                 Share(encode_ns, ckpt_bytes / (1024.0 * 1024.0)));
  const double retained_jobs = static_cast<double>(tr.end_jobs - tr.warm_jobs);
  h.emplace_back("rts.retained_kib_per_kjob",
                 retained_jobs > 0 ? static_cast<double>(tr.heap_end - tr.heap_warm) / 1024.0 /
                                         retained_jobs * 1000.0
                                   : 0);
  const double verify_ns = ns(phase(telemetry::Phase::kAdmissionVerify), true);

  if (tr.rec == nullptr) {
    return;
  }
  std::vector<Span> spans = tr.rec->Collect();
  const SpanTotals t = Recorder::Totals(spans);
  const auto k = [](SpanKind s) { return static_cast<int>(s); };
  const auto per_call = [&](SpanKind s) {
    return Share(static_cast<double>(t.total_ns[k(s)]), static_cast<double>(t.calls[k(s)]));
  };
  const auto per_kib = [&](SpanKind s) {
    return Share(static_cast<double>(t.total_ns[k(s)]),
                 static_cast<double>(t.bytes[k(s)]) / 1024.0);
  };
  h.emplace_back("rts.run_self_ns_per_task",
                 static_cast<double>(t.self_ns[k(SpanKind::kRun)]) / tasks);
  h.emplace_back("rts.offer_ns", per_call(SpanKind::kOffer));
  h.emplace_back("rts.submit_ns", per_call(SpanKind::kSubmit));
  h.emplace_back("region.allocate_ns", per_call(SpanKind::kAllocate));
  h.emplace_back("region.open_ns", per_call(SpanKind::kOpen));
  h.emplace_back("region.write_ns_per_kib", per_kib(SpanKind::kWrite));
  h.emplace_back("region.read_ns_per_kib", per_kib(SpanKind::kRead));
  // Checkpoint encoding runs inside the (instrumented) body span; it is the
  // runtime's work, not the body's.
  const double body_self = static_cast<double>(t.self_ns[k(SpanKind::kBody)]) - encode_ns;
  h.emplace_back("body.user_ns_per_task", body_self / tasks);
  h.emplace_back("rts.worker_busy_share",
                 Share(static_cast<double>(t.total_ns[k(SpanKind::kBody)]),
                       workers * ns(phase(telemetry::Phase::kBatchRun), true)));

  // Per-layer self time per job. Verification runs inside Offer/Submit.
  double region_self = 0;
  for (const SpanKind s :
       {SpanKind::kAllocate, SpanKind::kOpen, SpanKind::kWrite, SpanKind::kRead}) {
    region_self += static_cast<double>(t.self_ns[k(s)]);
  }
  const double rts_self = static_cast<double>(t.self_ns[k(SpanKind::kRun)] +
                                              t.self_ns[k(SpanKind::kOffer)] +
                                              t.self_ns[k(SpanKind::kSubmit)]) -
                          verify_ns;
  h.emplace_back("rts.self_ns_per_job", rts_self / jobs);
  h.emplace_back("analysis.self_ns_per_job", verify_ns / jobs);
  h.emplace_back("region.self_ns_per_job", region_self / jobs);
  h.emplace_back("rts.checkpoint.self_ns_per_job", encode_ns / jobs);
  h.emplace_back("body.self_ns_per_job", body_self / jobs);
  out.chrome_trace = Recorder::ChromeTrace(std::move(spans), 20000);
}

Named TimeAdmission(simhw::Cluster& cluster, const std::vector<dataflow::Job>& jobs) {
  telemetry::Registry registry;
  rts::RuntimeOptions ropts;
  ropts.worker_threads = 1;
  ropts.registry = &registry;
  rts::Runtime rt(cluster, ropts);
  rts::ServingLayer serving(rt);
  std::vector<double> verify_ns;
  std::vector<double> estimate_ns;
  const auto elapsed = [](std::chrono::steady_clock::time_point since) {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
  };
  for (int pass = 0; pass < 9; ++pass) {
    for (const dataflow::Job& job : jobs) {
      auto t = std::chrono::steady_clock::now();
      analysis::Report report = analysis::Verify(job, &cluster);
      benchmark::DoNotOptimize(report);
      verify_ns.push_back(elapsed(t));
      t = std::chrono::steady_clock::now();
      SimDuration estimate = serving.EstimateJobCost(job);
      benchmark::DoNotOptimize(estimate);
      estimate_ns.push_back(elapsed(t));
    }
  }
  return {{"analysis.verify_ns", Median(verify_ns)}, {"rts.estimate_ns", Median(estimate_ns)}};
}

}  // namespace memflow::perfbench
