// Copyright (c) memflow authors. MIT license.
//
// serve_burst: an open loop on virtual time into rts::ServingLayer on the
// CXL expansion host. Two tenants send 2-task producer->consumer jobs with a
// 4 KiB handover: interactive (priority 1, deadline) and batch (weight 2,
// 4x the compute). Arrivals are seeded MMPP bursts whose mean stays below
// capacity while bursts exceed it. Every arrival is scheduled on the
// runtime's timeline before the run, so the load costs no threads and each
// job is offered exactly when it is due.

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "rts/serving.h"
#include "simhw/presets.h"
#include "testing/arrivals.h"
#include "perfbench/src/workloads.h"

namespace memflow::perfbench {
namespace {

constexpr std::uint64_t kHandoverBytes = 4096;
constexpr std::size_t kWords = kHandoverBytes / 8;
// Compute per task, in work units (~1 ns each on the host's CPU).
constexpr double kInteractiveWork = 20000;
constexpr double kBatchWork = 4 * kInteractiveWork;
constexpr SimDuration kInteractiveDeadline = SimDuration::Millis(2);
// Virtual horizon of one episode, and of one rung of the capacity ladder.
constexpr SimDuration kHorizon = SimDuration::Millis(1000);
constexpr SimDuration kRungHorizon = SimDuration::Millis(60);
// Mean offered rate of the measured episodes (jobs per virtual second, both
// tenants together), and the ladder of rates the SLO capacity is read from.
constexpr double kOfferedRate = 30000;
constexpr double kLadder[] = {30000, 35000, 40000, 45000, 50000, 55000, 60000};
// Share of arrivals from the interactive tenant.
constexpr double kInteractiveShare = 0.7;
// MMPP-2 shape: 0.4 ms calm, 0.1 ms bursts at 4x the calm rate, i.e. at
// 2.5x the mean — above the ~52K jobs/s the host's 4 CPU queues serve.
// Short cycles give thousands of independent bursts per episode, so the
// tails, not just the means, are steady from seed to seed.
constexpr double kBurstMultiplier = 4;
constexpr SimDuration kMeanCalm = SimDuration::Micros(400);
constexpr SimDuration kMeanBurst = SimDuration::Micros(100);

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t PayloadWord(std::uint64_t seed, std::size_t job, std::size_t i) {
  return MixU64(HashCombine(HashCombine(seed, job), i));
}

dataflow::Job MakeServeJob(Tracker& tr, std::uint64_t seed, std::size_t k, int cls,
                           bool corrupt) {
  const double work = cls == kInteractive ? kInteractiveWork : kBatchWork;
  dataflow::Job job("serve-" + std::to_string(k));
  dataflow::TaskProperties props;
  props.compute_device = simhw::ComputeDeviceKind::kCPU;
  props.base_work = work;
  dataflow::TaskProperties producer_props = props;
  producer_props.output_bytes = kHandoverBytes;
  const dataflow::TaskId producer = job.AddTask(
      "produce", producer_props, [&tr, seed, k, work, corrupt](dataflow::TaskContext& ctx) {
        MEMFLOW_ASSIGN_OR_RETURN(region::RegionId out,
                                 TracedAllocateOutput(tr, ctx, kHandoverBytes));
        MEMFLOW_ASSIGN_OR_RETURN(region::SyncAccessor acc, TracedOpenSync(tr, ctx, out));
        std::uint64_t buf[kWords];
        for (std::size_t i = 0; i < kWords; ++i) {
          buf[i] = PayloadWord(seed, k, i);
        }
        if (corrupt) {
          buf[kWords / 2] ^= 1;
        }
        MEMFLOW_ASSIGN_OR_RETURN(SimDuration w, TracedWrite(tr, ctx, acc, buf, kHandoverBytes));
        ctx.Charge(w);
        ctx.ChargeCompute(work);
        return OkStatus();
      });
  const dataflow::TaskId consumer =
      job.AddTask("consume", props, [&tr, seed, k, work](dataflow::TaskContext& ctx) {
        if (ctx.inputs().size() != 1) {
          return Internal("consumer expects one input");
        }
        MEMFLOW_ASSIGN_OR_RETURN(region::SyncAccessor acc,
                                 TracedOpenSync(tr, ctx, ctx.inputs().front()));
        std::uint64_t buf[kWords];
        MEMFLOW_ASSIGN_OR_RETURN(SimDuration r, TracedRead(tr, ctx, acc, buf, kHandoverBytes));
        ctx.Charge(r);
        for (std::size_t i = 0; i < kWords; ++i) {
          if (buf[i] != PayloadWord(seed, k, i)) {
            tr.jobs[k].wrong.store(true);
            return DataLoss("serve payload mismatch at word " + std::to_string(i));
          }
        }
        ctx.ChargeCompute(work);
        return OkStatus();
      });
  MEMFLOW_CHECK(job.Connect(producer, consumer).ok());
  return job;
}

// One open-loop run at mean offered `rate` over `horizon`.
struct ServeRun {
  EpisodeResult result;
  double interactive_p99_with_refusals_ns = 0;  // refused/failed = +inf
  bool drained = false;
  // Refusals per admission rule, in kRefusalRules order.
  std::uint64_t refused[4] = {};
};

constexpr const char* kRefusalRules[4] = {rts::kServeRejectQuota, rts::kServeRejectSlo,
                                          rts::kServeRejectInfeasible,
                                          rts::kServeShedBackpressure};

ServeRun RunServe(const EpisodeOptions& opts, double rate, SimDuration horizon) {
  ServeRun out;
  EpisodeResult& res = out.result;
  const auto t0 = Clock::now();
  simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
  telemetry::Registry registry;
  rts::RuntimeOptions ropts;
  ropts.worker_threads = opts.workers;
  ropts.registry = &registry;
  rts::Runtime rt(*host.cluster, ropts);
  rts::ServingLayer serving(rt);
  (void)serving.AddTenant({.name = "interactive",
                           .weight = 1.0,
                           .priority = 1,
                           .deadline = kInteractiveDeadline,
                           .slo = dataflow::SloClass::kInteractive});
  (void)serving.AddTenant({.name = "batch",
                           .weight = 2.0,
                           .deadline = SimDuration{},
                           .slo = dataflow::SloClass::kBatch});

  // Each tenant's calm rate is set so its MMPP mean is its share of `rate`.
  // Every episode offers exactly that many jobs per tenant (the first ones
  // of each seeded stream), so seeds vary the burst pattern, not the load.
  const double burst_share =
      kMeanBurst.ToSeconds() / (kMeanBurst.ToSeconds() + kMeanCalm.ToSeconds());
  const double shares[kNumLatencyClasses] = {kInteractiveShare, 1.0 - kInteractiveShare};
  std::vector<testing::ArrivalSpec> specs(kNumLatencyClasses);
  std::size_t quota[kNumLatencyClasses];
  for (int t = 0; t < kNumLatencyClasses; ++t) {
    const double mean = rate * shares[t];
    quota[t] = static_cast<std::size_t>(mean * horizon.ToSeconds());
    specs[t].kind = testing::ArrivalKind::kBursty;
    specs[t].rate_per_sec = mean / (1.0 - burst_share + burst_share * kBurstMultiplier);
    specs[t].burst_multiplier = kBurstMultiplier;
    specs[t].mean_calm = kMeanCalm;
    specs[t].mean_burst = kMeanBurst;
  }
  std::vector<testing::MergedArrival> arrivals;
  for (const testing::MergedArrival& a :
       testing::MergeArrivals(specs, opts.seed, SimTime{} + horizon * 2)) {
    if (quota[a.tenant] > 0) {
      quota[a.tenant]--;
      arrivals.push_back(a);
    }
  }

  Tracker tr(arrivals.size());
  tr.rec = opts.rec;
  tr.clock = &rt.clock();
  // Job ids are dense from 1, so a vector maps them back to arrival indices.
  std::vector<std::uint32_t> index_of_job(arrivals.size() + 2, 0);
  std::int64_t late_ns = 0;
  const std::size_t corrupt_at = opts.corrupt ? std::min<std::size_t>(7, arrivals.size() - 1)
                                              : arrivals.size();
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const testing::MergedArrival a = arrivals[k];
    const int cls = a.tenant == 0 ? kInteractive : kBatch;
    tr.jobs[k].due_ns = a.at.ns;
    tr.jobs[k].cls = cls;
    rt.ScheduleAt(a.at, [&, a, k, cls](SimTime now) {
      late_ns = std::max(late_ns, (now - a.at).ns);
      // The serving layer owns the job observer, so retained memory is
      // sampled per arrival rather than per completion.
      NoteCompletion(tr, k + 1, arrivals.size());
      dataflow::Job job = MakeServeJob(tr, opts.seed, k, cls, k == corrupt_at);
      WrapJob(tr, k, job);
      Recorder::Scope span(tr.rec, SpanKind::kOffer);
      const rts::AdmissionDecision d = serving.Offer(a.tenant, std::move(job));
      if (d.admitted) {
        span.set_job(d.job.value);
        tr.jobs[k].admitted = true;
        index_of_job[d.job.value] = static_cast<std::uint32_t>(k);
      }
    });
  }
  const auto t1 = Clock::now();
  res.setup_s = Seconds(t0, t1);
  Status status;
  {
    Recorder::Scope run(tr.rec, SpanKind::kRun);
    if (tr.rec != nullptr) {
      tr.rec->set_root(run.id());
    }
    status = rt.RunToCompletion();
  }
  const auto t2 = Clock::now();
  res.run_s = Seconds(t1, t2);
  MEMFLOW_CHECK_MSG(status.ok(), status.ToString().c_str());

  for (const rts::ServedJob& sj : serving.served()) {
    JobRecord& j = tr.jobs[index_of_job[sj.job.value]];
    j.done = true;
    j.finish_ns = sj.finished.ns;
    j.ok = sj.ok && !j.wrong.load();
  }
  res.offered = arrivals.size();
  std::vector<double> interactive;
  std::uint64_t misses = 0;
  std::uint64_t interactive_offered = 0;
  std::int64_t last_finish = 0;
  for (const JobRecord& j : tr.jobs) {
    res.completed += j.ok ? 1 : 0;
    res.failed += j.ok ? 0 : 1;
    last_finish = std::max(last_finish, j.finish_ns - arrivals.back().at.ns);
    if (j.cls != kInteractive) {
      continue;
    }
    interactive_offered++;
    const bool late = j.finish_ns - j.due_ns > kInteractiveDeadline.ns;
    misses += (!j.ok || late) ? 1 : 0;
    interactive.push_back(j.ok ? static_cast<double>(j.finish_ns - j.due_ns)
                               : std::numeric_limits<double>::infinity());
  }
  out.interactive_p99_with_refusals_ns = Quantile(interactive, 0.99);
  out.drained = last_finish <= horizon.ns / 20;  // after the last arrival

  CollectCommon(rt, tr, opts.workers, static_cast<std::int64_t>(res.run_s * 1e9), 0, res);
  res.virt.emplace_back("deadline_miss_share",
                        interactive_offered > 0 ? static_cast<double>(misses) /
                                                      static_cast<double>(interactive_offered)
                                                : 0);
  for (std::size_t t = 0; t < serving.num_tenants(); ++t) {
    const rts::TenantStats& s = serving.stats(t);
    out.refused[0] += s.rejected_quota;
    out.refused[1] += s.rejected_slo;
    out.refused[2] += s.rejected_infeasible;
    out.refused[3] += s.shed;
  }
  res.virt.emplace_back("testing.generator_late_ns", static_cast<double>(late_ns));
  return out;
}

class ServeBurst : public Workload {
 public:
  std::string Describe() const override {
    return "serve_burst: open loop (virtual time) into ServingLayer on the CXL expansion host; "
           "MMPP bursts (0.4 ms calm, 0.1 ms at 4x), mean " +
           std::to_string(static_cast<int>(kOfferedRate)) + " jobs/s over " +
           std::to_string(kHorizon.ns / 1000000) +
           " ms; jobs = CPU producer->consumer with a 4 KiB handover; 70% interactive (prio 1, " +
           std::to_string(kInteractiveDeadline.ns / 1000) +
           " us deadline), 30% batch (weight 2, 4x compute)";
  }

  void Prepare(std::uint64_t) override {}  // consumers check payloads in-line

  EpisodeResult Run(const EpisodeOptions& opts) override {
    return RunServe(opts, kOfferedRate, kHorizon).result;
  }

  Named Extras(std::uint64_t seed, int workers) override {
    // Highest rung whose interactive p99 (refusals counted as misses) meets
    // the deadline and whose backlog drains within 5% of the horizon after
    // the last arrival. Refusals are counted over all rungs: the upper ones
    // are where admission control acts.
    double capacity = 0;
    std::uint64_t refused[4] = {};
    Named out;
    for (const double rate : kLadder) {
      const ServeRun r = RunServe({.seed = seed, .workers = workers}, rate, kRungHorizon);
      if (r.drained &&
          r.interactive_p99_with_refusals_ns <= static_cast<double>(kInteractiveDeadline.ns)) {
        capacity = rate;
      }
      for (int k = 0; k < 4; ++k) {
        refused[k] += r.refused[k];
      }
      out.emplace_back("ladder." + std::to_string(static_cast<int>(rate)) + ".interactive_p99_ns",
                       r.interactive_p99_with_refusals_ns);
    }
    out.emplace_back("slo_capacity_jobs_per_s", capacity);
    for (int k = 0; k < 4; ++k) {
      out.emplace_back(std::string("rts.refused.") + kRefusalRules[k],
                       static_cast<double>(refused[k]));
    }
    return out;
  }

  Named ProbeAdmission(std::uint64_t seed) override {
    simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
    Tracker tr(2);
    std::vector<dataflow::Job> jobs;
    jobs.push_back(MakeServeJob(tr, seed, 0, kInteractive, false));
    jobs.push_back(MakeServeJob(tr, seed, 1, kBatch, false));
    return TimeAdmission(*host.cluster, jobs);
  }
};

}  // namespace

std::unique_ptr<Workload> MakeServeBurst() { return std::make_unique<ServeBurst>(); }

}  // namespace memflow::perfbench
