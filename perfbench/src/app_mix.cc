// Copyright (c) memflow authors. MIT license.
//
// app_mix: 4 closed-loop virtual clients on the CXL expansion host submit
// the paper's applications in a seeded order — DBMS scan-aggregate and hash
// join, ML training with persisted weights, the Figure 2 hospital pipeline,
// the HPC stencil, and streaming windows — each in one of three sizes. Every
// output is compared with the app's host reference (ML: the loss must
// decrease). This is the workload where placement chooses among GPU/CPU,
// confidential, persistent and global-state devices.

#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "apps/dbms.h"
#include "apps/hospital.h"
#include "apps/hpc.h"
#include "apps/ml.h"
#include "apps/streaming.h"
#include "common/rng.h"
#include "simhw/presets.h"
#include "perfbench/src/workloads.h"

namespace memflow::perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kJobsPerClient = 180;
constexpr int kJobs = kClients * kJobsPerClient;

enum App : int { kScan = 0, kJoin, kTrain, kHospital, kStencil, kStream, kNumApps };
// Sizes per app: variant v scales the base size by 1 + v/4. Several sizes
// spread each app's latency, so the latency quantiles do not sit in a gap
// between a few fixed modes, and keep the cost-model memo from always hitting.
constexpr int kVariants = 3;
static_assert(kJobs % (kNumApps * kVariants) == 0, "each (app, variant) appears equally often");

std::uint64_t Scaled(std::uint64_t base, int v) {
  return base + base * static_cast<std::uint64_t>(v) / 4;
}

apps::dbms::TableSpec ScanSpec(int v) {
  return {.rows = Scaled(32000, v), .groups = 32, .seed = 11 + static_cast<std::uint64_t>(v)};
}
double ScanSelectivity(int v) { return 0.3 + 0.1 * v; }
apps::dbms::TableSpec JoinFact(int v) {
  return {.rows = Scaled(32000, v), .groups = 200, .seed = 3};
}
apps::dbms::TableSpec JoinDim(int v) {
  return {.rows = Scaled(200, v), .groups = 16, .seed = 4};
}
apps::ml::MlSpec TrainSpec(int v) {
  apps::ml::MlSpec spec;
  spec.examples = Scaled(6000, v);
  spec.features = 4;
  spec.epochs = 4;
  spec.learning_rate = 0.2;
  return spec;
}
apps::hospital::HospitalSpec HospitalSpec(int v) {
  apps::hospital::HospitalSpec spec;
  spec.minutes = static_cast<int>(Scaled(8 * 60, v));
  spec.staff = 10;
  spec.patients = 20;
  return spec;
}
apps::hpc::StencilSpec StencilSpec(int v) {
  const int n = 48 + 4 * v;
  return {.nx = n, .ny = n, .sweeps = 4};
}
apps::streaming::StreamSpec StreamSpec(int v) {
  apps::streaming::StreamSpec spec;
  spec.events = Scaled(32000, v);
  spec.sensors = 8;
  spec.window_events = 4000;
  return spec;
}

dataflow::Job BuildApp(int app, int v) {
  switch (app) {
    case kScan:
      return apps::dbms::BuildScanAggregateJob(ScanSpec(v), ScanSelectivity(v));
    case kJoin:
      return apps::dbms::BuildJoinJob(JoinFact(v), JoinDim(v));
    case kTrain:
      return apps::ml::BuildTrainingJob(TrainSpec(v), /*persist_weights=*/true);
    case kHospital:
      return apps::hospital::BuildHospitalJob(HospitalSpec(v));
    case kStencil:
      return apps::hpc::BuildStencilJob(StencilSpec(v));
    default:
      return apps::streaming::BuildStreamingJob(StreamSpec(v));
  }
}

// Host references, one per (app, variant); computed once per process.
struct References {
  std::vector<double> scan[kVariants];
  double join[kVariants] = {};
  apps::hospital::HospitalExpectation hospital[kVariants];
  std::vector<double> stencil[kVariants];
  std::vector<double> stream[kVariants];
};

// Reads a sink output region through the job's principal. With `corrupt`,
// first overwrites its leading bytes, as a faulty device would.
template <typename T>
std::vector<T> ReadOutput(rts::Runtime& rt, const rts::JobReport& report, region::RegionId id,
                          bool corrupt) {
  auto info = rt.regions().Info(id);
  MEMFLOW_CHECK(info.ok());
  std::vector<T> out(info->size / sizeof(T));
  auto acc = rt.regions().OpenAsync(id, rt.JobPrincipal(report.id),
                                    rt.cluster().AllComputeDevices().front());
  MEMFLOW_CHECK(acc.ok());
  if (corrupt && !out.empty()) {
    const std::uint64_t garbage = 0x7ff0dead7ff0deadULL;
    acc->EnqueueWrite(0, &garbage, std::min<std::size_t>(sizeof(garbage), info->size));
  }
  acc->EnqueueRead(0, out.data(), out.size() * sizeof(T));
  MEMFLOW_CHECK(acc->Drain().ok());
  return out;
}

region::RegionId OutputOf(const rts::JobReport& report, std::string_view task) {
  for (const rts::TaskReport& t : report.tasks) {
    if (t.name == task) {
      return t.output;
    }
  }
  return {};
}

bool Near(const std::vector<double>& got, const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= tol * std::max(1.0, std::abs(want[i])))) {
      return false;
    }
  }
  return true;
}

class AppMix : public Workload {
 public:
  std::string Describe() const override {
    return "app_mix: closed loop, 4 clients, on the CXL expansion host; seeded order over "
           "{dbms scan-aggregate, dbms hash join, ML training (persisted weights), hospital "
           "pipeline, HPC stencil, streaming windows} x 3 sizes; " +
           std::to_string(kJobs) + " jobs per episode";
  }

  void Prepare(std::uint64_t) override {
    if (ready_) {
      return;
    }
    for (int v = 0; v < kVariants; ++v) {
      ref_.scan[v] = apps::dbms::ExpectedScanAggregate(ScanSpec(v), ScanSelectivity(v));
      ref_.join[v] = apps::dbms::ExpectedJoin(JoinFact(v), JoinDim(v));
      ref_.hospital[v] = apps::hospital::ExpectedHospital(HospitalSpec(v));
      ref_.stencil[v] = apps::hpc::ReferenceStencil(StencilSpec(v));
      ref_.stream[v] = apps::streaming::ExpectedWindowMeans(StreamSpec(v));
    }
    ready_ = true;
  }

  EpisodeResult Run(const EpisodeOptions& opts) override {
    Prepare(opts.seed);
    // Every episode holds each (app, variant) equally often; the seed fixes
    // the order (Fisher-Yates), so seeds vary interleaving, not total work.
    std::vector<std::pair<int, int>> order;
    for (int k = 0; k < kJobs; ++k) {
      order.emplace_back(k % kNumApps, (k / kNumApps) % kVariants);
    }
    Rng rng(opts.seed);
    for (std::size_t k = order.size() - 1; k > 0; --k) {
      std::swap(order[k], order[rng.Below(k + 1)]);
    }
    // Corrupt the first job whose output has an exact reference.
    std::size_t corrupt_at = kJobs;
    for (std::size_t k = 0; opts.corrupt && k < order.size(); ++k) {
      if (order[k].first != kTrain) {
        corrupt_at = k;
        break;
      }
    }

    EpisodeResult res;
    const auto t0 = std::chrono::steady_clock::now();
    simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
    telemetry::Registry registry;
    rts::RuntimeOptions ropts;
    ropts.worker_threads = opts.workers;
    ropts.registry = &registry;
    rts::Runtime rt(*host.cluster, ropts);

    Tracker tr(kJobs);
    tr.rec = opts.rec;
    tr.clock = &rt.clock();
    std::vector<std::uint32_t> index_of_job(kJobs + 2, 0);
    std::size_t next = 0;      // next job index to submit
    std::uint64_t finished = 0;
    std::function<void(SimTime)> submit = [&](SimTime now) {
      while (next < order.size()) {
        const std::size_t k = next++;
        tr.jobs[k].due_ns = now.ns;
        dataflow::Job job = BuildApp(order[k].first, order[k].second);
        WrapJob(tr, k, job);
        Recorder::Scope span(tr.rec, SpanKind::kSubmit);
        Result<dataflow::JobId> id = rt.Submit(std::move(job));
        if (id.ok()) {
          span.set_job(id->value);
          tr.jobs[k].admitted = true;
          index_of_job[id->value] = static_cast<std::uint32_t>(k);
          return;
        }
        tr.jobs[k].done = true;  // refused: this client tries its next job
        finished++;
      }
    };
    rt.SetJobObserver([&](const rts::JobReport& report) {
      const std::size_t k = index_of_job[report.id.value];
      JobRecord& j = tr.jobs[k];
      j.done = true;
      j.finish_ns = report.finished.ns;
      const bool right =
          report.status.ok() && Check(rt, report, order[k].first, order[k].second, k == corrupt_at);
      if (report.status.ok() && !right) {
        j.wrong.store(true);
      }
      j.ok = right;
      (void)rt.ReleaseJobOutputs(report.id);
      finished++;
      NoteCompletion(tr, finished, kJobs);
      rt.ScheduleAt(report.finished, submit);
    });
    for (int c = 0; c < kClients; ++c) {
      rt.ScheduleAt(SimTime{}, submit);
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.setup_s = std::chrono::duration<double>(t1 - t0).count();
    Status status;
    {
      Recorder::Scope run(tr.rec, SpanKind::kRun);
      if (tr.rec != nullptr) {
        tr.rec->set_root(run.id());
      }
      status = rt.RunToCompletion();
    }
    res.run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
    MEMFLOW_CHECK_MSG(status.ok(), status.ToString().c_str());
    res.offered = kJobs;
    for (const JobRecord& j : tr.jobs) {
      res.completed += j.ok ? 1 : 0;
      res.failed += j.ok ? 0 : 1;
    }
    CollectCommon(rt, tr, opts.workers, static_cast<std::int64_t>(res.run_s * 1e9), 0, res);
    return res;
  }

  Named ProbeAdmission(std::uint64_t) override {
    simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
    std::vector<dataflow::Job> jobs;
    for (int app = 0; app < kNumApps; ++app) {
      for (int v = 0; v < kVariants; ++v) {
        jobs.push_back(BuildApp(app, v));
      }
    }
    return TimeAdmission(*host.cluster, jobs);
  }

 private:
  bool Check(rts::Runtime& rt, const rts::JobReport& report, int app, int v, bool corrupt) {
    if (report.outputs.empty()) {
      return false;
    }
    const region::RegionId first = report.outputs.front();
    switch (app) {
      case kScan:
        return Near(ReadOutput<double>(rt, report, first, corrupt), ref_.scan[v], 1e-6);
      case kJoin: {
        const auto got = ReadOutput<double>(rt, report, first, corrupt);
        return got.size() == 1 && Near(got, {ref_.join[v]}, 1e-9);
      }
      case kTrain: {
        const auto model = apps::ml::DecodeModel(ReadOutput<double>(rt, report, first, corrupt),
                                                 TrainSpec(v).features);
        return model.final_loss < model.initial_loss;
      }
      case kHospital: {
        const apps::hospital::HospitalExpectation& want = ref_.hospital[v];
        const region::RegionId hours = OutputOf(report, "track-hours");
        const region::RegionId util = OutputOf(report, "compute-utilization");
        const region::RegionId alerts = OutputOf(report, "alert-caregivers");
        if (!hours.valid() || !util.valid() || !alerts.valid()) {
          return false;
        }
        return ReadOutput<std::uint64_t>(rt, report, hours, corrupt) == want.staff_minutes &&
               ReadOutput<std::uint32_t>(rt, report, util, false) == want.hourly_utilization &&
               ReadOutput<std::uint32_t>(rt, report, alerts, false) == want.alerts;
      }
      case kStencil:
        return Near(ReadOutput<double>(rt, report, first, corrupt), ref_.stencil[v], 0.0);
      default:
        return Near(ReadOutput<double>(rt, report, first, corrupt), ref_.stream[v], 1e-4);
    }
  }

  bool ready_ = false;
  References ref_;
};

}  // namespace

std::unique_ptr<Workload> MakeAppMix() { return std::make_unique<AppMix>(); }

}  // namespace memflow::perfbench
