// Copyright (c) memflow authors. MIT license.
//
// scatter_bulk: one closed-loop client on a disaggregated rack (4 compute
// nodes, far-memory nodes, plus one persistent-memory node added through the
// Cluster API). Each job is 32 map tasks that each write a ~256 KiB output
// and one reduce that reads all of them through zero-copy fan-in and checks
// their checksum against a host reference computed before anything is
// timed. Every job is instrumented by JobCheckpointer (map outputs are copied
// to the persistent node) and its checkpoints are discarded once it commits.

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "rts/checkpoint.h"
#include "simhw/presets.h"
#include "perfbench/src/workloads.h"

namespace memflow::perfbench {
namespace {

constexpr int kMaps = 32;
// Jobs per episode. Short episodes spread a run over many fresh runtimes:
// on the 4-vCPU reference host, run medians of jobs_per_s spread less
// between runs with 16-job episodes (IQR/median 0.10-0.13) than with 96-job
// ones (0.15-0.24).
constexpr int kJobs = 16;
// Map output sizes: 192..320 KiB in 4 KiB steps (mean 256 KiB), per seed.
constexpr std::uint64_t kMinOutput = KiB(192);
constexpr std::uint64_t kOutputSteps = 33;
constexpr double kMapWorkPerByte = 1.0;
constexpr double kReduceWorkPerByte = 0.25;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t MapSeed(std::uint64_t seed, int job, int map) {
  return HashCombine(HashCombine(seed, static_cast<std::uint64_t>(job)),
                     static_cast<std::uint64_t>(map));
}

std::uint64_t OutputBytes(std::uint64_t seed, int job, int map) {
  return kMinOutput + KiB(4) * (MixU64(MapSeed(seed, job, map)) % kOutputSteps);
}

void FillOutput(std::uint64_t map_seed, std::vector<std::uint64_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = MixU64(map_seed + i);
  }
}

// Map outputs live next to the reduce, which may be on another node than
// the map, so bodies use the asynchronous accessor.

// Order-independent across outputs (the reduce may see inputs in any order).
std::uint64_t OutputChecksum(const std::vector<std::uint64_t>& words) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    sum += MixU64(words[i] ^ i);
  }
  return sum;
}

// Host staging buffer of the calling worker thread, reused across bodies so
// the body layer adds no allocator churn of its own.
std::vector<std::uint64_t>& BodyBuffer() {
  thread_local std::vector<std::uint64_t> buffer;
  return buffer;
}

simhw::MemoryDeviceId AddPersistentNode(simhw::Cluster& cluster) {
  simhw::VertexId fabric{};
  bool found = false;
  for (std::uint32_t v = 0; v < cluster.topology().num_vertices(); ++v) {
    if (cluster.topology().vertex_name(simhw::VertexId{v}) == "fabric") {
      fabric = simhw::VertexId{v};
      found = true;
    }
  }
  MEMFLOW_CHECK_MSG(found, "disaggregated rack has no fabric switch");
  const simhw::NodeId node = cluster.AddNode("pmem-node");
  const simhw::MemoryDeviceId pmem =
      cluster.AddMemory(node, simhw::MemoryDeviceKind::kPMem, GiB(64), "ckpt-pmem");
  cluster.Link(cluster.VertexOf(pmem), fabric, simhw::LinkKind::kNic);
  return pmem;
}

// JobCheckpointer's body wrapper reads and writes the checkpointer's catalog
// and stats without synchronization, so two bodies instrumented by one
// checkpointer must not run at the same time — yet the 32 maps of a job run
// as one parallel batch (a shared instance crashes or loses counts at 4
// workers). With one job in flight, one checkpointer per task position keeps
// every instance single-threaded; all of them write to the same PMem device.
class Checkpointers {
 public:
  Checkpointers(simhw::Cluster& cluster, simhw::MemoryDeviceId pmem,
                telemetry::Registry* registry) {
    for (int t = 0; t <= kMaps; ++t) {
      per_task_.push_back(std::make_unique<rts::JobCheckpointer>(cluster, pmem, registry));
    }
  }

  void Bind(rts::Runtime& rt) {
    for (auto& c : per_task_) {
      c->BindTrace(&rt.clock(), &rt.tracer());
      c->BindProfiler(&rt.self_profiler());
    }
  }

  // JobCheckpointer::Instrument, applied task by task: task t is wrapped by
  // checkpointer t under its own (job, task) key.
  dataflow::Job Instrument(dataflow::Job job) {
    for (std::uint32_t t = 0; t < job.num_tasks(); ++t) {
      dataflow::TaskSpec& spec = job.task(dataflow::TaskId{t});
      dataflow::Job one(job.name());
      one.AddTask(spec.name, spec.props, std::move(spec.fn));
      one = per_task_[t]->Instrument(std::move(one));
      spec.fn = std::move(one.task(dataflow::TaskId{0}).fn);
    }
    return job;
  }

  void Discard(const std::string& job_name) {
    for (auto& c : per_task_) {
      c->Discard(job_name);
    }
  }

  std::uint64_t BytesWritten() const {
    std::uint64_t bytes = 0;
    for (const auto& c : per_task_) {
      bytes += c->stats().checkpoint_bytes;
    }
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<rts::JobCheckpointer>> per_task_;
};

class ScatterBulk : public Workload {
 public:
  std::string Describe() const override {
    return "scatter_bulk: closed loop, 1 client, on a rack of 4 compute + 2 far-memory nodes "
           "+ 1 PMem node; job = 32 maps x 192-320 KiB (mean 256 KiB) -> 1 reduce, every "
           "output checkpointed to PMem; " +
           std::to_string(kJobs) + " jobs per episode";
  }

  void Prepare(std::uint64_t seed) override {
    if (!reference_.contains(seed)) {
      std::vector<std::uint64_t> sums(kJobs, 0);
      std::vector<std::uint64_t> words;
      for (int j = 0; j < kJobs; ++j) {
        for (int m = 0; m < kMaps; ++m) {
          words.resize(OutputBytes(seed, j, m) / 8);
          FillOutput(MapSeed(seed, j, m), words);
          sums[j] += OutputChecksum(words);
        }
      }
      reference_[seed] = std::move(sums);
    }
  }

  EpisodeResult Run(const EpisodeOptions& opts) override {
    Prepare(opts.seed);
    const std::vector<std::uint64_t>& expected = reference_.at(opts.seed);
    EpisodeResult res;
    const auto t0 = Clock::now();
    simhw::DisaggHandles rack = simhw::MakeDisaggRack({.compute_nodes = 4, .memory_nodes = 2});
    const simhw::MemoryDeviceId pmem = AddPersistentNode(*rack.cluster);
    telemetry::Registry registry;
    rts::RuntimeOptions ropts;
    ropts.worker_threads = opts.workers;
    ropts.registry = &registry;
    rts::Runtime rt(*rack.cluster, ropts);
    Checkpointers ckpt(*rack.cluster, pmem, &registry);
    ckpt.Bind(rt);

    Tracker tr(kJobs);
    tr.rec = opts.rec;
    tr.clock = &rt.clock();
    std::vector<std::uint32_t> index_of_job(kJobs + 2, 0);
    std::uint64_t finished = 0;
    std::function<void(SimTime)> submit;
    submit = [&](SimTime now) {
      const int k = static_cast<int>(finished);
      tr.jobs[k].due_ns = now.ns;
      dataflow::Job job =
          ckpt.Instrument(BuildJob(tr, opts.seed, k, expected[k], opts.corrupt && k == 1));
      WrapJob(tr, static_cast<std::size_t>(k), job);
      Recorder::Scope span(tr.rec, SpanKind::kSubmit);
      Result<dataflow::JobId> id = rt.Submit(std::move(job));
      if (!id.ok()) {  // refused: the client moves on
        tr.jobs[k].done = true;
        finished++;
        if (finished < kJobs) {
          rt.ScheduleAt(now, submit);
        }
        return;
      }
      span.set_job(id->value);
      tr.jobs[k].admitted = true;
      index_of_job[id->value] = static_cast<std::uint32_t>(k);
    };
    rt.SetJobObserver([&](const rts::JobReport& report) {
      JobRecord& j = tr.jobs[index_of_job[report.id.value]];
      j.done = true;
      j.finish_ns = report.finished.ns;
      j.ok = report.status.ok() && !j.wrong.load();
      ckpt.Discard(report.name);
      finished++;
      NoteCompletion(tr, finished, kJobs);
      if (finished < kJobs) {
        rt.ScheduleAt(report.finished, submit);
      }
    });
    rt.ScheduleAt(SimTime{}, submit);
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
    res.offered = kJobs;
    for (const JobRecord& j : tr.jobs) {
      res.completed += j.ok ? 1 : 0;
      res.failed += j.ok ? 0 : 1;
    }
    CollectCommon(rt, tr, opts.workers, static_cast<std::int64_t>(res.run_s * 1e9),
                  ckpt.BytesWritten(), res);
    return res;
  }

  Named ProbeAdmission(std::uint64_t seed) override {
    Prepare(seed);
    simhw::DisaggHandles rack = simhw::MakeDisaggRack({.compute_nodes = 4, .memory_nodes = 2});
    const simhw::MemoryDeviceId pmem = AddPersistentNode(*rack.cluster);
    telemetry::Registry registry;
    Checkpointers ckpt(*rack.cluster, pmem, &registry);
    Tracker tr(1);
    std::vector<dataflow::Job> jobs;
    jobs.push_back(ckpt.Instrument(BuildJob(tr, seed, 0, reference_.at(seed)[0], false)));
    return TimeAdmission(*rack.cluster, jobs);
  }

 private:
  static dataflow::Job BuildJob(Tracker& tr, std::uint64_t seed, int k, std::uint64_t expected,
                                bool corrupt) {
    dataflow::Job job("scatter-" + std::to_string(k));
    std::uint64_t total_bytes = 0;
    std::vector<dataflow::TaskId> maps;
    for (int m = 0; m < kMaps; ++m) {
      const std::uint64_t bytes = OutputBytes(seed, k, m);
      const std::uint64_t map_seed = MapSeed(seed, k, m);
      total_bytes += bytes;
      dataflow::TaskProperties props;
      props.base_work = kMapWorkPerByte * static_cast<double>(bytes);
      props.output_bytes = bytes;
      const bool flip = corrupt && m == 0;
      maps.push_back(job.AddTask(
          "map" + std::to_string(m), props,
          [&tr, bytes, map_seed, flip](dataflow::TaskContext& ctx) -> Status {
            MEMFLOW_ASSIGN_OR_RETURN(region::RegionId out, TracedAllocateOutput(tr, ctx, bytes));
            MEMFLOW_ASSIGN_OR_RETURN(region::AsyncAccessor acc, TracedOpenAsync(tr, ctx, out));
            std::vector<std::uint64_t>& words = BodyBuffer();
            words.resize(bytes / 8);
            FillOutput(map_seed, words);
            if (flip) {
              words[words.size() / 3] ^= 1;
            }
            MEMFLOW_ASSIGN_OR_RETURN(SimDuration w, TracedWrite(tr, ctx, acc, words.data(), bytes));
            ctx.Charge(w);
            ctx.ChargeCompute(kMapWorkPerByte * static_cast<double>(bytes));
            return OkStatus();
          }));
    }
    dataflow::TaskProperties reduce_props;
    reduce_props.work_per_byte = kReduceWorkPerByte;
    const dataflow::TaskId reduce = job.AddTask(
        "reduce", reduce_props,
        [&tr, k, expected, total_bytes](dataflow::TaskContext& ctx) -> Status {
          std::uint64_t sum = 0;
          std::vector<std::uint64_t>& words = BodyBuffer();
          for (const region::RegionId in : ctx.inputs()) {
            MEMFLOW_ASSIGN_OR_RETURN(region::AsyncAccessor acc, TracedOpenAsync(tr, ctx, in));
            words.resize(acc.size() / 8);
            MEMFLOW_ASSIGN_OR_RETURN(SimDuration r,
                                     TracedRead(tr, ctx, acc, words.data(), acc.size()));
            ctx.Charge(r);
            sum += OutputChecksum(words);
          }
          ctx.ChargeCompute(kReduceWorkPerByte * static_cast<double>(total_bytes));
          if (ctx.inputs().size() != static_cast<std::size_t>(kMaps) || sum != expected) {
            tr.jobs[static_cast<std::size_t>(k)].wrong.store(true);
            return DataLoss("scatter checksum mismatch in job " + std::to_string(k));
          }
          return OkStatus();
        });
    for (const dataflow::TaskId m : maps) {
      MEMFLOW_CHECK(job.Connect(m, reduce).ok());
    }
    return job;
  }

  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeScatterBulk() { return std::make_unique<ScatterBulk>(); }

}  // namespace memflow::perfbench
