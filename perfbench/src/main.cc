// Copyright (c) memflow authors. MIT license.
//
// memflow's benchmark:
//
//   perfbench --workload <serve_burst|scatter_bulk|app_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt]
//
// Repeats episodes of the workload at the given seed for `seconds` of host
// time. With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it alternates untraced and traced episodes, and reports the
// per-layer ladder from the traced ones plus the tracing overhead. Either
// way it then re-runs the seed at 1 worker and a second seed at both worker
// counts, and refuses to report (exit 3) unless every virtual-time value is
// bit-identical. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --corrupt makes one job per episode produce a wrong output; the run must
// then report correct=false (the benchmark's self-test).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/table.h"
#include "perfbench/src/workloads.h"

namespace memflow::perfbench {
namespace {

constexpr int kMaxWorkers = 4;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end list (reported with --trace 0).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"sim_jobs_per_s", "1/s"},
    {"latency_p50_ns", "ns"},
    {"latency_p99_ns", "ns"},
    {"peak_rss_mib", "MiB"},
};

// Mirrors BENCHMARK.json's per_layer list (reported with --trace 1).
constexpr MetricDef kPerLayer[] = {
    {"interactive_p99_ns", "ns"},
    {"batch_p99_ns", "ns"},
    {"slo_capacity_jobs_per_s", "1/s"},
    {"deadline_miss_share", "share"},
    {"failed_share", "share"},
    {"testing.generator_late_ns", "ns"},
    {"simhw.bytes_per_job", "B/job"},
    {"simhw.busy_share.cache", "share"},
    {"simhw.busy_share.hbm", "share"},
    {"simhw.busy_share.dram", "share"},
    {"simhw.busy_share.gddr", "share"},
    {"simhw.busy_share.pmem", "share"},
    {"simhw.busy_share.cxl_dram", "share"},
    {"simhw.busy_share.disagg_mem", "share"},
    {"simhw.busy_share.ssd", "share"},
    {"simhw.busy_share.hdd", "share"},
    {"region.allocate_ns", "ns"},
    {"region.open_ns", "ns"},
    {"region.write_ns_per_kib", "ns/KiB"},
    {"region.read_ns_per_kib", "ns/KiB"},
    {"region.lock_wait_ns_per_job", "ns/job"},
    {"region.zero_copy_share", "share"},
    {"region.live_regions_end", "count"},
    {"region.allocations_per_job", "count/job"},
    {"region.bytes_share.cache", "share"},
    {"region.bytes_share.hbm", "share"},
    {"region.bytes_share.dram", "share"},
    {"region.bytes_share.gddr", "share"},
    {"region.bytes_share.pmem", "share"},
    {"region.bytes_share.cxl_dram", "share"},
    {"region.bytes_share.disagg_mem", "share"},
    {"region.bytes_share.ssd", "share"},
    {"region.bytes_share.hdd", "share"},
    {"region.self_ns_per_job", "ns/job"},
    {"analysis.verify_ns", "ns"},
    {"analysis.self_ns_per_job", "ns/job"},
    {"rts.offer_ns", "ns"},
    {"rts.submit_ns", "ns"},
    {"rts.estimate_ns", "ns"},
    {"rts.run_self_ns_per_task", "ns/task"},
    {"rts.phase.event_drain_ns_per_task", "ns/task"},
    {"rts.phase.stage_ns_per_task", "ns/task"},
    {"rts.phase.batch_commit_ns_per_task", "ns/task"},
    {"rts.queue_wait_p99_ns.interactive", "ns"},
    {"rts.queue_wait_p99_ns.batch", "ns"},
    {"rts.refused.serve-reject-quota", "count"},
    {"rts.refused.serve-reject-slo", "count"},
    {"rts.refused.serve-reject-infeasible", "count"},
    {"rts.refused.serve-shed-backpressure", "count"},
    {"rts.tasks_per_batch", "tasks/batch"},
    {"rts.worker_busy_share", "share"},
    {"rts.checkpoint.bytes_per_job", "B/job"},
    {"rts.checkpoint.encode_ns_per_mib", "ns/MiB"},
    {"rts.checkpoint.self_ns_per_job", "ns/job"},
    {"rts.cost_model.memo_hit_ratio", "share"},
    {"rts.cost_model.memo_hits", "count"},
    {"rts.cost_model.memo_misses", "count"},
    {"rts.placement.task_share.cpu", "share"},
    {"rts.placement.task_share.gpu", "share"},
    {"rts.placement.task_share.tpu", "share"},
    {"rts.placement.task_share.fpga", "share"},
    {"rts.placement.task_share.dpu", "share"},
    {"rts.retained_kib_per_kjob", "KiB/kjob"},
    {"rts.self_ns_per_job", "ns/job"},
    {"body.user_ns_per_task", "ns/task"},
    {"body.self_ns_per_job", "ns/job"},
    {"telemetry.trace_overhead_share", "share"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--corrupt") {
      a.corrupt = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::stoi(argv[++i]);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_burst") {
    return MakeServeBurst();
  }
  if (name == "scatter_bulk") {
    return MakeScatterBulk();
  }
  if (name == "app_mix") {
    return MakeAppMix();
  }
  return nullptr;
}

// Bit-for-bit comparison of two named-value lists; appends the differing
// names to `diffs`.
void Compare(const Named& a, const Named& b, const std::string& what,
             std::vector<std::string>& diffs) {
  if (a.size() != b.size()) {
    diffs.push_back(what + ": different value sets");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      diffs.push_back(what + ": " + a[i].first + " " + FormatDouble(a[i].second, 3) + " vs " +
                      FormatDouble(b[i].second, 3));
    }
  }
}

void CompareEpisodes(const EpisodeResult& a, const EpisodeResult& b, const std::string& what,
                     std::vector<std::string>& diffs) {
  Compare(a.virt, b.virt, what, diffs);
  if (a.digest != b.digest) {
    diffs.push_back(what + ": job-log digest differs");
  }
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fmt(double v) {
  return std::abs(v) >= 1e6 || v == static_cast<double>(static_cast<std::int64_t>(v))
             ? FormatDouble(v, 0)
             : FormatDouble(v, 4);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_burst|scatter_bulk|app_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--corrupt]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::min(kMaxWorkers, hw);
  const std::uint64_t seed = args.seed;
  const std::uint64_t seed2 = MixU64(seed ^ 0x5eed5eed5eedULL);
  const bool traced_run = args.trace == 1;

  // References first: not part of set-up, never timed.
  wl->Prepare(seed);
  wl->Prepare(seed2);

  // --- timed phase ----------------------------------------------------------------
  // One untimed warm-up episode first: the process's first episode pays the
  // allocator's first touch of every heap page, which later episodes reuse.
  const EpisodeResult warmup =
      wl->Run({.seed = seed, .workers = workers, .corrupt = args.corrupt});
  std::vector<EpisodeResult> untraced;
  std::vector<EpisodeResult> traced;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  for (int i = 0; elapsed() < args.seconds || i < (traced_run ? 4 : 3); ++i) {
    const bool trace_this = traced_run && i % 2 == 1;
    Recorder rec;
    EpisodeResult r = wl->Run({.seed = seed,
                               .workers = workers,
                               .rec = trace_this ? &rec : nullptr,
                               .corrupt = args.corrupt});
    (trace_this ? traced : untraced).push_back(std::move(r));
  }
  const double peak_rss_mib = PeakRssMib();

  // --- determinism ----------------------------------------------------------------
  std::vector<std::string> diffs;
  const EpisodeResult& base = untraced.front();
  CompareEpisodes(base, warmup, "warm-up run", diffs);
  for (std::size_t i = 1; i < untraced.size(); ++i) {
    CompareEpisodes(base, untraced[i], "repeat run", diffs);
  }
  for (const EpisodeResult& t : traced) {
    CompareEpisodes(base, t, "traced run", diffs);
  }
  const EpisodeResult one_worker = wl->Run({.seed = seed, .workers = 1, .corrupt = args.corrupt});
  const EpisodeResult second =
      wl->Run({.seed = seed2, .workers = workers, .corrupt = args.corrupt});
  const EpisodeResult second_one_worker =
      wl->Run({.seed = seed2, .workers = 1, .corrupt = args.corrupt});
  CompareEpisodes(base, one_worker, "1 worker", diffs);
  CompareEpisodes(second, second_one_worker, "second seed, 1 worker", diffs);
  // Untimed episodes check their outputs too.
  const std::uint64_t untimed_wrong =
      warmup.wrong + one_worker.wrong + second.wrong + second_one_worker.wrong;
  const Named extras = wl->Extras(seed, workers);
  Compare(extras, wl->Extras(seed, 1), "extras, 1 worker", diffs);
  Compare(wl->Extras(seed2, workers), wl->Extras(seed2, 1), "extras, second seed, 1 worker",
          diffs);
  // Every open-loop arrival must have been offered exactly when it was due.
  for (const auto& [name, v] : base.virt) {
    if (name == "testing.generator_late_ns" && v != 0) {
      diffs.push_back("an arrival was offered " + Fmt(v) + " ns after it was due");
    }
  }
  if (!diffs.empty()) {
    std::fprintf(stderr, "virtual-time checks failed; refusing to report:\n");
    for (const std::string& d : diffs) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 3;
  }

  // --- aggregate ------------------------------------------------------------------
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;
  for (const auto& [name, v] : base.virt) {
    values[name] = v;
  }
  for (const auto& [name, v] : extras) {
    values[name] = v;
  }
  std::vector<double> setup;
  std::vector<double> jps_untraced;
  std::vector<double> jps_traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  for (const EpisodeResult& r : untraced) {
    setup.push_back(r.setup_s);
    jps_untraced.push_back(r.JobsPerSec());
  }
  for (const EpisodeResult& r : traced) {
    setup.push_back(r.setup_s);
    jps_traced.push_back(r.JobsPerSec());
  }
  for (const std::vector<EpisodeResult>* set : {&untraced, &traced}) {
    for (const EpisodeResult& r : *set) {
      attempted += r.offered;
      failed += r.failed;
      wrong += r.wrong;
    }
  }
  values["setup_s"] = Median(setup);
  samples["setup_s"] = setup.size();
  values["jobs_per_s"] = Median(jps_untraced);
  samples["jobs_per_s"] = jps_untraced.size();
  values["peak_rss_mib"] = peak_rss_mib;
  samples["latency_p50_ns"] = samples["latency_p99_ns"] =
      static_cast<std::size_t>(values["latency_samples"]);
  samples["interactive_p99_ns"] = static_cast<std::size_t>(values["interactive_samples"]);
  samples["batch_p99_ns"] = static_cast<std::size_t>(values["batch_samples"]);
  if (traced_run) {
    std::map<std::string, std::vector<double>> host;
    for (const EpisodeResult& r : traced) {
      for (const auto& [name, v] : r.host) {
        host[name].push_back(v);
      }
    }
    for (const auto& [name, v] : wl->ProbeAdmission(seed)) {
      host[name].push_back(v);
    }
    for (auto& [name, v] : host) {
      samples[name] = v.size();
      values[name] = Median(v);
    }
    values["telemetry.trace_overhead_share"] = 1.0 - Median(jps_traced) / Median(jps_untraced);
    samples["telemetry.trace_overhead_share"] = jps_traced.size();
  }
  const bool correct = wrong == 0 && untimed_wrong == 0;

  // --- human-readable report ------------------------------------------------------
  std::printf("%s\n", wl->Describe().c_str());
  std::printf("seed %llu (second seed %llu), worker_threads %d, %zu untraced + %zu traced "
              "episodes in %.1f s; virtual-time values identical across repeats, 1 vs %d "
              "workers, and on the second seed\n\n",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seed2),
              workers, untraced.size(), traced.size(), elapsed(), workers);
  std::printf("jobs_per_s over untraced episodes: min %s, q1 %s, median %s, q3 %s, max %s\n\n",
              Fmt(Quantile(jps_untraced, 0)).c_str(), Fmt(Quantile(jps_untraced, 0.25)).c_str(),
              Fmt(Quantile(jps_untraced, 0.5)).c_str(), Fmt(Quantile(jps_untraced, 0.75)).c_str(),
              Fmt(Quantile(jps_untraced, 1)).c_str());
  TextTable e2e({"end-to-end", "value", "unit", "samples"});
  const MetricDef extra_e2e[] = {{"interactive_p99_ns", "ns"},
                                 {"batch_p99_ns", "ns"},
                                 {"slo_capacity_jobs_per_s", "1/s"},
                                 {"deadline_miss_share", "share"},
                                 {"failed_share", "share"}};
  // Every printed value also goes to .bench_out/<workload>.trace<0|1>.json,
  // with the seed, worker count and sample count needed to replay it.
  const auto row = [&](TextTable& t, const MetricDef& m) {
    const auto it = samples.find(m.name);
    const std::string n = it != samples.end() ? std::to_string(it->second) : "-";
    t.AddRow({m.name, Fmt(values[m.name]), m.unit, n});
    bench::RecordResult(m.name, values[m.name], m.unit,
                        {{"workload", args.workload},
                         {"seed", std::to_string(seed)},
                         {"worker_threads", std::to_string(workers)},
                         {"samples", n}});
  };
  for (const MetricDef& m : kEndToEnd) {
    row(e2e, m);
  }
  for (const MetricDef& m : extra_e2e) {
    row(e2e, m);
  }
  e2e.AddRow({"attempted / failed", std::to_string(attempted) + " / " + std::to_string(failed),
              "jobs", "-"});
  std::printf("%s\n", e2e.Render().c_str());
  if (traced_run) {
    const double wall_untraced = 1e9 / values["jobs_per_s"];
    const double wall_traced = 1e9 / Median(jps_traced);
    std::printf("per-layer self time per job (traced, summed over threads) beside the untraced "
                "wall per job %s ns (traced %s ns):\n",
                Fmt(wall_untraced).c_str(), Fmt(wall_traced).c_str());
    TextTable layers({"layer", "self ns/job", "share of traced wall"});
    const char* layer_metrics[][2] = {{"rts", "rts.self_ns_per_job"},
                                      {"analysis", "analysis.self_ns_per_job"},
                                      {"region (+simhw)", "region.self_ns_per_job"},
                                      {"rts.checkpoint", "rts.checkpoint.self_ns_per_job"},
                                      {"body", "body.self_ns_per_job"}};
    double sum = 0;
    for (const auto& [layer, metric] : layer_metrics) {
      sum += values[metric];
      layers.AddRow({layer, Fmt(values[metric]), FormatDouble(values[metric] / wall_traced, 3)});
    }
    layers.AddRow({"sum", Fmt(sum), FormatDouble(sum / wall_traced, 3)});
    std::printf("%s\n", layers.Render().c_str());
    TextTable per({"per-layer", "value", "unit", "samples"});
    for (const MetricDef& m : kPerLayer) {
      row(per, m);
    }
    std::printf("%s\n", per.Render().c_str());
  }

  std::filesystem::create_directories(".bench_out");
  const std::string out_prefix =
      ".bench_out/" + args.workload + ".trace" + std::to_string(args.trace);
  if (!bench::WriteResultsJson(out_prefix + ".json", "perfbench")) {
    return 1;
  }
  if (traced_run) {
    std::ofstream(out_prefix + ".spans.json") << traced.back().chrome_trace;
  }

  // --- the result line ------------------------------------------------------------
  std::string metrics;
  const auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    MEMFLOW_CHECK_MSG(it != values.end(), m.name);
    metrics += (metrics.empty() ? "" : ", ") + JsonQuote(m.name) +
               ": {\"value\": " + JsonNumber(it->second) + ", \"unit\": " + JsonQuote(m.unit) + "}";
  };
  if (traced_run) {
    for (const MetricDef& m : kPerLayer) {
      values.try_emplace(m.name, 0.0);  // a layer this workload does not use
      emit(m);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      emit(m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace memflow::perfbench

int main(int argc, char** argv) { return memflow::perfbench::Main(argc, argv); }
