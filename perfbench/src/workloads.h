// Copyright (c) memflow authors. MIT license.
//
// The benchmark's three workloads. Each is a pure function of its seed: the
// seed fixes arrivals, job order and payloads, and the runtime receives only
// the generated jobs.

#ifndef MEMFLOW_PERFBENCH_WORKLOADS_H_
#define MEMFLOW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/src/episode.h"

namespace memflow::perfbench {

struct EpisodeOptions {
  std::uint64_t seed = 1;
  int workers = 1;
  Recorder* rec = nullptr;  // non-null = traced episode
  // Make exactly one job produce a wrong output (the benchmark's self-test).
  bool corrupt = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One line: cluster, load shape, job shape.
  virtual std::string Describe() const = 0;

  // Host-side reference outputs for `seed`, computed before anything is
  // timed and excluded from set-up time.
  virtual void Prepare(std::uint64_t seed) = 0;

  virtual EpisodeResult Run(const EpisodeOptions& opts) = 0;

  // Virtual-time values measured outside the repeated episodes (serve_burst's
  // SLO-capacity ladder). Deterministic; compared across worker counts.
  virtual Named Extras(std::uint64_t /*seed*/, int /*workers*/) { return {}; }

  // Host time per call of analysis::Verify and ServingLayer::EstimateJobCost
  // over this workload's job shapes: {"analysis.verify_ns", "rts.estimate_ns"}.
  virtual Named ProbeAdmission(std::uint64_t seed) = 0;
};

std::unique_ptr<Workload> MakeServeBurst();
std::unique_ptr<Workload> MakeScatterBulk();
std::unique_ptr<Workload> MakeAppMix();

// Times `verify` and `estimate` over `jobs` on a fresh runtime over
// `cluster`, a few passes each, and reports the median per-call ns.
Named TimeAdmission(simhw::Cluster& cluster, const std::vector<dataflow::Job>& jobs);

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_WORKLOADS_H_
