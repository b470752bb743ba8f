// The benchmark's four closed-loop SQL workloads (see README.md for why each
// exists and which layer metrics it is meant to move).
#ifndef RMABENCH_WORKLOADS_H_
#define RMABENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace rmabench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for on-disk state (paged_cold); created and removed
  /// by the workload.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_path;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  Metrics metrics;
  /// Input sizes, recorded with the result (like-for-like guard).
  std::string sizes;
  /// Oracle violations and errors (at most a few, for the report).
  std::vector<std::string> violations;
  /// Human-readable report: self-time table, tracing overhead.
  std::string report;
};

/// Names and units of every per-layer metric. A traced run reports each of
/// them on every workload (0 where the layer is not used).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Generates the workload's inputs from the seed, sets up, runs the closed
/// loop and checks every result.
rma::Result<RunOutput> RunWorkload(const RunOptions& opts);

/// End-to-end metrics of one measured loop plus its set-up samples.
Metrics EndToEndMetrics(const LoopResult& loop,
                        const std::vector<double>& setup_seconds);

}  // namespace rmabench

#endif  // RMABENCH_WORKLOADS_H_
