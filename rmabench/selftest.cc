// Tests of the benchmark's own measurement code: percentiles, the result
// oracle, set-up timing and span self time. Run with
// `python3 rmabench/run.py --selftest`; exits non-zero on any failure.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using rma::Relation;
using rmabench::Oracle;

Relation Table(const std::vector<int64_t>& ids, const std::vector<double>& a,
               const std::vector<double>& b) {
  return Relation::Make(rma::Schema::Make({{"id", rma::DataType::kInt64},
                                           {"a", rma::DataType::kDouble},
                                           {"b", rma::DataType::kDouble}})
                            .ValueOrDie(),
                        {rma::MakeInt64Bat(ids), rma::MakeDoubleBat(a),
                         rma::MakeDoubleBat(b)},
                        "t")
      .ValueOrDie();
}

void PercentileLeavesTenSamplesBeyondP95() {
  const int64_t n = rmabench::MinSamplesFor(0.95, 10);
  EXPECT(n == 200);
  EXPECT(rmabench::SamplesBeyond(n, 0.95) == 10);
  EXPECT(rmabench::SamplesBeyond(n - 1, 0.95) < 10);
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // unsorted input
  const double p95 = rmabench::Percentile(samples, 0.95);
  EXPECT(p95 == 190);
  int beyond = 0;
  for (double s : samples) beyond += s > p95 ? 1 : 0;
  EXPECT(beyond >= 10);
  EXPECT(rmabench::Percentile(samples, 0.5) == 100);
  EXPECT(rmabench::Median({3, 1, 2, 10}) == 2.5);
  // Too few samples for two segments: the plain percentile.
  const std::vector<double> few(samples.begin() + 101, samples.end());
  EXPECT(rmabench::SegmentedPercentile(few, 0.95) ==
         rmabench::Percentile(few, 0.95));
}

void SegmentedPercentileIgnoresOneStalledSegment() {
  std::vector<double> samples;
  for (int segment = 0; segment < 5; ++segment) {
    for (int i = 1; i <= 200; ++i) samples.push_back(segment == 2 ? 1000 : i);
  }
  EXPECT(rmabench::Percentile(samples, 0.95) == 1000);
  EXPECT(rmabench::SegmentedPercentile(samples, 0.95) == 195);
  EXPECT(rmabench::Percentile(samples, 0.5) == 125);
  EXPECT(rmabench::SegmentedPercentile(samples, 0.5) == 122);
}

void OracleRejectsCorruptedResult() {
  Oracle oracle;
  const Relation good = Table({1, 2, 3}, {0.5, 1.5, 2.5}, {10, 20, 30});
  EXPECT(oracle.Check("q", good, rmabench::RowsAre(3)).empty());
  // Another physical row order of the same rows passes.
  EXPECT(oracle.Check("q", Table({3, 1, 2}, {2.5, 0.5, 1.5}, {30, 10, 20}),
                      nullptr)
             .empty());
  // One corrupted cell, a lost row, or a changed key is rejected.
  EXPECT(!oracle.Check("q", Table({1, 2, 3}, {0.5, 1.5, 2.5}, {10, 20, 31}),
                       nullptr)
              .empty());
  EXPECT(!oracle.Check("q", Table({1, 2}, {0.5, 1.5}, {10, 20}), nullptr)
              .empty());
  EXPECT(!oracle.Check("q", Table({1, 2, 4}, {0.5, 1.5, 2.5}, {10, 20, 30}),
                       nullptr)
              .empty());
  // A first result that breaks its invariant is rejected and not learned.
  EXPECT(!oracle.Check("r", good, rmabench::RowsAre(4)).empty());
  EXPECT(oracle.Check("r", Table({1}, {1}, {1}), nullptr).empty());
}

void InvariantsDetectBrokenResults() {
  auto square = [](double off_a, double off_b) {
    return Relation::Make(rma::Schema::Make({{"C", rma::DataType::kString},
                                             {"a", rma::DataType::kDouble},
                                             {"b", rma::DataType::kDouble}})
                              .ValueOrDie(),
                          {rma::MakeStringBat({"b", "a"}),
                           rma::MakeDoubleBat({off_a, 1.0}),
                           rma::MakeDoubleBat({2.0, off_b})},
                          "s")
        .ValueOrDie();
  };
  // Rows are named by C, so a row order differing from the column order
  // still reads as symmetric: (a,b) = row a / column b = 7.
  EXPECT(rmabench::CheckSymmetric(square(7.0, 7.0)).empty());
  EXPECT(!rmabench::CheckSymmetric(square(7.0, 7.5)).empty());
  const Relation q = Table({1, 2}, {1.0, 0.0}, {0.0, 1.0});
  EXPECT(rmabench::CheckOrthonormal(q).empty());
  EXPECT(!rmabench::CheckOrthonormal(Table({1, 2}, {1.0, 0.1}, {0.0, 1.0}))
              .empty());
  EXPECT(rmabench::CheckGrandTotal(q, 2.0).empty());
  EXPECT(!rmabench::CheckGrandTotal(q, 2.5).empty());
}

void SetupTimeExcludesDataGeneration() {
  using std::chrono::milliseconds;
  const std::vector<double> seconds = rmabench::TimeSetups(
      [] { std::this_thread::sleep_for(milliseconds(300)); },
      [](int) { std::this_thread::sleep_for(milliseconds(20)); }, 3);
  EXPECT(seconds.size() == 3);
  for (double s : seconds) {
    EXPECT(s >= 0.019);
    EXPECT(s < 0.2);
  }
}

void SelfTimeSubtractsChildren() {
  rmabench::Tracer tr;
  tr.NewRequest();
  {
    rmabench::ScopedSpan request(&tr, "request");
    const int64_t exec = tr.Begin("sql.execute");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    tr.End(exec);
    tr.AddDerived(exec, "matrix.kernel", 0.005);
  }
  const auto t = tr.SelfTimes();
  const auto& exec = t.at("sql.execute");
  EXPECT(exec.calls == 1);
  EXPECT(exec.total_s >= 0.019);
  EXPECT(exec.self_s > exec.total_s - 0.0051 &&
         exec.self_s < exec.total_s - 0.0049);
  EXPECT(t.at("request").self_s < t.at("request").total_s - exec.total_s + 1e-9);
  EXPECT(rmabench::SelfTimeTable(tr).find("unattributed") != std::string::npos);
}

void ClosedLoopRunsUntilMinimumSamples() {
  const rmabench::LoopResult r = rmabench::RunClosedLoop(
      2, 0.0, 50, [](int, int64_t) {
        rmabench::Request req;
        req.execute = [] { return rmabench::Outcome::kOk; };
        return req;
      });
  EXPECT(r.attempted >= 50);
  EXPECT(r.ok == r.attempted);
  EXPECT(r.failed() == 0);
}

void ServiceRateFollowsTheProgramNotThePhase() {
  // Two statements, 1 ms and 3 ms, in alternation: 500 passes per second.
  std::vector<double> latencies_ms;
  std::vector<int> kinds;
  for (int i = 0; i < 100; ++i) {
    latencies_ms.push_back(i % 2 == 0 ? 1.0 : 3.0);
    kinds.push_back(i % 2);
  }
  std::vector<bool> ok(100, true);
  EXPECT(rmabench::ServiceRate(latencies_ms, ok, kinds) == 500.0);
  // A stall and a slow phase over half the run leave the rate alone.
  latencies_ms[7] = 1000.0;
  for (int i = 50; i < 100; ++i) latencies_ms[static_cast<size_t>(i)] *= 2;
  EXPECT(rmabench::ServiceRate(latencies_ms, ok, kinds) == 500.0);
  // A program twice as slow on every request halves it.
  for (double& ms : latencies_ms) ms *= 2;
  EXPECT(rmabench::ServiceRate(latencies_ms, ok, kinds) == 250.0);
  // Failed requests count against it; a statement that never succeeds
  // leaves no rate.
  ok[10] = false;
  EXPECT(rmabench::ServiceRate(latencies_ms, ok, kinds) == 250.0 * 0.99);
  for (int i = 1; i < 100; i += 2) ok[static_cast<size_t>(i)] = false;
  EXPECT(rmabench::ServiceRate(latencies_ms, ok, kinds) == 0.0);
}

}  // namespace

int main() {
  PercentileLeavesTenSamplesBeyondP95();
  SegmentedPercentileIgnoresOneStalledSegment();
  OracleRejectsCorruptedResult();
  InvariantsDetectBrokenResults();
  SetupTimeExcludesDataGeneration();
  SelfTimeSubtractsChildren();
  ClosedLoopRunsUntilMinimumSamples();
  ServiceRateFollowsTheProgramNotThePhase();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
