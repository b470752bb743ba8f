// Measurement harness of the repository benchmark: closed-loop clients,
// percentiles, result fingerprints and the oracle, set-up timing, and the
// in-memory span tracer. Everything here sits outside the engine: it times
// calls into the engine's public functions and reads counters the engine
// already exposes.
#ifndef RMABENCH_HARNESS_H_
#define RMABENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/options.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rmabench {

/// Monotonic wall clock in seconds.
double Now();

// --- percentiles ------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p·n samples
/// at or below it (p in (0, 1]). Empty input gives 0.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Samples strictly above the nearest-rank p-percentile of n samples when
/// all are distinct: n - ceil(p·n).
int64_t SamplesBeyond(int64_t n, double p);

/// Smallest n with SamplesBeyond(n, p) >= beyond.
int64_t MinSamplesFor(double p, int64_t beyond);

/// The p-percentile of each of up to 9 consecutive segments of `samples`
/// (in request order), each long enough for >= 5 samples beyond its
/// percentile; returns their median, so a short stall from outside the
/// program moves one segment, not the result. Fewer samples than one
/// segment needs give the plain percentile. Callers keep the whole run at
/// >= 10 samples beyond the percentile (MinSamplesFor).
double SegmentedPercentile(const std::vector<double>& samples, double p);

// --- result fingerprints and the oracle -------------------------------------

/// Order-insensitive summary of a relation: the row count and, per column
/// (matched by name, so column order does not matter either), exact hashes
/// for INT/STRING values and sums for DOUBLE values. Sums are compared with
/// a relative tolerance because a different physical row order may change
/// the rounding of reductions inside the engine.
struct ColumnPrint {
  std::string name;
  rma::DataType type = rma::DataType::kDouble;
  uint64_t hash_sum = 0;  ///< INT / STRING: wrapping sum of value hashes
  double sum = 0;         ///< DOUBLE: sum, sum of |x|, sum of x²
  double abs_sum = 0;
  double sq_sum = 0;
  int64_t non_finite = 0;  ///< DOUBLE: NaN / ±inf cells
};

struct Fingerprint {
  int64_t rows = 0;
  std::vector<ColumnPrint> columns;  ///< sorted by name
};

Fingerprint FingerprintOf(const rma::Relation& r);

/// Relative tolerance of fingerprint comparisons, applied to each double
/// column's sum of |x| (and sum of x²). Reduction-order rounding is ~1e-15
/// relative; a corrupted cell moves the sums far more than this.
inline constexpr double kFingerprintTolerance = 1e-9;

/// Empty when `got` matches `want`; otherwise the first difference.
std::string CompareFingerprints(const Fingerprint& want, const Fingerprint& got,
                                double rel_tol = kFingerprintTolerance);

/// A cheap property the first result of a statement must have; returns an
/// empty string when it holds, else the violation.
using Invariant = std::function<std::string(const rma::Relation&)>;

/// Checks results per statement key. The first result of a key must
/// satisfy the statement's invariant and its fingerprint is learned; every
/// later result of the key must match that fingerprint. Thread-safe.
class Oracle {
 public:
  /// Returns the violation, or an empty string when `r` passes.
  std::string Check(const std::string& key, const rma::Relation& r,
                    const Invariant& invariant);

 private:
  std::mutex mu_;
  std::map<std::string, Fingerprint> learned_;
};

/// Invariants of the paper statements (each returns "" when it holds).
/// `beta` is an OLS coefficient relation (C, <y>): the coefficient on row
/// `row` must lie in [lo, hi].
std::string CheckCoefficient(const rma::Relation& beta, const std::string& row,
                             double lo, double hi);
/// Sum of every DOUBLE cell equals `expected` within a relative tolerance.
std::string CheckGrandTotal(const rma::Relation& r, double expected,
                            double rel_tol = 1e-9);
/// Sum of every DOUBLE cell (for CheckGrandTotal's expectation).
double GrandTotal(const rma::Relation& r);
/// The DOUBLE part of `r` (rows × double columns, named by a leading STRING
/// column C) is square and symmetric within `tol`·max|x|.
std::string CheckSymmetric(const rma::Relation& r, double tol = 1e-9);
/// The DOUBLE columns of `r` are orthonormal: |QᵀQ - I| <= tol elementwise.
std::string CheckOrthonormal(const rma::Relation& r, double tol = 1e-8);
/// Composes invariants; the first violation wins.
Invariant AllOf(std::vector<Invariant> parts);
Invariant RowsAre(int64_t rows);

// --- set-up timing ----------------------------------------------------------

/// Runs `generate` (data generation, untimed) once, then `setup` `reps`
/// times, timing only the setup calls. Returns the per-rep seconds.
/// `setup` receives the rep index; the last rep's state is what the caller
/// serves from.
std::vector<double> TimeSetups(const std::function<void()>& generate,
                               const std::function<void(int rep)>& setup,
                               int reps);

// --- closed loop ------------------------------------------------------------

enum class Outcome { kOk, kWrong, kError, kRefused };

/// One request's work, split so verification is not timed: `execute` is the
/// timed call into the program; `verify` (untimed) checks what it returned.
struct Request {
  std::function<Outcome()> execute;
  std::function<Outcome()> verify;
  /// Which statement of the client's mix this is (0..k-1), for ServiceRate.
  int kind = 0;
};

struct LoopResult {
  std::vector<double> latencies_ms;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t wrong = 0;
  int64_t errors = 0;
  int64_t refused = 0;
  /// Σ over clients of the client's ServiceRate.
  double stmt_per_s = 0;
  int64_t failed() const { return wrong + errors + refused; }
};

/// The percentile of a statement's latencies that ServiceRate takes as its
/// time.
inline constexpr double kServiceQuantile = 0.10;

/// Correct requests per second one client sustains at the program's own
/// speed. Per kind (a statement of the client's mix), the kServiceQuantile
/// percentile of the latencies of its correct requests; the rate is the
/// number of kinds over the sum of those times, scaled by the share of
/// requests that were correct. Other tenants of a shared host only ever add
/// time to a request, and they do so in phases that cover many requests, so
/// a low percentile per statement follows the program where the mean or
/// median follows the host; the latency percentiles keep the tail. A kind
/// without a correct request gives 0. Verification and request preparation
/// are not part of a latency.
double ServiceRate(const std::vector<double>& latencies_ms,
                   const std::vector<bool>& ok, const std::vector<int>& kinds);

/// `clients` threads each send their next request only after the previous
/// one finished (closed loop), for `seconds` and until at least
/// `min_requests` requests completed in total (bounded by a hard cap of
/// 60 extra seconds). `make_request(client, seq)` builds a client's seq-th
/// request; it runs on that client's thread.
LoopResult RunClosedLoop(
    int clients, double seconds, int64_t min_requests,
    const std::function<Request(int client, int64_t seq)>& make_request);

// --- tracing ----------------------------------------------------------------

/// In-memory spans recorded around the benchmark's calls into each layer.
/// A span has a name, start and end, the span that caused it, and the
/// request it belongs to. Derived spans carry a duration read from a
/// program counter (e.g. RmaStats stage seconds) instead of clock stamps;
/// they count as children of their parent for self time.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    int64_t request = -1;
    double start = 0;
    double end = 0;
    bool derived = false;
    double seconds() const { return end - start; }
  };
  struct LayerTime {
    int64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// Opens a span on this thread (child of the thread's innermost open
  /// span); returns its id.
  int64_t Begin(const std::string& name);
  void End(int64_t id);
  /// Starts a new request on this thread: the next root span gets a fresh
  /// request id.
  void NewRequest();
  /// Attaches a counter-measured child of `parent`.
  void AddDerived(int64_t parent, const std::string& name, double seconds);
  /// Adds the RmaStats stage seconds of one call as derived children of
  /// `parent` (core.sort, core.gather, matrix.kernel, core.scatter,
  /// core.morph, core.merge).
  void AddStages(int64_t parent, const rma::RmaStats& stats);

  std::vector<Span> spans() const;
  int64_t requests() const;
  /// Per span name: calls, total and self seconds (self = duration minus
  /// the durations of its children).
  std::map<std::string, LayerTime> SelfTimes() const;
  /// Writes every span as one JSON object per line.
  rma::Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_request_ = 0;
};

/// RAII span; a no-op when the tracer is null (an untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_ = -1;
};

/// The per-layer self-time table, with an explicit `unattributed` row (the
/// self time of the request root spans), as printable text.
std::string SelfTimeTable(const Tracer& tracer);

// --- reporting --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Build and host facts recorded with every result (like-for-like guard).
struct Environment {
  int hardware_concurrency = 0;
  int thread_budget = 0;  ///< the engine's effective default budget
  std::string simd;
  std::string compiler;
  std::string build_type;
};
Environment CurrentEnvironment();

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

std::string JsonEscape(const std::string& s);
/// A number with all its digits (17 significant), or 0 for non-finite.
std::string JsonNumber(double v);
std::string MetricsJson(const Metrics& m);

}  // namespace rmabench

#endif  // RMABENCH_HARNESS_H_
