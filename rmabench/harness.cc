#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>
#include <variant>

#include "matrix/parallel.h"
#include "matrix/simd.h"

#ifndef RMABENCH_COMPILER
#define RMABENCH_COMPILER "unknown"
#endif
#ifndef RMABENCH_BUILD_TYPE
#define RMABENCH_BUILD_TYPE "unknown"
#endif

namespace rmabench {

using rma::DataType;
using rma::Relation;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles ------------------------------------------------------------

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  const auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::clamp<int64_t>(rank, 1, n);
}

int64_t MinSamplesFor(double p, int64_t beyond) {
  int64_t n = 1;
  while (SamplesBeyond(n, p) < beyond) ++n;
  return n;
}

double SegmentedPercentile(const std::vector<double>& samples, double p) {
  const auto n = static_cast<int64_t>(samples.size());
  const int64_t segments =
      std::clamp<int64_t>(n / MinSamplesFor(p, 5), 1, 9);
  std::vector<double> per_segment;
  for (int64_t k = 0; k < segments; ++k) {
    per_segment.push_back(Percentile(
        std::vector<double>(samples.begin() + k * n / segments,
                            samples.begin() + (k + 1) * n / segments),
        p));
  }
  return Median(per_segment);
}

// --- fingerprints -----------------------------------------------------------

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Mix(h);
}

bool Close(double want, double got, double scale, double rel_tol) {
  return std::fabs(want - got) <= rel_tol * std::max(scale, 1e-300);
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Indices of the DOUBLE columns of `r`.
std::vector<int> DoubleColumns(const Relation& r) {
  std::vector<int> out;
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.schema().attribute(c).type == DataType::kDouble) out.push_back(c);
  }
  return out;
}

/// First STRING column of `r`, or -1.
int FirstStringColumn(const Relation& r) {
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.schema().attribute(c).type == DataType::kString) return c;
  }
  return -1;
}

}  // namespace

Fingerprint FingerprintOf(const Relation& r) {
  Fingerprint fp;
  fp.rows = r.num_rows();
  for (int c = 0; c < r.num_columns(); ++c) {
    const rma::Attribute& attr = r.schema().attribute(c);
    const rma::Bat& col = *r.column(c);
    ColumnPrint cp;
    cp.name = attr.name;
    cp.type = attr.type;
    const int64_t n = col.size();
    if (attr.type == DataType::kDouble) {
      const double* data = col.ContiguousDoubleData();
      for (int64_t i = 0; i < n; ++i) {
        const double x = data != nullptr ? data[i] : col.GetDouble(i);
        if (!std::isfinite(x)) {
          ++cp.non_finite;
          continue;
        }
        cp.sum += x;
        cp.abs_sum += std::fabs(x);
        cp.sq_sum += x * x;
      }
    } else if (attr.type == DataType::kInt64) {
      for (int64_t i = 0; i < n; ++i) {
        cp.hash_sum +=
            Mix(static_cast<uint64_t>(std::get<int64_t>(col.GetValue(i))));
      }
    } else {
      for (int64_t i = 0; i < n; ++i) cp.hash_sum += HashString(col.GetString(i));
    }
    fp.columns.push_back(std::move(cp));
  }
  std::sort(fp.columns.begin(), fp.columns.end(),
            [](const ColumnPrint& a, const ColumnPrint& b) {
              return a.name < b.name;
            });
  return fp;
}

std::string CompareFingerprints(const Fingerprint& want, const Fingerprint& got,
                                double rel_tol) {
  if (want.rows != got.rows) {
    return "rows " + std::to_string(got.rows) + " != expected " +
           std::to_string(want.rows);
  }
  if (want.columns.size() != got.columns.size()) {
    return "columns " + std::to_string(got.columns.size()) + " != expected " +
           std::to_string(want.columns.size());
  }
  for (size_t i = 0; i < want.columns.size(); ++i) {
    const ColumnPrint& w = want.columns[i];
    const ColumnPrint& g = got.columns[i];
    if (w.name != g.name || w.type != g.type) {
      return "column '" + g.name + "' where '" + w.name + "' was expected";
    }
    if (w.type != DataType::kDouble) {
      if (w.hash_sum != g.hash_sum) return "values of column '" + w.name + "'";
      continue;
    }
    if (w.non_finite != g.non_finite ||
        !Close(w.sum, g.sum, w.abs_sum, rel_tol) ||
        !Close(w.abs_sum, g.abs_sum, w.abs_sum, rel_tol) ||
        !Close(w.sq_sum, g.sq_sum, w.sq_sum, rel_tol)) {
      return "checksum of column '" + w.name + "': sum " + Fmt(g.sum) +
             " vs expected " + Fmt(w.sum);
    }
  }
  return "";
}

std::string Oracle::Check(const std::string& key, const Relation& r,
                          const Invariant& invariant) {
  Fingerprint got = FingerprintOf(r);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = learned_.find(key);
    if (it != learned_.end()) {
      std::string why = CompareFingerprints(it->second, got);
      return why.empty() ? "" : key + ": " + why;
    }
  }
  if (invariant) {
    std::string why = invariant(r);
    if (!why.empty()) return key + ": " + why;
  }
  std::lock_guard<std::mutex> lock(mu_);
  learned_.emplace(key, std::move(got));
  return "";
}

std::string CheckCoefficient(const Relation& beta, const std::string& row,
                             double lo, double hi) {
  const int names = FirstStringColumn(beta);
  const std::vector<int> values = DoubleColumns(beta);
  if (names < 0 || values.empty()) return "coefficient relation has no C/value";
  for (int64_t i = 0; i < beta.num_rows(); ++i) {
    if (beta.column(names)->GetString(i) != row) continue;
    const double v = beta.column(values[0])->GetDouble(i);
    if (v >= lo && v <= hi) return "";
    return "coefficient " + row + " = " + Fmt(v) + " outside [" + Fmt(lo) +
           ", " + Fmt(hi) + "]";
  }
  return "coefficient row " + row + " missing";
}

double GrandTotal(const Relation& r) {
  double total = 0;
  for (int c : DoubleColumns(r)) {
    const rma::Bat& col = *r.column(c);
    for (int64_t i = 0; i < col.size(); ++i) total += col.GetDouble(i);
  }
  return total;
}

std::string CheckGrandTotal(const Relation& r, double expected,
                            double rel_tol) {
  const double got = GrandTotal(r);
  if (Close(expected, got, std::fabs(expected), rel_tol)) return "";
  return "grand total " + Fmt(got) + " != expected " + Fmt(expected);
}

std::string CheckSymmetric(const Relation& r, double tol) {
  const std::vector<int> cols = DoubleColumns(r);
  const int names = FirstStringColumn(r);
  const int64_t k = static_cast<int64_t>(cols.size());
  if (k == 0 || r.num_rows() != k) {
    return "not square: " + std::to_string(r.num_rows()) + "x" +
           std::to_string(k);
  }
  // Row i is the row whose C value names column i (positional without C).
  std::vector<int64_t> row_of(static_cast<size_t>(k));
  for (int64_t j = 0; j < k; ++j) {
    row_of[static_cast<size_t>(j)] = j;
    if (names < 0) continue;
    const std::string& want = r.schema().attribute(cols[static_cast<size_t>(j)]).name;
    bool found = false;
    for (int64_t i = 0; i < k && !found; ++i) {
      if (r.column(names)->GetString(i) == want) {
        row_of[static_cast<size_t>(j)] = i;
        found = true;
      }
    }
    if (!found) return "no row for column " + want;
  }
  double scale = 0;
  for (int c : cols) {
    for (int64_t i = 0; i < k; ++i) {
      scale = std::max(scale, std::fabs(r.column(c)->GetDouble(i)));
    }
  }
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = a + 1; b < k; ++b) {
      const double ab = r.column(cols[static_cast<size_t>(b)])
                            ->GetDouble(row_of[static_cast<size_t>(a)]);
      const double ba = r.column(cols[static_cast<size_t>(a)])
                            ->GetDouble(row_of[static_cast<size_t>(b)]);
      if (std::fabs(ab - ba) > tol * std::max(scale, 1e-300)) {
        return "not symmetric at (" + std::to_string(a) + "," +
               std::to_string(b) + "): " + Fmt(ab) + " vs " + Fmt(ba);
      }
    }
  }
  return "";
}

std::string CheckOrthonormal(const Relation& r, double tol) {
  const std::vector<int> cols = DoubleColumns(r);
  const size_t k = cols.size();
  std::vector<std::vector<double>> q(k);
  for (size_t j = 0; j < k; ++j) {
    const rma::Bat& col = *r.column(cols[j]);
    q[j].resize(static_cast<size_t>(col.size()));
    for (int64_t i = 0; i < col.size(); ++i) {
      q[j][static_cast<size_t>(i)] = col.GetDouble(i);
    }
  }
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a; b < k; ++b) {
      double dot = 0;
      for (size_t i = 0; i < q[a].size(); ++i) dot += q[a][i] * q[b][i];
      const double want = a == b ? 1.0 : 0.0;
      if (std::fabs(dot - want) > tol) {
        return "Q columns " + std::to_string(a) + "," + std::to_string(b) +
               " have dot " + Fmt(dot) + " (want " + Fmt(want) + ")";
      }
    }
  }
  return "";
}

Invariant AllOf(std::vector<Invariant> parts) {
  return [parts = std::move(parts)](const Relation& r) {
    for (const Invariant& p : parts) {
      std::string why = p(r);
      if (!why.empty()) return why;
    }
    return std::string();
  };
}

Invariant RowsAre(int64_t rows) {
  return [rows](const Relation& r) {
    if (r.num_rows() == rows) return std::string();
    return "rows " + std::to_string(r.num_rows()) + " != " +
           std::to_string(rows);
  };
}

// --- set-up timing ----------------------------------------------------------

std::vector<double> TimeSetups(const std::function<void()>& generate,
                               const std::function<void(int rep)>& setup,
                               int reps) {
  generate();
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = Now();
    setup(rep);
    seconds.push_back(Now() - t0);
  }
  return seconds;
}

// --- closed loop ------------------------------------------------------------

double ServiceRate(const std::vector<double>& latencies_ms,
                   const std::vector<bool>& ok, const std::vector<int>& kinds) {
  std::map<int, std::vector<double>> by_kind;
  int64_t good = 0;
  for (size_t i = 0; i < latencies_ms.size(); ++i) {
    std::vector<double>& times = by_kind[kinds[i]];
    if (!ok[i]) continue;
    times.push_back(latencies_ms[i] * 1e-3);
    ++good;
  }
  double pass_s = 0;
  for (const auto& [kind, times] : by_kind) {
    if (times.empty()) return 0;
    pass_s += Percentile(times, kServiceQuantile);
  }
  if (pass_s <= 0) return 0;
  return static_cast<double>(by_kind.size()) / pass_s *
         static_cast<double>(good) / static_cast<double>(latencies_ms.size());
}

LoopResult RunClosedLoop(
    int clients, double seconds, int64_t min_requests,
    const std::function<Request(int client, int64_t seq)>& make_request) {
  struct ClientTally {
    std::vector<double> latencies_ms;
    std::vector<bool> ok_flags;
    std::vector<int> kinds;
    int64_t ok = 0, wrong = 0, errors = 0, refused = 0;
  };
  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::atomic<int64_t> done{0};
  const double start = Now();
  const double deadline = start + seconds;
  const double hard_deadline = deadline + 60.0;
  auto client_loop = [&](int c) {
    ClientTally& t = tallies[static_cast<size_t>(c)];
    for (int64_t seq = 0;; ++seq) {
      const double now = Now();
      if (now >= hard_deadline) break;
      if (now >= deadline && done.load() >= min_requests) break;
      Request req = make_request(c, seq);
      const double t0 = Now();
      double t1 = t0;
      Outcome o = Outcome::kError;
      // An exception is this request's error, not the end of the run: the
      // other clients' threads must still be joined.
      try {
        o = req.execute();
        t1 = Now();
        if (o == Outcome::kOk && req.verify) o = req.verify();
      } catch (const std::exception&) {
        t1 = Now();
        o = Outcome::kError;
      }
      t.latencies_ms.push_back((t1 - t0) * 1e3);
      t.ok_flags.push_back(o == Outcome::kOk);
      t.kinds.push_back(req.kind);
      switch (o) {
        case Outcome::kOk: ++t.ok; break;
        case Outcome::kWrong: ++t.wrong; break;
        case Outcome::kError: ++t.errors; break;
        case Outcome::kRefused: ++t.refused; break;
      }
      done.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& th : threads) th.join();

  LoopResult out;
  for (const ClientTally& t : tallies) {
    out.latencies_ms.insert(out.latencies_ms.end(), t.latencies_ms.begin(),
                            t.latencies_ms.end());
    out.ok += t.ok;
    out.wrong += t.wrong;
    out.errors += t.errors;
    out.refused += t.refused;
    out.stmt_per_s += ServiceRate(t.latencies_ms, t.ok_flags, t.kinds);
  }
  out.attempted = static_cast<int64_t>(out.latencies_ms.size());
  return out;
}

// --- tracing ----------------------------------------------------------------

namespace {

struct ThreadTraceState {
  const Tracer* tracer = nullptr;
  std::vector<int64_t> open;  ///< innermost last
  int64_t request = -1;
};
thread_local ThreadTraceState tl_trace;

ThreadTraceState& StateFor(const Tracer* tracer) {
  if (tl_trace.tracer != tracer) tl_trace = ThreadTraceState{tracer, {}, -1};
  return tl_trace;
}

}  // namespace

int64_t Tracer::Begin(const std::string& name) {
  ThreadTraceState& st = StateFor(this);
  Span span;
  span.name = name;
  span.parent = st.open.empty() ? -1 : st.open.back();
  span.request = st.request;
  span.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  const auto id = static_cast<int64_t>(spans_.size()) - 1;
  st.open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double end = Now();
  ThreadTraceState& st = StateFor(this);
  if (!st.open.empty() && st.open.back() == id) st.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

void Tracer::NewRequest() {
  ThreadTraceState& st = StateFor(this);
  std::lock_guard<std::mutex> lock(mu_);
  st.request = next_request_++;
}

void Tracer::AddDerived(int64_t parent, const std::string& name,
                        double seconds) {
  if (parent < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = spans_[static_cast<size_t>(parent)].request;
  span.start = spans_[static_cast<size_t>(parent)].start;
  span.end = span.start + seconds;
  span.derived = true;
  spans_.push_back(std::move(span));
}

void Tracer::AddStages(int64_t parent, const rma::RmaStats& s) {
  AddDerived(parent, "core.sort", s.sort_seconds);
  AddDerived(parent, "core.gather", s.transform_in_seconds);
  AddDerived(parent, "matrix.kernel", s.compute_seconds);
  AddDerived(parent, "core.scatter", s.transform_out_seconds);
  AddDerived(parent, "core.morph", s.morph_seconds);
  AddDerived(parent, "core.merge", s.merge_seconds);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t Tracer::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_;
}

std::map<std::string, Tracer::LayerTime> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_s(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.seconds();
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < all.size(); ++i) {
    LayerTime& lt = out[all[i].name];
    ++lt.calls;
    lt.total_s += all[i].seconds();
    lt.self_s += all[i].seconds() - child_s[i];
  }
  return out;
}

rma::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return rma::Status::IoError("cannot write " + path);
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_s\":" << JsonNumber(s.start)
        << ",\"dur_s\":" << JsonNumber(s.seconds())
        << ",\"derived\":" << (s.derived ? "true" : "false") << "}\n";
  }
  out.close();
  if (!out) return rma::Status::IoError("short write to " + path);
  return rma::Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

std::string SelfTimeTable(const Tracer& tracer) {
  const std::map<std::string, Tracer::LayerTime> times = tracer.SelfTimes();
  auto root = times.find("request");
  const double wall = root == times.end() ? 0 : root->second.total_s;
  const double requests =
      std::max<double>(1, static_cast<double>(tracer.requests()));
  std::vector<std::pair<std::string, Tracer::LayerTime>> rows;
  for (const auto& [name, lt] : times) {
    if (name != "request") rows.emplace_back(name, lt);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  if (root != times.end()) rows.emplace_back("unattributed", root->second);
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %10s %14s %16s %8s\n", "layer",
                "calls", "self ms/req", "total ms/req", "share");
  out += line;
  for (const auto& [name, lt] : rows) {
    std::snprintf(line, sizeof(line), "%-22s %10lld %14.4f %16.4f %7.2f%%\n",
                  name.c_str(), static_cast<long long>(lt.calls),
                  lt.self_s * 1e3 / requests, lt.total_s * 1e3 / requests,
                  wall > 0 ? 100.0 * lt.self_s / wall : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-22s %10.0f %14s %16.4f %7.2f%%\n",
                "request wall", requests, "", wall * 1e3 / requests, 100.0);
  out += line;
  return out;
}

// --- reporting --------------------------------------------------------------

Environment CurrentEnvironment() {
  Environment env;
  env.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
  env.thread_budget = rma::DefaultThreadCount();
  env.simd = rma::simd::Describe();
  env.compiler = RMABENCH_COMPILER;
  env.build_type = RMABENCH_BUILD_TYPE;
  return env;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return Fmt(v);
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": \"" +
           JsonEscape(metric.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace rmabench
