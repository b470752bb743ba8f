#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "client/client.h"
#include "core/query_cache.h"
#include "server/server.h"
#include "sql/database.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "util/random.h"
#include "workload/bixi.h"
#include "workload/dblp.h"
#include "workload/synthetic.h"

namespace rmabench {

namespace {

using rma::Relation;
namespace sql = rma::sql;

/// Set-ups per run; setup_s is their median. Set-ups that take
/// milliseconds are repeated more, so that their median is steady.
constexpr int kSetupReps = 3;
constexpr int kQuickSetupReps = 9;
/// p95 needs >= 10 samples beyond it.
const int64_t kMinRequests = MinSamplesFor(0.95, 10);
/// Traced runs spend this share of --seconds untraced (the overhead
/// baseline) and the rest traced.
constexpr double kUntracedShare = 1.0 / 3.0;

struct Statement {
  std::string key;
  std::string sql;
  Invariant invariant;
};

/// The statement a single client sends as its seq-th request.
using NextStatement = std::function<Statement(int64_t seq)>;

uint64_t SubSeed(uint64_t seed, uint64_t k) { return seed * 1000003ull + k; }

/// The same rows in a seeded random physical order.
Relation Shuffled(const Relation& r, uint64_t seed) {
  std::vector<int64_t> idx(static_cast<size_t>(r.num_rows()));
  std::iota(idx.begin(), idx.end(), 0);
  rma::Rng rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  Relation out = r.TakeRows(idx);
  out.set_name(r.name());
  return out;
}

int64_t ColumnBytes(const Relation& r) {
  return r.num_rows() * r.num_columns() * static_cast<int64_t>(sizeof(double));
}

int64_t IntAt(const Relation& r, int col, int64_t row) {
  return std::get<int64_t>(r.column(col)->GetValue(row));
}

/// Collects oracle violations and errors; keeps the first few messages.
class Violations {
 public:
  void Add(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (messages_.size() < 8) messages_.push_back(why);
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
  std::vector<std::string> messages_;
};

Outcome FromStatus(const rma::Status& s, const std::string& what,
                   Violations* v) {
  v->Add(what + ": " + s.ToString());
  return s.IsResourceExhausted() ? Outcome::kRefused : Outcome::kError;
}

/// Untraced single statement: what a user calls.
Outcome ExecuteStatement(sql::Database& db, const Statement& s, Relation* out,
                         Violations* v) {
  auto r = db.Execute(s.sql);
  if (!r.ok()) return FromStatus(r.status(), s.key, v);
  *out = std::move(*r);
  return Outcome::kOk;
}

Outcome CheckResult(Oracle* oracle, const Statement& s, const Relation& r,
                    Violations* v) {
  std::string why = oracle->Check(s.key, r, s.invariant);
  if (why.empty()) return Outcome::kOk;
  v->Add(why);
  return Outcome::kWrong;
}

/// Traced single statement: Database::Query split into the public calls it
/// makes (parse, normalize, cached execution on a context borrowing the
/// database's query cache), with the context's stage totals attached as
/// derived children of the execute span.
Outcome TracedSelect(sql::Database& db, const Statement& s, Tracer* tr,
                     Relation* out, int64_t* ops, Violations* v) {
  tr->NewRequest();
  ScopedSpan request(tr, "request");
  rma::Result<sql::SelectStmtPtr> stmt = [&] {
    ScopedSpan span(tr, "sql.parse");
    return sql::ParseSelect(s.sql);
  }();
  if (!stmt.ok()) return FromStatus(stmt.status(), s.key, v);
  std::string normalized;
  {
    ScopedSpan span(tr, "sql.normalize");
    normalized = rma::QueryCache::NormalizeStatement(s.sql);
  }
  const int64_t exec = tr->Begin("sql.execute");
  rma::ExecContext ctx(db.rma_options, db.query_cache());
  auto r = sql::ExecuteSelectCached(db, **stmt, normalized, &ctx);
  tr->End(exec);
  tr->AddStages(exec, ctx.totals());
  *ops += static_cast<int64_t>(ctx.plans().size());
  if (!r.ok()) return FromStatus(r.status(), s.key, v);
  *out = std::move(*r);
  return Outcome::kOk;
}

double Seconds(const std::map<std::string, Tracer::LayerTime>& t,
               const std::string& name, bool self = false) {
  auto it = t.find(name);
  if (it == t.end()) return 0;
  return self ? it->second.self_s : it->second.total_s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// sql.* / core.* stage / matrix.kernel metrics per request of a tracer
/// whose requests went through TracedSelect or the pipeline round.
void AddEngineLayerMetrics(const Tracer& tr, Metrics* m) {
  const auto t = tr.SelfTimes();
  const double req = std::max<double>(1, static_cast<double>(tr.requests()));
  auto ms = [&](const char* name) { return Seconds(t, name) / req * 1e3; };
  (*m)["sql.parse_us"] = {ms("sql.parse") * 1e3, "us"};
  (*m)["sql.normalize_us"] = {ms("sql.normalize") * 1e3, "us"};
  (*m)["sql.execute_ms"] = {ms("sql.execute"), "ms"};
  (*m)["sql.unattributed_ms"] = {
      (Seconds(t, "sql.execute", true) + Seconds(t, "sql.script", true)) /
          req * 1e3,
      "ms"};
  (*m)["sql.register_ms"] = {ms("sql.register"), "ms"};
  (*m)["sql.script_ms"] = {ms("sql.script"), "ms"};
  const double stages = ms("core.sort") + ms("core.gather") +
                        ms("matrix.kernel") + ms("core.scatter") +
                        ms("core.morph") + ms("core.merge");
  (*m)["sql.batch_overlap"] = {Ratio(stages, ms("sql.script")), "ratio"};
  (*m)["core.sort_ms"] = {ms("core.sort"), "ms"};
  (*m)["core.gather_ms"] = {ms("core.gather"), "ms"};
  (*m)["core.scatter_ms"] = {ms("core.scatter"), "ms"};
  (*m)["core.morph_ms"] = {ms("core.morph"), "ms"};
  (*m)["core.merge_ms"] = {ms("core.merge"), "ms"};
  (*m)["matrix.kernel_ms"] = {ms("matrix.kernel"), "ms"};
  (*m)["request.unattributed_ms"] = {Seconds(t, "request", true) / req * 1e3,
                                     "ms"};
}

/// Query-cache effectiveness over a traced phase; `statements` is the
/// number of SQL statements the phase ran, `ops` the matrix operations.
void AddCacheMetrics(const rma::QueryCache::Counters& a,
                     const rma::QueryCache::Counters& b, int64_t statements,
                     int64_t ops, Metrics* m) {
  const double plan_hits = static_cast<double>(b.plan_hits - a.plan_hits);
  const double plan_lookups =
      plan_hits + static_cast<double>(b.plan_misses - a.plan_misses);
  const double prep_hits =
      static_cast<double>(b.prepared_hits - a.prepared_hits);
  const double prep_lookups =
      prep_hits + static_cast<double>(b.prepared_misses - a.prepared_misses);
  (*m)["core.plan_cache_hit_ratio"] = {Ratio(plan_hits, plan_lookups), "ratio"};
  (*m)["core.plan_cache_lookups"] = {plan_lookups, "count"};
  (*m)["core.prepared_cache_hit_ratio"] = {Ratio(prep_hits, prep_lookups),
                                           "ratio"};
  (*m)["core.prepared_cache_lookups"] = {prep_lookups, "count"};
  (*m)["core.prepared_cache_evictions"] = {
      static_cast<double>(b.evictions - a.evictions), "count"};
  (*m)["core.ops_per_stmt"] = {
      Ratio(static_cast<double>(ops), static_cast<double>(statements)),
      "count"};
}

void AddPoolMetrics(const rma::BufferPoolStats& a,
                    const rma::BufferPoolStats& b, double statements,
                    Metrics* m) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  (*m)["storage.pool_hit_ratio"] = {Ratio(hits, hits + misses), "ratio"};
  (*m)["storage.pool_pins"] = {hits + misses, "count"};
  (*m)["storage.pool_misses_per_stmt"] = {Ratio(misses, statements), "count"};
  (*m)["storage.pool_evictions_per_stmt"] = {
      Ratio(static_cast<double>(b.evictions - a.evictions), statements),
      "count"};
  (*m)["storage.pool_overcommits"] = {
      static_cast<double>(b.overcommits - a.overcommits), "count"};
  (*m)["storage.pool_resident_mb"] = {
      static_cast<double>(b.resident_bytes) / (1024.0 * 1024.0), "MB"};
}

std::string OverheadLine(double untraced, double traced) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: untraced %.2f stmt/s, traced %.2f stmt/s, "
                "ratio %.4f\n",
                untraced, traced, Ratio(untraced, traced));
  return buf;
}

void Tally(const LoopResult& loop, RunOutput* out) {
  out->attempted += loop.attempted;
  out->failed += loop.failed();
}

/// `setup_failures`: oracle violations and errors before the loops ran.
void Conclude(const Violations& v, int64_t setup_failures, RunOutput* out) {
  out->failed += setup_failures;
  out->correct = out->failed == 0 && v.count() == 0 && out->attempted > 0;
  out->violations = v.messages();
}

/// Writes the traced run's report and spans.
void ReportTrace(const RunOptions& opts, const Tracer& tr,
                 const LoopResult& plain, const LoopResult& traced,
                 RunOutput* out) {
  out->metrics["trace.overhead_ratio"] = {
      Ratio(plain.stmt_per_s, traced.stmt_per_s), "ratio"};
  out->report += SelfTimeTable(tr);
  out->report += OverheadLine(plain.stmt_per_s, traced.stmt_per_s);
  if (opts.trace_path.empty()) return;
  rma::Status s = tr.WriteJsonLines(opts.trace_path);
  if (!s.ok()) out->report += "trace not written: " + s.ToString() + "\n";
}

/// The single-client in-process request loop of analyst_warm and
/// paged_cold (and the server workload's in-process pass): untraced it
/// calls Database::Execute; traced it goes through TracedSelect. `period`
/// is the number of statements in one pass over the mix.
LoopResult InProcessLoop(sql::Database& db, const NextStatement& next,
                         int64_t period, Oracle* oracle, double seconds,
                         int64_t min_requests, Tracer* tr, int64_t* ops,
                         Violations* v) {
  Relation result;
  Statement s;
  return RunClosedLoop(1, seconds, min_requests, [&](int, int64_t seq) {
    s = next(seq);
    Request req;
    req.kind = static_cast<int>(seq % period);
    req.execute = [&, tr, ops] {
      return tr != nullptr ? TracedSelect(db, s, tr, &result, ops, v)
                           : ExecuteStatement(db, s, &result, v);
    };
    req.verify = [&] { return CheckResult(oracle, s, result, v); };
    return req;
  });
}

/// Runs the untraced loop (end-to-end run) or the untraced + traced pair
/// (traced run) of an in-process workload. `around_traced` is called with
/// false before and true after the traced loop, with the traced request
/// count (for per-statement layer counters).
void MeasureInProcess(const RunOptions& opts, sql::Database& db,
                      const NextStatement& next, int64_t period, Oracle* oracle,
                      const std::vector<double>& setups, Violations* v,
                      int64_t setup_failures, RunOutput* out,
                      const std::function<void(bool, double)>& around_traced) {
  if (!opts.trace) {
    const LoopResult loop =
        InProcessLoop(db, next, period, oracle, opts.seconds, kMinRequests,
                      nullptr, nullptr, v);
    out->metrics = EndToEndMetrics(loop, setups);
    Tally(loop, out);
    Conclude(*v, setup_failures, out);
    return;
  }
  const LoopResult plain =
      InProcessLoop(db, next, period, oracle, opts.seconds * kUntracedShare,
                    20, nullptr, nullptr, v);
  Tracer tr;
  int64_t ops = 0;
  const auto cache_before = db.query_cache()->counters();
  around_traced(false, 0);
  const LoopResult traced =
      InProcessLoop(db, next, period, oracle,
                    opts.seconds * (1 - kUntracedShare), 20, &tr, &ops, v);
  around_traced(true, static_cast<double>(traced.attempted));
  AddEngineLayerMetrics(tr, &out->metrics);
  AddCacheMetrics(cache_before, db.query_cache()->counters(), traced.attempted,
                  ops, &out->metrics);
  ReportTrace(opts, tr, plain, traced, out);
  Tally(plain, out);
  Tally(traced, out);
  Conclude(*v, setup_failures, out);
}

// --- statements -----------------------------------------------------------------

std::string ConfName(int c) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "conf%03d", c);
  return buf;
}

Invariant Symmetric() {
  return [](const Relation& r) { return CheckSymmetric(r); };
}

Statement OlsStatement() {
  // Fig. 15: OLS of trip duration on trip distance, the design matrix built
  // by joining trips with both endpoint stations.
  const std::string dist =
      "SQRT(((b.lat - a.lat) * 111.0) * ((b.lat - a.lat) * 111.0) + "
      "((b.lon - a.lon) * 78.0) * ((b.lon - a.lon) * 78.0))";
  const std::string x =
      "(SELECT t.id AS id, 1.0 AS c0, " + dist +
      " AS c1 FROM trips t JOIN stations a ON t.start_station = a.code "
      "JOIN stations b ON t.end_station = b.code)";
  const std::string y = "(SELECT id, duration AS y FROM trips)";
  // The generator draws durations around 300 s + 240 s/km.
  return {"ols",
          "SELECT * FROM MMU(INV(CPD(" + x + " x1 BY id, " + x +
              " x2 BY id) BY C) BY C, CPD(" + x + " x3 BY id, " + y +
              " y BY id) BY C)",
          AllOf({RowsAre(2),
                 [](const Relation& r) {
                   return CheckCoefficient(r, "c1", 200.0, 280.0);
                 },
                 [](const Relation& r) {
                   return CheckCoefficient(r, "c0", 250.0, 350.0);
                 }})};
}

Statement CovarianceStatement(int confs) {
  // Fig. 17: covariance of per-conference publication counts, centred by
  // a CROSS JOIN with the column means.
  std::string centred = "(SELECT p.Author";
  std::string means = "(SELECT ";
  for (int c = 0; c < confs; ++c) {
    const std::string n = ConfName(c);
    centred += ", p." + n + " - t." + n + " AS " + n;
    means += std::string(c > 0 ? ", " : "") + "AVG(" + n + ") AS " + n;
  }
  centred += " FROM pub p CROSS JOIN " + means + " FROM pub) AS t)";
  return {"cov",
          "SELECT * FROM CPD(" + centred + " c1 BY Author, " + centred +
              " c2 BY Author)",
          AllOf({RowsAre(confs), Symmetric()})};
}

Statement AddStatement(int64_t riders, double total) {
  // Fig. 18: trip counts of two rider tables stored in different orders.
  return {"add", "SELECT * FROM ADD(r1 BY rider, r2 BY rider_b)",
          AllOf({RowsAre(riders), [total](const Relation& r) {
                   return CheckGrandTotal(r, total);
                 }})};
}

Statement GramStatement(int cols) {
  return {"gram", "SELECT * FROM MMU(TRA(m BY id) BY C, m BY id)",
          AllOf({RowsAre(cols), Symmetric()})};
}

Statement QrStatement(int64_t rows) {
  return {"qqr", "SELECT * FROM QQR(q BY (g, id))",
          AllOf({RowsAre(rows),
                 [](const Relation& r) { return CheckOrthonormal(r); }})};
}

// --- analyst data (analyst_warm, paged_cold) ---------------------------------

struct AnalystSizes {
  int64_t trips;
  int stations;
  int64_t riders;
  int64_t gram_rows;
  int gram_cols;
  int64_t qr_rows;
  int qr_cols;
  int64_t authors;
  int confs;
};

struct AnalystData {
  rma::workload::BixiData bixi;
  Relation r1, r2, m, q, pub;
  double add_total = 0;
};

AnalystData MakeAnalystData(const AnalystSizes& z, uint64_t seed) {
  AnalystData d;
  if (z.trips > 0) {
    d.bixi = rma::workload::GenerateBixi(z.trips, z.stations, SubSeed(seed, 1));
  }
  d.r1 = rma::workload::GenerateTripCounts(z.riders, 10, SubSeed(seed, 2));
  d.r1.set_name("r1");
  // The second rider table lists the riders in another physical order, so
  // ADD must align the two (Sec. 8.1); its key is renamed because ADD needs
  // disjoint order schemas.
  const Relation r2 =
      rma::workload::GenerateTripCounts(z.riders, 10, SubSeed(seed, 3));
  d.r2 = Shuffled(r2.RenameColumn(0, "rider_b").ValueOrDie(), SubSeed(seed, 4));
  d.r2.set_name("r2");
  d.add_total = GrandTotal(d.r1) + GrandTotal(d.r2);
  d.m = rma::workload::UniformRelation(z.gram_rows, z.gram_cols,
                                       SubSeed(seed, 5), 0.0, 1.0, false, "m");
  // QR over a two-attribute order schema (g, id).
  const Relation base = rma::workload::UniformRelation(
      z.qr_rows, z.qr_cols, SubSeed(seed, 6), 0.0, 1.0, false, "q");
  std::vector<int64_t> groups(static_cast<size_t>(z.qr_rows));
  for (int64_t i = 0; i < z.qr_rows; ++i) {
    groups[static_cast<size_t>(i)] = IntAt(base, 0, i) % 16;
  }
  std::vector<rma::Attribute> attrs = {{"g", rma::DataType::kInt64}};
  std::vector<rma::BatPtr> cols = {rma::MakeInt64Bat(std::move(groups))};
  for (int c = 0; c < base.num_columns(); ++c) {
    attrs.push_back(base.schema().attribute(c));
    cols.push_back(base.column(c));
  }
  d.q = Relation::Make(rma::Schema::Make(attrs).ValueOrDie(), cols, "q")
            .ValueOrDie();
  if (z.authors > 0) {
    d.pub = rma::workload::GenerateDblp(z.authors, z.confs, SubSeed(seed, 7))
                .publications;
  }
  return d;
}

std::string AnalystSizesText(const AnalystSizes& z) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trips=%lld stations=%d riders=%lldx10 m=%lldx%d q=%lldx%d "
                "pub=%lldx%d",
                static_cast<long long>(z.trips), z.stations,
                static_cast<long long>(z.riders),
                static_cast<long long>(z.gram_rows), z.gram_cols,
                static_cast<long long>(z.qr_rows), z.qr_cols,
                static_cast<long long>(z.authors), z.confs);
  return buf;
}

// --- analyst_warm --------------------------------------------------------------

rma::Result<RunOutput> RunAnalystWarm(const RunOptions& opts) {
  const AnalystSizes z{300000, 400, 200000, 200000, 8, 100000, 4, 50000, 24};
  RunOutput out;
  out.sizes = AnalystSizesText(z);
  AnalystData d;
  std::vector<Statement> mix;
  std::unique_ptr<sql::Database> db;
  std::vector<Relation> first_rounds;
  Violations v;
  const std::vector<double> setups = TimeSetups(
      [&] {
        d = MakeAnalystData(z, opts.seed);
        mix = {OlsStatement(), CovarianceStatement(z.confs),
               AddStatement(z.riders, d.add_total), GramStatement(z.gram_cols),
               QrStatement(z.qr_rows)};
      },
      [&](int) {
        db = std::make_unique<sql::Database>();
        db->Register("trips", d.bixi.trips).Abort();
        db->Register("stations", d.bixi.stations).Abort();
        db->Register("r1", d.r1).Abort();
        db->Register("r2", d.r2).Abort();
        db->Register("m", d.m).Abort();
        db->Register("q", d.q).Abort();
        db->Register("pub", d.pub).Abort();
        // The first round fills the plan and prepared-argument caches: it
        // builds the serving state the measured loop runs on.
        for (const Statement& s : mix) {
          first_rounds.emplace_back();
          ExecuteStatement(*db, s, &first_rounds.back(), &v);
        }
      },
      kSetupReps);
  Oracle oracle;
  for (size_t i = 0; i < first_rounds.size(); ++i) {
    CheckResult(&oracle, mix[i % mix.size()], first_rounds[i], &v);
  }
  first_rounds.clear();
  MeasureInProcess(
      opts, *db, [&](int64_t seq) { return mix[seq % mix.size()]; },
      static_cast<int64_t>(mix.size()), &oracle, setups, &v, v.count(), &out,
      [](bool, double) {});
  return out;
}

// --- paged_cold -----------------------------------------------------------------

/// Rows of the key window each paged_cold statement reads.
constexpr int64_t kPagedWindow = 2500;

rma::Result<RunOutput> RunPagedCold(const RunOptions& opts) {
  if (opts.work_dir.empty()) return rma::Status::Invalid("--work-dir required");
  const AnalystSizes z{0, 0, 50000, 50000, 8, 50000, 4, 0, 0};
  RunOutput out;
  out.sizes = AnalystSizesText(z) + " window=" + std::to_string(kPagedWindow);
  AnalystData d;
  // Per-key expectations for the window invariants.
  std::vector<double> rider_total, m_squares;
  rma::PagedStoreOptions store_opts;
  std::unique_ptr<sql::Database> db;
  std::vector<std::pair<Statement, Relation>> first_rounds;
  std::vector<double> open_s, save_s;
  Violations v;
  const std::string dir = opts.work_dir + "/paged";

  // Every statement filters its base tables to a seeded random key window,
  // so its text is new: the plan cache misses and binding re-reads the
  // tables' columns through the buffer pool. With a fixed text the plan
  // cache would serve its bound in-memory copies and never fault a page.
  rma::Rng window_rng(SubSeed(opts.seed, 30));
  auto next = [&](int64_t seq) -> Statement {
    const int64_t lo = window_rng.UniformInt(0, z.riders - kPagedWindow);
    const int64_t hi = lo + kPagedWindow;
    auto range = [&](const char* table, const char* key) {
      return std::string("(SELECT * FROM ") + table + " WHERE " + key +
             " >= " + std::to_string(lo) + " AND " + key + " < " +
             std::to_string(hi) + ")";
    };
    const std::string at = "@" + std::to_string(lo);
    switch (seq % 3) {
      case 0: {
        double total = 0;
        for (int64_t k = lo; k < hi; ++k) total += rider_total[k];
        return {"add" + at,
                "SELECT * FROM ADD(" + range("r1", "rider") + " a BY rider, " +
                    range("r2", "rider_b") + " b BY rider_b)",
                AllOf({RowsAre(kPagedWindow), [total](const Relation& r) {
                         return CheckGrandTotal(r, total);
                       }})};
      }
      case 1: {
        double trace = 0;
        for (int64_t k = lo; k < hi; ++k) trace += m_squares[k];
        return {"gram" + at,
                "SELECT * FROM CPD(" + range("m", "id") + " a BY id, " +
                    range("m", "id") + " b BY id)",
                AllOf({RowsAre(z.gram_cols), Symmetric(),
                       [trace](const Relation& r) {
                         double diag = 0;
                         for (int c = 1; c < r.num_columns(); ++c) {
                           diag += r.column(c)->GetDouble(c - 1);
                         }
                         if (std::fabs(diag - trace) <= 1e-9 * trace) return std::string();
                         return "gram trace " + std::to_string(diag) +
                                " != " + std::to_string(trace);
                       }})};
      }
      default:
        return {"qqr" + at,
                "SELECT * FROM QQR(" + range("q", "id") + " s BY (g, id))",
                AllOf({RowsAre(kPagedWindow), [](const Relation& r) {
                         return CheckOrthonormal(r);
                       }})};
    }
  };

  const std::vector<double> setups = TimeSetups(
      [&] {
        d = MakeAnalystData(z, opts.seed);
        rider_total.assign(static_cast<size_t>(z.riders), 0.0);
        for (const Relation* r : {&d.r1, &d.r2}) {
          for (int64_t i = 0; i < r->num_rows(); ++i) {
            double row = 0;
            for (int c = 1; c < r->num_columns(); ++c) {
              row += r->column(c)->GetDouble(i);
            }
            rider_total[static_cast<size_t>(IntAt(*r, 0, i))] += row;
          }
        }
        m_squares.assign(static_cast<size_t>(z.gram_rows), 0.0);
        for (int64_t i = 0; i < d.m.num_rows(); ++i) {
          double sq = 0;
          for (int c = 1; c < d.m.num_columns(); ++c) {
            const double x = d.m.column(c)->GetDouble(i);
            sq += x * x;
          }
          m_squares[static_cast<size_t>(IntAt(d.m, 0, i))] = sq;
        }
        // A quarter of the columns the mix reads, so the pool evicts.
        store_opts.pool_bytes = (ColumnBytes(d.r1) + ColumnBytes(d.r2) +
                                 ColumnBytes(d.m) + ColumnBytes(d.q)) /
                                4;
      },
      [&](int rep) {
        db.reset();
        std::filesystem::remove_all(dir);
        double t0 = Now();
        double opened = 0;
        {
          auto loaded = sql::Database::Open(dir, store_opts);
          opened = Now() - t0;
          if (!loaded.ok()) {
            v.Add("open: " + loaded.status().ToString());
            return;
          }
          t0 = Now();
          const std::vector<std::pair<const char*, const Relation*>> tables =
              {{"r1", &d.r1}, {"r2", &d.r2}, {"m", &d.m}, {"q", &d.q}};
          for (const auto& [name, rel] : tables) {
            rma::Status s = loaded->Register(name, *rel);
            if (!s.ok()) v.Add(std::string("save ") + name + ": " + s.ToString());
          }
          save_s.push_back(Now() - t0);
        }
        // Serve from a recovered catalog with a cold pool.
        t0 = Now();
        auto reopened = sql::Database::Open(dir, store_opts);
        open_s.push_back(opened + Now() - t0);
        if (!reopened.ok()) {
          v.Add("reopen: " + reopened.status().ToString());
          return;
        }
        db = std::make_unique<sql::Database>(*reopened);
        for (int64_t i = 0; i < 3; ++i) {
          first_rounds.emplace_back(next(3 * rep + i), Relation());
          ExecuteStatement(*db, first_rounds.back().first,
                           &first_rounds.back().second, &v);
        }
      },
      kQuickSetupReps);
  if (db == nullptr) return rma::Status::IoError(v.messages().front());
  Oracle oracle;
  for (const auto& [s, r] : first_rounds) CheckResult(&oracle, s, r, &v);
  first_rounds.clear();
  rma::BufferPoolStats pool_before;
  const std::shared_ptr<rma::BufferPool> pool = db->paged_store()->pool();
  MeasureInProcess(opts, *db, next, 3, &oracle, setups, &v, v.count(), &out,
                   [&](bool after, double statements) {
                     if (!after) {
                       pool_before = pool->stats();
                       return;
                     }
                     AddPoolMetrics(pool_before, pool->stats(), statements,
                                    &out.metrics);
                     out.metrics["storage.open_s"] = {Median(open_s), "s"};
                     out.metrics["storage.save_s"] = {Median(save_s), "s"};
                   });
  db.reset();
  std::filesystem::remove_all(dir);
  return out;
}

// --- analyst_pipeline --------------------------------------------------------

constexpr int kPipelineCols = 6;

struct PipelineData {
  Relation p, x, y;
};

PipelineData MakePipelineData(int64_t p_rows, int64_t xy_rows, uint64_t seed) {
  PipelineData d;
  d.p = rma::workload::UniformRelation(p_rows, kPipelineCols, SubSeed(seed, 11),
                                       0.0, 1.0, false, "p");
  // y = 3 + 2·x1 - x2 + noise: the OLS chain must recover (3, 2, -1).
  const Relation u = rma::workload::UniformRelation(
      xy_rows, 2, SubSeed(seed, 12), 0.0, 1.0, false, "u");
  rma::Rng rng(SubSeed(seed, 13));
  std::vector<double> ones(static_cast<size_t>(xy_rows), 1.0);
  std::vector<double> yv(static_cast<size_t>(xy_rows));
  for (int64_t i = 0; i < xy_rows; ++i) {
    yv[static_cast<size_t>(i)] = 3.0 + 2.0 * u.column(1)->GetDouble(i) -
                                 u.column(2)->GetDouble(i) +
                                 rng.Normal(0.0, 0.1);
  }
  d.x = Relation::Make(rma::Schema::Make({{"id", rma::DataType::kInt64},
                                          {"c0", rma::DataType::kDouble},
                                          {"c1", rma::DataType::kDouble},
                                          {"c2", rma::DataType::kDouble}})
                           .ValueOrDie(),
                       {u.column(0), rma::MakeDoubleBat(std::move(ones)),
                        u.column(1), u.column(2)},
                       "x")
            .ValueOrDie();
  d.y = Relation::Make(rma::Schema::Make({{"id", rma::DataType::kInt64},
                                          {"y", rma::DataType::kDouble}})
                           .ValueOrDie(),
                       {u.column(0), rma::MakeDoubleBat(std::move(yv))}, "y")
            .ValueOrDie();
  return d;
}

/// A paper-style CTAS chain (centre -> TRA -> MMU -> scale, as in
/// examples/movie_covariance.cpp) beside an independent OLS chain, then the
/// final SELECTs. The two chains share no table, so the batch scheduler may
/// overlap them.
std::vector<Statement> PipelineScript() {
  std::string means = "(SELECT ", centre = "SELECT p.id", scale = "SELECT C";
  for (int c = 0; c < kPipelineCols; ++c) {
    const std::string a = "a" + std::to_string(c);
    means += std::string(c > 0 ? ", " : "") + "AVG(" + a + ") AS " + a;
    centre += ", p." + a + " - t." + a + " AS " + a;
    scale += ", " + a + "/(M-1) AS " + a;
  }
  means += " FROM p)";
  auto coef = [](const char* row, double lo, double hi) -> Invariant {
    return [row, lo, hi](const Relation& r) {
      return CheckCoefficient(r, row, lo, hi);
    };
  };
  return {
      {"pc", "CREATE TABLE pc AS " + centre + " FROM p CROSS JOIN " + means +
                 " AS t",
       nullptr},
      {"pt", "CREATE TABLE pt AS SELECT * FROM TRA(pc BY id)", nullptr},
      {"pcov",
       "CREATE TABLE pcov AS " + scale +
           " FROM MMU(pt BY C, pc BY id) AS g CROSS JOIN "
           "(SELECT COUNT(*) AS M FROM p) AS t",
       nullptr},
      {"xtx", "CREATE TABLE xtx AS SELECT * FROM CPD(x BY id, x BY id)",
       nullptr},
      {"xty", "CREATE TABLE xty AS SELECT * FROM CPD(x BY id, y BY id)",
       nullptr},
      {"beta",
       "CREATE TABLE beta AS SELECT * FROM MMU(INV(xtx BY C) BY C, "
       "xty BY C)",
       nullptr},
      {"cov_out", "SELECT * FROM pcov",
       AllOf({RowsAre(kPipelineCols), Symmetric()})},
      {"beta_out", "SELECT * FROM beta",
       AllOf({RowsAre(3), coef("c0", 2.9, 3.1), coef("c1", 1.9, 2.1),
              coef("c2", -1.1, -0.9)})},
  };
}

rma::Result<RunOutput> RunAnalystPipeline(const RunOptions& opts) {
  const int64_t p_rows = 1000, xy_rows = 50000;
  RunOutput out;
  out.sizes = "p=" + std::to_string(p_rows) + "x" +
              std::to_string(kPipelineCols) + " x=" + std::to_string(xy_rows) +
              "x3 y=" + std::to_string(xy_rows) + "x1";
  PipelineData d;
  const std::vector<Statement> mix = PipelineScript();
  std::string script;
  for (const Statement& s : mix) script += s.sql + ";\n";
  std::unique_ptr<sql::Database> db;
  Oracle oracle;
  Violations v;

  // One round: the base tables are registered anew in a fresh physical row
  // order (new identities, so plan and prepared caches miss), then the
  // script runs as one batch. The permutation is data generation and is
  // made before the round's clock starts.
  struct Round {
    Relation p, x, y;
  };
  auto make_round = [&](uint64_t k) {
    return Round{Shuffled(d.p, SubSeed(opts.seed, 100 + 3 * k)),
                 Shuffled(d.x, SubSeed(opts.seed, 101 + 3 * k)),
                 Shuffled(d.y, SubSeed(opts.seed, 102 + 3 * k))};
  };
  auto run_round = [&](const Round& r, std::vector<Relation>* results,
                       Tracer* tr) -> Outcome {
    {
      ScopedSpan span(tr, "sql.register");
      const std::vector<std::pair<const char*, const Relation*>> tables = {
          {"p", &r.p}, {"x", &r.x}, {"y", &r.y}};
      for (const auto& [name, rel] : tables) {
        rma::Status s = db->Register(name, *rel);
        if (!s.ok()) return FromStatus(s, std::string("register ") + name, &v);
      }
    }
    std::vector<rma::Result<Relation>> res;
    {
      ScopedSpan span(tr, "sql.script");
      res = db->ExecuteScript(script);
    }
    if (res.size() != mix.size()) {
      v.Add("script returned " + std::to_string(res.size()) + " results");
      return Outcome::kError;
    }
    results->assign(mix.size(), Relation());
    Outcome o = Outcome::kOk;
    for (size_t i = 0; i < res.size(); ++i) {
      if (!res[i].ok()) {
        o = FromStatus(res[i].status(), mix[i].key, &v);
        continue;
      }
      (*results)[i] = std::move(*res[i]);
    }
    return o;
  };
  auto check_round = [&](const std::vector<Relation>& results) {
    Outcome o = Outcome::kOk;
    for (size_t i = 0; i < mix.size(); ++i) {
      if (CheckResult(&oracle, mix[i], results[i], &v) != Outcome::kOk) {
        o = Outcome::kWrong;
      }
    }
    return o;
  };

  std::vector<Round> setup_rounds;
  std::vector<std::vector<Relation>> first_rounds(kQuickSetupReps);
  const std::vector<double> setups = TimeSetups(
      [&] {
        d = MakePipelineData(p_rows, xy_rows, opts.seed);
        for (int rep = 0; rep < kQuickSetupReps; ++rep) {
          setup_rounds.push_back(make_round(static_cast<uint64_t>(rep)));
        }
      },
      [&](int rep) {
        db = std::make_unique<sql::Database>();
        run_round(setup_rounds[static_cast<size_t>(rep)],
                  &first_rounds[static_cast<size_t>(rep)], nullptr);
      },
      kQuickSetupReps);
  setup_rounds.clear();
  for (const auto& results : first_rounds) {
    if (results.size() == mix.size()) check_round(results);
  }
  first_rounds.clear();
  const int64_t setup_failures = v.count();

  uint64_t rounds_made = kQuickSetupReps;
  auto loop = [&](double seconds, int64_t min_requests, Tracer* tr) {
    std::vector<Relation> results;
    Round round;
    return RunClosedLoop(1, seconds, min_requests, [&, tr](int, int64_t) {
      round = make_round(rounds_made++);
      Request req;
      req.execute = [&, tr] {
        if (tr != nullptr) tr->NewRequest();
        ScopedSpan request(tr, "request");
        return run_round(round, &results, tr);
      };
      req.verify = [&] { return check_round(results); };
      return req;
    });
  };

  if (!opts.trace) {
    const LoopResult l = loop(opts.seconds, kMinRequests, nullptr);
    out.metrics = EndToEndMetrics(l, setups);
    Tally(l, &out);
    Conclude(v, setup_failures, &out);
    return out;
  }
  const LoopResult plain = loop(opts.seconds * kUntracedShare, 20, nullptr);
  Tracer tr;
  const auto cache_before = db->query_cache()->counters();
  const LoopResult traced = loop(opts.seconds * (1 - kUntracedShare), 20, &tr);
  const auto cache_after = db->query_cache()->counters();
  // Stage times and matrix operations come from untimed replay rounds:
  // the script's statements again, one by one through Database::ExecuteOn
  // on one context per round. Inside ExecuteScript every statement runs on
  // a private context whose totals are not exposed, and an RmaOptions::stats
  // sink must not be shared by concurrently executing statements.
  constexpr int kReplayRounds = 5;
  rma::RmaStats stages;
  int64_t ops = 0;
  for (int k = 0; k < kReplayRounds; ++k) {
    const Round r = make_round(rounds_made++);
    db->Register("p", r.p).Abort();
    db->Register("x", r.x).Abort();
    db->Register("y", r.y).Abort();
    rma::ExecContext ctx(db->rma_options, db->query_cache());
    for (const Statement& s : mix) {
      auto res = db->ExecuteOn(s.sql, &ctx);
      if (!res.ok()) v.Add(s.key + ": " + res.status().ToString());
    }
    ops += static_cast<int64_t>(ctx.plans().size());
    const rma::RmaStats& t = ctx.totals();
    stages.sort_seconds += t.sort_seconds;
    stages.transform_in_seconds += t.transform_in_seconds;
    stages.compute_seconds += t.compute_seconds;
    stages.transform_out_seconds += t.transform_out_seconds;
    stages.morph_seconds += t.morph_seconds;
    stages.merge_seconds += t.merge_seconds;
  }
  const int64_t statements = traced.attempted * static_cast<int64_t>(mix.size());
  AddEngineLayerMetrics(tr, &out.metrics);
  AddCacheMetrics(cache_before, cache_after, statements,
                  ops * traced.attempted / kReplayRounds, &out.metrics);
  auto round_ms = [&](double seconds) { return seconds / kReplayRounds * 1e3; };
  out.metrics["core.sort_ms"] = {round_ms(stages.sort_seconds), "ms"};
  out.metrics["core.gather_ms"] = {round_ms(stages.transform_in_seconds), "ms"};
  out.metrics["matrix.kernel_ms"] = {round_ms(stages.compute_seconds), "ms"};
  out.metrics["core.scatter_ms"] = {round_ms(stages.transform_out_seconds),
                                    "ms"};
  out.metrics["core.morph_ms"] = {round_ms(stages.morph_seconds), "ms"};
  out.metrics["core.merge_ms"] = {round_ms(stages.merge_seconds), "ms"};
  const double script_ms = out.metrics["sql.script_ms"].value;
  const double stage_ms = round_ms(stages.TotalSeconds());
  out.metrics["sql.batch_overlap"] = {Ratio(stage_ms, script_ms), "ratio"};
  out.metrics["sql.unattributed_ms"] = {script_ms - stage_ms, "ms"};
  char line[200];
  std::snprintf(line, sizeof(line),
                "stage time per round (serial replay of %d rounds): %.4f ms, "
                "of which sort %.4f ms; script wall %.4f ms\n",
                kReplayRounds, stage_ms, round_ms(stages.sort_seconds),
                script_ms);
  out.report += line;
  ReportTrace(opts, tr, plain, traced, &out);
  Tally(plain, &out);
  Tally(traced, &out);
  Conclude(v, setup_failures, &out);
  return out;
}

// --- server_clients ----------------------------------------------------------

constexpr int kServerClients = 4;

rma::Result<RunOutput> RunServerClients(const RunOptions& opts) {
  const int64_t rows = 2000;
  const int cols = 8;
  RunOutput out;
  out.sizes = "m=" + std::to_string(rows) + "x" + std::to_string(cols) +
              " v=" + std::to_string(rows) + "x1 clients=" +
              std::to_string(kServerClients);
  Relation m, vrel;
  std::vector<Statement> mix;
  Oracle oracle;
  Violations v;
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<rma::server::Server> server;
  std::vector<rma::client::Client> clients;
  std::vector<std::vector<uint64_t>> handles;
  std::vector<double> connect_ms;
  std::vector<std::pair<size_t, Relation>> warmups;

  auto run_on_client = [&](int c, size_t s, Relation* result,
                           double* server_seconds) -> Outcome {
    rma::client::Client& cl = clients[static_cast<size_t>(c)];
    const auto& h = handles[static_cast<size_t>(c)];
    auto r = h.empty() ? cl.Execute(mix[s].sql) : cl.ExecutePrepared(h[s]);
    if (!r.ok()) return FromStatus(r.status(), mix[s].key, &v);
    *result = std::move(r->relation);
    if (server_seconds != nullptr) *server_seconds = r->server_seconds;
    return Outcome::kOk;
  };
  auto teardown = [&] {
    clients.clear();
    handles.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  };

  const std::vector<double> setups = TimeSetups(
      [&] {
        m = rma::workload::UniformRelation(rows, cols, SubSeed(opts.seed, 21),
                                           0.0, 1.0, false, "m");
        vrel = rma::workload::UniformRelation(rows, 1, SubSeed(opts.seed, 22),
                                              0.0, 1.0, false, "v");
        mix = {GramStatement(cols),
               {"cpd", "SELECT * FROM CPD(m BY id, m BY id)",
                AllOf({RowsAre(cols), Symmetric()})},
               {"qqr", "SELECT * FROM QQR(m BY id)",
                AllOf({RowsAre(rows),
                       [](const Relation& r) { return CheckOrthonormal(r); }})},
               {"ols",
                "SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C, "
                "CPD(m BY id, v BY id) BY C)",
                RowsAre(cols)}};
        // The oracle learns in-process results; server results must match.
        sql::Database reference;
        reference.Register("m", m).Abort();
        reference.Register("v", vrel).Abort();
        for (const Statement& s : mix) {
          Relation r;
          if (ExecuteStatement(reference, s, &r, &v) == Outcome::kOk) {
            CheckResult(&oracle, s, r, &v);
          }
        }
      },
      [&](int) {
        teardown();
        db = std::make_unique<sql::Database>();
        db->Register("m", m).Abort();
        db->Register("v", vrel).Abort();
        rma::server::ServerOptions so;
        so.port = 0;
        so.max_sessions = kServerClients + 4;
        server = std::make_unique<rma::server::Server>(db.get(), so);
        rma::Status started = server->Start();
        if (!started.ok()) {
          v.Add("server start: " + started.ToString());
          return;
        }
        for (int c = 0; c < kServerClients; ++c) {
          const double t0 = Now();
          auto conn = rma::client::Client::Connect("127.0.0.1", server->port());
          connect_ms.push_back((Now() - t0) * 1e3);
          if (!conn.ok()) {
            v.Add("connect: " + conn.status().ToString());
            return;
          }
          clients.push_back(std::move(*conn));
          // Half the clients replay prepared handles, half send text.
          std::vector<uint64_t> hs;
          for (size_t s = 0; c % 2 == 0 && s < mix.size(); ++s) {
            auto h = clients.back().Prepare(mix[s].sql);
            if (!h.ok()) {
              v.Add("prepare: " + h.status().ToString());
              return;
            }
            hs.push_back(*h);
          }
          handles.push_back(std::move(hs));
        }
        // First pass of every client over the mix: warms the shared plan
        // cache and each session.
        for (int c = 0; c < kServerClients; ++c) {
          for (size_t s = 0; s < mix.size(); ++s) {
            warmups.emplace_back(s, Relation());
            run_on_client(c, s, &warmups.back().second, nullptr);
          }
        }
      },
      kQuickSetupReps);
  for (const auto& [s, rel] : warmups) CheckResult(&oracle, mix[s], rel, &v);
  warmups.clear();
  if (clients.size() != kServerClients) {
    teardown();
    return rma::Status::IoError(v.messages().empty() ? "server setup failed"
                                                     : v.messages().front());
  }
  const int64_t setup_failures = v.count();

  auto server_loop = [&](double seconds, int64_t min_requests, Tracer* tr) {
    std::vector<Relation> results(kServerClients);
    return RunClosedLoop(
        kServerClients, seconds, min_requests, [&, tr](int c, int64_t seq) {
          const size_t s = static_cast<size_t>(seq + c) % mix.size();
          Relation* slot = &results[static_cast<size_t>(c)];
          Request req;
          req.kind = static_cast<int>(s);
          req.execute = [&, tr, c, s, slot] {
            if (tr == nullptr) return run_on_client(c, s, slot, nullptr);
            tr->NewRequest();
            ScopedSpan request(tr, "request");
            const int64_t rt = tr->Begin("client.roundtrip");
            double server_s = 0;
            const Outcome o = run_on_client(c, s, slot, &server_s);
            tr->End(rt);
            tr->AddDerived(rt, "server.execute", server_s);
            return o;
          };
          req.verify = [&, s, slot] {
            return CheckResult(&oracle, mix[s], *slot, &v);
          };
          return req;
        });
  };

  if (!opts.trace) {
    const LoopResult l = server_loop(opts.seconds, kMinRequests, nullptr);
    out.metrics = EndToEndMetrics(l, setups);
    Tally(l, &out);
    Conclude(v, setup_failures, &out);
    teardown();
    return out;
  }
  const double phase = opts.seconds * kUntracedShare;
  const LoopResult plain = server_loop(phase, 20, nullptr);
  Tracer tr;
  const rma::server::ServerStats stats_before = server->stats();
  const LoopResult traced = server_loop(phase, 20, &tr);
  const rma::server::ServerStats stats_after = server->stats();
  // One single-client in-process pass over the same statements splits the
  // engine's share of a request into its layers.
  Tracer engine_tr;
  int64_t ops = 0;
  const auto cache_before = db->query_cache()->counters();
  const LoopResult engine = InProcessLoop(
      *db, [&](int64_t seq) { return mix[seq % mix.size()]; },
      static_cast<int64_t>(mix.size()), &oracle, phase, 20, &engine_tr, &ops,
      &v);
  AddEngineLayerMetrics(engine_tr, &out.metrics);
  AddCacheMetrics(cache_before, db->query_cache()->counters(),
                  engine.attempted, ops, &out.metrics);
  const auto t = tr.SelfTimes();
  const double req = std::max<double>(1, static_cast<double>(tr.requests()));
  const double executed = static_cast<double>(stats_after.statements_executed -
                                              stats_before.statements_executed);
  out.metrics["server.execute_ms"] = {Seconds(t, "server.execute") / req * 1e3,
                                      "ms"};
  out.metrics["server.outside_execute_ms"] = {
      Seconds(t, "client.roundtrip", true) / req * 1e3, "ms"};
  out.metrics["server.admission_waits_per_stmt"] = {
      Ratio(static_cast<double>(stats_after.admission_waits -
                                stats_before.admission_waits),
            executed),
      "count"};
  out.metrics["server.peak_in_flight"] = {
      static_cast<double>(stats_after.peak_in_flight), "count"};
  out.metrics["server.batches_per_stmt"] = {
      Ratio(static_cast<double>(stats_after.batches_streamed -
                                stats_before.batches_streamed),
            executed),
      "count"};
  out.metrics["client.connect_ms"] = {Median(connect_ms), "ms"};
  out.metrics["request.unattributed_ms"] = {
      Seconds(t, "request", true) / req * 1e3, "ms"};
  out.report += "single-client in-process pass:\n" + SelfTimeTable(engine_tr);
  out.report += "server requests (" + std::to_string(kServerClients) +
                " clients):\n";
  ReportTrace(opts, tr, plain, traced, &out);
  if (!opts.trace_path.empty()) {
    engine_tr.WriteJsonLines(opts.trace_path + ".inprocess").IgnoreError();
  }
  Tally(plain, &out);
  Tally(traced, &out);
  Tally(engine, &out);
  Conclude(v, setup_failures, &out);
  teardown();
  return out;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sql.parse_us", "us"},
      {"sql.normalize_us", "us"},
      {"sql.execute_ms", "ms"},
      {"sql.unattributed_ms", "ms"},
      {"sql.register_ms", "ms"},
      {"sql.script_ms", "ms"},
      {"sql.batch_overlap", "ratio"},
      {"core.sort_ms", "ms"},
      {"core.gather_ms", "ms"},
      {"core.scatter_ms", "ms"},
      {"core.morph_ms", "ms"},
      {"core.merge_ms", "ms"},
      {"core.plan_cache_hit_ratio", "ratio"},
      {"core.plan_cache_lookups", "count"},
      {"core.prepared_cache_hit_ratio", "ratio"},
      {"core.prepared_cache_lookups", "count"},
      {"core.prepared_cache_evictions", "count"},
      {"core.ops_per_stmt", "count"},
      {"matrix.kernel_ms", "ms"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_pins", "count"},
      {"storage.pool_misses_per_stmt", "count"},
      {"storage.pool_evictions_per_stmt", "count"},
      {"storage.pool_overcommits", "count"},
      {"storage.pool_resident_mb", "MB"},
      {"storage.open_s", "s"},
      {"storage.save_s", "s"},
      {"server.execute_ms", "ms"},
      {"server.outside_execute_ms", "ms"},
      {"server.admission_waits_per_stmt", "count"},
      {"server.peak_in_flight", "count"},
      {"server.batches_per_stmt", "count"},
      {"client.connect_ms", "ms"},
      {"request.unattributed_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return units;
}

Metrics EndToEndMetrics(const LoopResult& loop,
                        const std::vector<double>& setup_seconds) {
  Metrics m;
  m["stmt_per_s"] = {loop.stmt_per_s, "1/s"};
  m["latency_p50_ms"] = {SegmentedPercentile(loop.latencies_ms, 0.50), "ms"};
  m["latency_p95_ms"] = {SegmentedPercentile(loop.latencies_ms, 0.95), "ms"};
  m["correct_frac"] = {Ratio(static_cast<double>(loop.ok),
                             static_cast<double>(loop.attempted)),
                       "fraction"};
  m["setup_s"] = {Median(setup_seconds), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

rma::Result<RunOutput> RunWorkload(const RunOptions& opts) {
  rma::Result<RunOutput> out =
      rma::Status::Invalid("unknown workload '" + opts.workload + "'");
  if (opts.workload == "analyst_warm") out = RunAnalystWarm(opts);
  if (opts.workload == "analyst_pipeline") out = RunAnalystPipeline(opts);
  if (opts.workload == "server_clients") out = RunServerClients(opts);
  if (opts.workload == "paged_cold") out = RunPagedCold(opts);
  if (!out.ok()) return out;
  if (opts.trace) {
    // Every per-layer metric on every workload: 0 where the layer is idle.
    for (const auto& [name, unit] : LayerMetricUnits()) {
      out->metrics.emplace(name, Metric{0, unit});
    }
  }
  return out;
}

}  // namespace rmabench
