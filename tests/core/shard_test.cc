// Sharded stage execution tests: shard/unshard equivalence (bit-exact for
// concat-merged element-wise ops, tolerance-bounded for tree-reduced cross
// products), arguments read through sort or alignment permutations (bit-exact
// against an explicit Take-then-op reference, no sort time on a warm cache),
// zero-copy row-range slice views and their identity stability, the
// planner's shards=1 fallback, dispatch-time clamping, and RmaOptions
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/exec_context.h"
#include "core/exec_internal.h"
#include "core/planner.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "core/shard.h"
#include "matrix/simd.h"
#include "storage/bat.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

/// Dense relation with an already-sorted INT key (identity permutation) and
/// `cols` random DOUBLE columns. `specials` injects NaN and +-inf rows.
Relation DenseKeyed(int64_t n, int cols, const std::string& key, uint64_t seed,
                    bool specials = false, std::string name = "r") {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  std::vector<Attribute> attrs = {{key, DataType::kInt64}};
  std::vector<BatPtr> colsv = {MakeInt64Bat(std::move(ids))};
  for (int c = 0; c < cols; ++c) {
    std::vector<double> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng.Uniform(-10.0, 10.0);
    if (specials && n >= 8) {
      v[1] = std::numeric_limits<double>::quiet_NaN();
      v[static_cast<size_t>(n) / 2] = std::numeric_limits<double>::infinity();
      v[static_cast<size_t>(n) - 2] = -std::numeric_limits<double>::infinity();
    }
    attrs.push_back(Attribute{"a" + std::to_string(c), DataType::kDouble});
    colsv.push_back(MakeDoubleBat(std::move(v)));
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(colsv), std::move(name))
      .ValueOrDie();
}

/// Bit-pattern equality (distinguishes NaN payloads and signed zeros the way
/// the concat contract promises: the sharded write pattern is byte-identical).
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs one binary op through the staged executor with a handcrafted shard
/// plan (bypasses the planner's cost decision so equivalence is exercised
/// even on machines where sharding would not pay).
Result<std::vector<BatPtr>> RunForced(ExecContext& ctx, MatrixOp op,
                                      const Relation& r, const std::string& kr,
                                      const Relation& s, const std::string& ks,
                                      int shards, MergeKind merge,
                                      bool self_cross = false) {
  const OpInfo& info = GetOpInfo(op);
  RMA_ASSIGN_OR_RETURN(
      internal::BinaryArgs args,
      internal::PrepareBinaryArgs(ctx, info, r, {kr}, s, {ks}));
  const ArgShape right_shape = args.right->Shape();
  OpPlan plan = PlanOp(op, ctx.options(), args.left->Shape(), &right_shape,
                       self_cross);
  plan.shards = shards;
  plan.merge = merge;
  if (std::find(plan.stages.begin(), plan.stages.end(), Stage::kMerge) ==
      plan.stages.end()) {
    plan.stages.insert(plan.stages.end() - 1, Stage::kMerge);
  }
  return internal::DispatchShardedBinary(ctx, plan, *args.left, *args.right);
}

/// Unsharded reference through the same staged path.
Result<std::vector<BatPtr>> RunSerial(ExecContext& ctx, MatrixOp op,
                                      const Relation& r, const std::string& kr,
                                      const Relation& s, const std::string& ks,
                                      bool self_cross = false) {
  const OpInfo& info = GetOpInfo(op);
  RMA_ASSIGN_OR_RETURN(
      internal::BinaryArgs args,
      internal::PrepareBinaryArgs(ctx, info, r, {kr}, s, {ks}));
  const ArgShape right_shape = args.right->Shape();
  OpPlan plan = PlanOp(op, ctx.options(), args.left->Shape(), &right_shape,
                       self_cross);
  plan.shards = 1;
  plan.merge = MergeKind::kNone;
  return internal::DispatchBinary(ctx, plan, *args.left, *args.right);
}

RmaOptions ShardOpts(int threads = 4) {
  RmaOptions opts;
  opts.max_threads = threads;
  opts.shard_min_rows = 64;
  return opts;
}

// --- shard specs and slice views ---------------------------------------------

TEST(ShardSpecTest, BalancedNonDivisibleSplit) {
  const auto specs = MakeShardSpecs(10, 4);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].rows(), 3);
  EXPECT_EQ(specs[1].rows(), 3);
  EXPECT_EQ(specs[2].rows(), 2);
  EXPECT_EQ(specs[3].rows(), 2);
  int64_t expected_begin = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].shard, static_cast<int>(i));
    EXPECT_EQ(specs[i].begin, expected_begin);  // contiguous, ordered cover
    expected_begin = specs[i].end;
  }
  EXPECT_EQ(expected_begin, 10);
}

TEST(ShardSpecTest, SliceBatIsZeroCopyAndComposes) {
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const BatPtr base = MakeDoubleBat(std::move(v));
  const double* base_ptr = base->ContiguousDoubleData();
  ASSERT_NE(base_ptr, nullptr);

  const BatPtr slice = SliceBat(base, 10, 50);
  ASSERT_EQ(slice->size(), 50);
  EXPECT_EQ(slice->ContiguousDoubleData(), base_ptr + 10);  // no copy
  EXPECT_EQ(slice->GetDouble(0), 10.0);

  // Re-slicing a slice composes offsets against the original owner.
  const BatPtr nested = SliceBat(slice, 5, 10);
  ASSERT_EQ(nested->size(), 10);
  EXPECT_EQ(nested->ContiguousDoubleData(), base_ptr + 15);
  EXPECT_EQ(nested->GetDouble(9), 24.0);
}

TEST(ShardSpecTest, SliceBatOnNonDoubleFallsBackToCopy) {
  const BatPtr ints = MakeInt64Bat({5, 6, 7, 8, 9});
  const BatPtr slice = SliceBat(ints, 1, 3);
  ASSERT_EQ(slice->size(), 3);
  EXPECT_EQ(slice->ContiguousDoubleData(), nullptr);
  EXPECT_EQ(slice->GetDouble(0), 6.0);
  EXPECT_EQ(slice->GetDouble(2), 8.0);
}

TEST(ShardSpecTest, SliceRowsIdentityStableAndDistinct) {
  const Relation r = DenseKeyed(64, 2, "i", /*seed=*/2);
  const Relation a = r.SliceRows(0, 32);
  const Relation b = r.SliceRows(0, 32);
  const Relation c = r.SliceRows(32, 32);
  // Same range twice: same cache identity (prepared-argument cache keys stay
  // valid across repeated shard lowering). Distinct ranges and the parent
  // must never collide.
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_NE(a.identity(), r.identity());
  EXPECT_NE(a.identity(), c.identity());
  EXPECT_EQ(a.num_rows(), 32);
  EXPECT_EQ(a.column(1)->GetDouble(5), r.column(1)->GetDouble(5));
  EXPECT_EQ(c.column(1)->GetDouble(0), r.column(1)->GetDouble(32));
}

// --- shard/unshard equivalence ----------------------------------------------

TEST(ShardEquivalenceTest, ConcatElementwiseBitExact) {
  // 7001 rows: non-divisible by 4, so shard boundaries are unequal.
  const Relation r = DenseKeyed(7001, 3, "i", /*seed=*/3, false, "r");
  const Relation s = DenseKeyed(7001, 3, "j", /*seed=*/4, false, "s");
  for (MatrixOp op : {MatrixOp::kAdd, MatrixOp::kSub, MatrixOp::kEmu}) {
    ExecContext ctx(ShardOpts());
    ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                         RunForced(ctx, op, r, "i", s, "j", 4,
                                   MergeKind::kConcat));
    ExecContext serial_ctx{RmaOptions{}};
    ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                         RunSerial(serial_ctx, op, r, "i", s, "j"));
    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t j = 0; j < sharded.size(); ++j) {
      EXPECT_TRUE(BitEqual(ToDoubleVector(*sharded[j]),
                           ToDoubleVector(*serial[j])))
          << "op=" << static_cast<int>(op) << " col=" << j;
    }
  }
}

TEST(ShardEquivalenceTest, ConcatPropagatesNanAndInfBitwise) {
  const Relation r = DenseKeyed(4096, 2, "i", /*seed=*/5, /*specials=*/true);
  const Relation s = DenseKeyed(4096, 2, "j", /*seed=*/6, /*specials=*/true);
  ExecContext ctx(ShardOpts());
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kAdd, r, "i", s, "j", 4,
                                 MergeKind::kConcat));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kAdd, r, "i", s, "j"));
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> got = ToDoubleVector(*sharded[j]);
    EXPECT_TRUE(BitEqual(got, ToDoubleVector(*serial[j]))) << "col=" << j;
    // The specials actually crossed the pipeline (inf + finite = inf,
    // NaN + anything = NaN).
    EXPECT_TRUE(std::isnan(got[1]));
    EXPECT_TRUE(std::isinf(got[got.size() / 2]));
  }
}

TEST(ShardEquivalenceTest, ConcatScalarKernelParity) {
  // RMA_NO_SIMD / ForceScalar: the sharded path must stay bit-exact when the
  // element-wise kernels run their scalar fallbacks.
  simd::ForceScalar(true);
  const Relation r = DenseKeyed(3000, 2, "i", /*seed=*/7);
  const Relation s = DenseKeyed(3000, 2, "j", /*seed=*/8);
  ExecContext ctx(ShardOpts());
  auto sharded = RunForced(ctx, MatrixOp::kAdd, r, "i", s, "j", 3,
                           MergeKind::kConcat);
  ExecContext serial_ctx{RmaOptions{}};
  auto serial = RunSerial(serial_ctx, MatrixOp::kAdd, r, "i", s, "j");
  simd::ForceScalar(false);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t j = 0; j < (*sharded).size(); ++j) {
    EXPECT_TRUE(BitEqual(ToDoubleVector(*(*sharded)[j]),
                         ToDoubleVector(*(*serial)[j])));
  }
}

TEST(ShardEquivalenceTest, TreeReduceCrossProductWithinTolerance) {
  // Tree-reduced partials associate differently from the serial kernel, so
  // the contract is tolerance-bounded, not bit-exact.
  const Relation r = DenseKeyed(5003, 4, "i", /*seed=*/9, false, "r");
  const Relation s = DenseKeyed(5003, 3, "j", /*seed=*/10, false, "s");
  ExecContext ctx(ShardOpts());
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kCpd, r, "i", s, "j", 4,
                                 MergeKind::kTreeReduce));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kCpd, r, "i", s, "j"));
  ASSERT_EQ(sharded.size(), serial.size());
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> a = ToDoubleVector(*sharded[j]);
    const std::vector<double> b = ToDoubleVector(*serial[j]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(1.0, std::abs(b[i]));
      EXPECT_NEAR(a[i], b[i], 1e-9 * scale) << "col=" << j << " row=" << i;
    }
  }
}

TEST(ShardEquivalenceTest, TreeReduceSyrkSelfCrossWithinTolerance) {
  const Relation r = DenseKeyed(4099, 5, "i", /*seed=*/11);
  ExecContext ctx(ShardOpts(8));
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> sharded,
                       RunForced(ctx, MatrixOp::kCpd, r, "i", r, "i", 8,
                                 MergeKind::kTreeReduce, /*self_cross=*/true));
  ExecContext serial_ctx{RmaOptions{}};
  ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> serial,
                       RunSerial(serial_ctx, MatrixOp::kCpd, r, "i", r, "i",
                                 /*self_cross=*/true));
  for (size_t j = 0; j < sharded.size(); ++j) {
    const std::vector<double> a = ToDoubleVector(*sharded[j]);
    const std::vector<double> b = ToDoubleVector(*serial[j]);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(1.0, std::abs(b[i]));
      EXPECT_NEAR(a[i], b[i], 1e-9 * scale);
    }
  }
}

TEST(ShardEquivalenceTest, EndToEndShardedAddMatchesSerial) {
  // Public API, planner decides: whatever shard count it picks (including
  // the shards=1 fallback), the result must match the serial options run.
  const Relation r = DenseKeyed(300000, 4, "i", /*seed=*/12, false, "r");
  const Relation s = DenseKeyed(300000, 4, "j", /*seed=*/13, false, "s");
  RmaOptions sharded_opts = ShardOpts();
  RmaOptions serial_opts;
  serial_opts.max_shards = 1;
  ASSERT_OK_AND_ASSIGN(const Relation a,
                       Add(r, {"i"}, s, {"j"}, sharded_opts));
  ASSERT_OK_AND_ASSIGN(const Relation b, Add(r, {"i"}, s, {"j"}, serial_opts));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.schema().num_attributes(); ++c) {
    if (a.schema().attribute(c).type != DataType::kDouble) continue;
    EXPECT_TRUE(BitEqual(ToDoubleVector(*a.column(c)),
                         ToDoubleVector(*b.column(c))))
        << "col=" << c;
  }
}

// --- permuted arguments ------------------------------------------------------

/// `r` with its rows in a seeded random physical order, so sorting or
/// aligning it by its key yields a non-identity permutation.
Relation Shuffled(const Relation& r, uint64_t seed) {
  std::vector<int64_t> idx(static_cast<size_t>(r.num_rows()));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
  Rng rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  Relation out = r.TakeRows(idx);
  out.set_name(r.name());
  return out;
}

/// The explicit reference of a fused element-wise op: each side's columns
/// materialized through its prepared permutation (Take), then the SIMD
/// kernel over the copies.
std::vector<std::vector<double>> TakeThenOp(MatrixOp op,
                                            const PreparedArg& pr,
                                            const PreparedArg& ps) {
  std::vector<std::vector<double>> out;
  for (size_t j = 0; j < static_cast<size_t>(pr.app_cols()); ++j) {
    const std::vector<double> a = ToDoubleVector(*pr.AppColumnBat(j));
    const std::vector<double> b = ToDoubleVector(*ps.AppColumnBat(j));
    std::vector<double> o(a.size());
    const int64_t n = static_cast<int64_t>(a.size());
    switch (op) {
      case MatrixOp::kAdd:
        simd::Add(a.data(), b.data(), o.data(), n);
        break;
      case MatrixOp::kSub:
        simd::Sub(a.data(), b.data(), o.data(), n);
        break;
      default:
        simd::Mul(a.data(), b.data(), o.data(), n);
        break;
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// Dispatches `op` over already prepared arguments with `shards` row-range
/// shards (shards == 1 takes the unsharded DispatchBinary path).
Result<std::vector<BatPtr>> DispatchWithShards(ExecContext& ctx, MatrixOp op,
                                               const PreparedArg& pr,
                                               const PreparedArg& ps,
                                               int shards, MergeKind merge) {
  const ArgShape right_shape = ps.Shape();
  OpPlan plan = PlanOp(op, ctx.options(), pr.Shape(), &right_shape);
  if (shards == 1) {
    plan.shards = 1;
    plan.merge = MergeKind::kNone;
    return internal::DispatchBinary(ctx, plan, pr, ps);
  }
  plan.shards = shards;
  plan.merge = merge;
  return internal::DispatchShardedBinary(ctx, plan, pr, ps);
}

/// Runs add/sub/emu on (r, s) under `sort` for every shard count in
/// {1, 2, 3, 4, 7} and requires each result to be byte-identical to
/// TakeThenOp. `left_permuted` states whether the policy leaves r with a
/// non-identity permutation (s always carries one).
void ExpectPermutedElementwiseExact(const Relation& r, const Relation& s,
                                    SortPolicy sort, bool left_permuted) {
  RmaOptions opts = ShardOpts(8);
  opts.sort = sort;
  for (MatrixOp op : {MatrixOp::kAdd, MatrixOp::kSub, MatrixOp::kEmu}) {
    ExecContext ctx(opts);
    ASSERT_OK_AND_ASSIGN(internal::BinaryArgs args,
                         internal::PrepareBinaryArgs(ctx, GetOpInfo(op), r,
                                                     {"i"}, s, {"j"}));
    ASSERT_EQ(!args.left->identity(), left_permuted);
    ASSERT_FALSE(args.right->identity());
    const std::vector<std::vector<double>> want =
        TakeThenOp(op, *args.left, *args.right);
    for (int shards : {1, 2, 3, 4, 7}) {
      ASSERT_OK_AND_ASSIGN(
          std::vector<BatPtr> got,
          DispatchWithShards(ctx, op, *args.left, *args.right, shards,
                             MergeKind::kConcat));
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_TRUE(BitEqual(ToDoubleVector(*got[j]), want[j]))
            << "op=" << GetOpInfo(op).name << " shards=" << shards
            << " col=" << j;
      }
    }
  }
}

TEST(PermutedEquivalenceTest, AlignedRightSideMatchesTakeThenOp) {
  // Relative alignment (Sec. 8.1): r keeps its physical order, s is read
  // through the hash alignment onto r's keys.
  const Relation r = DenseKeyed(7001, 3, "i", /*seed=*/31, false, "r");
  const Relation s =
      Shuffled(DenseKeyed(7001, 3, "j", /*seed=*/32, false, "s"), 33);
  ExpectPermutedElementwiseExact(r, s, SortPolicy::kOptimized,
                                 /*left_permuted=*/false);
}

TEST(PermutedEquivalenceTest, BothSidesSortedMatchesTakeThenOp) {
  // SortPolicy::kAlways sorts both shuffled arguments: both carry a
  // permutation into the kernel.
  const Relation r =
      Shuffled(DenseKeyed(7001, 3, "i", /*seed=*/34, false, "r"), 35);
  const Relation s =
      Shuffled(DenseKeyed(7001, 3, "j", /*seed=*/36, false, "s"), 37);
  ExpectPermutedElementwiseExact(r, s, SortPolicy::kAlways,
                                 /*left_permuted=*/true);
}

TEST(PermutedEquivalenceTest, NanAndInfRowsThroughPermutation) {
  const Relation r =
      Shuffled(DenseKeyed(7001, 2, "i", /*seed=*/38, /*specials=*/true), 39);
  const Relation s =
      Shuffled(DenseKeyed(7001, 2, "j", /*seed=*/40, /*specials=*/true), 41);
  ExpectPermutedElementwiseExact(r, s, SortPolicy::kAlways,
                                 /*left_permuted=*/true);
  ExpectPermutedElementwiseExact(r, s, SortPolicy::kOptimized,
                                 /*left_permuted=*/false);
}

TEST(PermutedEquivalenceTest, ScalarKernelsThroughPermutation) {
  simd::ForceScalar(true);
  const Relation r =
      Shuffled(DenseKeyed(7001, 2, "i", /*seed=*/42, /*specials=*/true), 43);
  const Relation s =
      Shuffled(DenseKeyed(7001, 2, "j", /*seed=*/44, /*specials=*/true), 45);
  ExpectPermutedElementwiseExact(r, s, SortPolicy::kAlways,
                                 /*left_permuted=*/true);
  simd::ForceScalar(false);
}

TEST(PermutedEquivalenceTest, TreeReduceCrossProductMatchesTakenInput) {
  // Each shard packs its row range through the sort permutation; the same
  // shard count over inputs already in key order (the permutation applied
  // with Take up front) must give the same bytes.
  const Relation r_sorted = DenseKeyed(7001, 4, "i", /*seed=*/46, false, "r");
  const Relation s_sorted = DenseKeyed(7001, 3, "j", /*seed=*/47, false, "s");
  const Relation r = Shuffled(r_sorted, 48);
  const Relation s = Shuffled(s_sorted, 49);
  for (int shards : {2, 3, 4, 7}) {
    ExecContext ctx(ShardOpts(8));
    ASSERT_OK_AND_ASSIGN(internal::BinaryArgs args,
                         internal::PrepareBinaryArgs(ctx,
                                                     GetOpInfo(MatrixOp::kCpd),
                                                     r, {"i"}, s, {"j"}));
    ASSERT_FALSE(args.left->identity());
    ASSERT_FALSE(args.right->identity());
    ASSERT_OK_AND_ASSIGN(std::vector<BatPtr> got,
                         DispatchWithShards(ctx, MatrixOp::kCpd, *args.left,
                                            *args.right, shards,
                                            MergeKind::kTreeReduce));
    ExecContext ref_ctx(ShardOpts(8));
    ASSERT_OK_AND_ASSIGN(
        std::vector<BatPtr> want,
        RunForced(ref_ctx, MatrixOp::kCpd, r_sorted, "i", s_sorted, "j",
                  shards, MergeKind::kTreeReduce));
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_TRUE(BitEqual(ToDoubleVector(*got[j]), ToDoubleVector(*want[j])))
          << "shards=" << shards << " col=" << j;
    }
  }
}

TEST(PermutedEquivalenceTest, WarmAlignedAddRecordsNoSortTime) {
  // The second ADD of two differently ordered relations hits both prepared
  // entries (r's and s's alignment onto r) on the shared cache, so it must
  // record no sort time at all: the permuted read is kernel work.
  const Relation r = DenseKeyed(200000, 4, "i", /*seed=*/50, false, "r");
  const Relation s =
      Shuffled(DenseKeyed(200000, 4, "j", /*seed=*/51, false, "s"), 52);
  for (int max_shards : {1, 4}) {
    RmaOptions opts = ShardOpts();
    opts.sort = SortPolicy::kOptimized;
    opts.max_shards = max_shards;
    auto cache = std::make_shared<QueryCache>();
    ExecContext cold(opts, cache);
    ASSERT_OK(RmaBinary(&cold, MatrixOp::kAdd, r, {"i"}, s, {"j"}).status());
    ExecContext warm(opts, cache);
    ASSERT_OK(RmaBinary(&warm, MatrixOp::kAdd, r, {"i"}, s, {"j"}).status());
    ASSERT_EQ(warm.op_stats().size(), 1u);
    ASSERT_EQ(warm.plans().size(), 1u);
    EXPECT_EQ(warm.plans()[0].shards > 1, max_shards > 1);
    const RmaStats& st = warm.op_stats()[0];
    EXPECT_EQ(st.prepared_cache_hits, 2) << "max_shards=" << max_shards;
    EXPECT_EQ(st.prepared_cache_misses, 0);
    EXPECT_EQ(st.sort_seconds, 0.0) << "max_shards=" << max_shards;
    EXPECT_GT(st.compute_seconds, 0.0);
  }
}

// --- planner decision and dispatch-time clamping -----------------------------

ArgShape Shape(int64_t rows, int64_t cols) {
  ArgShape s;
  s.rows = rows;
  s.cols = cols;
  s.density = 1.0;
  return s;
}

TEST(ShardPlanTest, LargeSelfCrossShards) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(400000, 32);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_GT(plan.shards, 1);
  EXPECT_EQ(plan.merge, MergeKind::kTreeReduce);
  EXPECT_NE(std::find(plan.stages.begin(), plan.stages.end(), Stage::kMerge),
            plan.stages.end());
  // EXPLAIN surfaces the decision.
  EXPECT_NE(plan.DebugString().find("merge=tree-reduce"), std::string::npos);
}

TEST(ShardPlanTest, SmallInputFallsBackToOneShard) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(2000, 4);
  const OpPlan cpd = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_EQ(cpd.shards, 1);
  EXPECT_EQ(cpd.merge, MergeKind::kNone);
  const OpPlan add = PlanOp(MatrixOp::kAdd, opts, a, &a);
  EXPECT_EQ(add.shards, 1);
  EXPECT_EQ(std::count(add.stages.begin(), add.stages.end(), Stage::kMerge),
            0);
}

TEST(ShardPlanTest, SingleThreadBudgetNeverShards) {
  RmaOptions opts;
  opts.max_threads = 1;
  const ArgShape a = Shape(400000, 32);
  const OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  EXPECT_EQ(plan.shards, 1);
}

TEST(ShardPlanTest, ClampRevertsPlanUnderShrunkBudget) {
  RmaOptions opts;
  opts.max_threads = 8;
  const ArgShape a = Shape(400000, 32);
  OpPlan plan = PlanOp(MatrixOp::kCpd, opts, a, &a, /*self_cross=*/true);
  ASSERT_GT(plan.shards, 1);
  RmaOptions narrow;
  narrow.max_threads = 1;
  ExecContext ctx(narrow);
  internal::ClampShards(ctx, &plan);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_EQ(plan.merge, MergeKind::kNone);
  EXPECT_EQ(std::count(plan.stages.begin(), plan.stages.end(), Stage::kMerge),
            0);
}

// --- options validation ------------------------------------------------------

TEST(ShardOptionsTest, ValidateRejectsZeroCounts) {
  RmaOptions opts;
  opts.max_shards = 0;
  const Status st = ValidateRmaOptions(opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_shards"), std::string::npos);

  RmaOptions rows;
  rows.shard_min_rows = 0;
  EXPECT_EQ(ValidateRmaOptions(rows).code(), StatusCode::kInvalidArgument);

  RmaOptions threads;
  threads.max_threads = -1;
  EXPECT_EQ(ValidateRmaOptions(threads).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(ValidateRmaOptions(RmaOptions{}).ok());
}

TEST(ShardOptionsTest, EntryPointsRejectInvalidOptions) {
  const Relation r = DenseKeyed(16, 2, "i", /*seed=*/14);
  const Relation s = DenseKeyed(16, 2, "j", /*seed=*/15);
  RmaOptions opts;
  opts.max_shards = 0;
  EXPECT_STATUS(kInvalidArgument, Add(r, {"i"}, s, {"j"}, opts));
  EXPECT_STATUS(kInvalidArgument, Tra(r, {"i"}, opts));
}

}  // namespace
}  // namespace rma
