#include <algorithm>
#include <optional>
#include <utility>

#include "core/exec_internal.h"
#include "core/shard.h"
#include "matrix/blas.h"
#include "matrix/parallel.h"
#include "matrix/simd.h"
#include "storage/bat_ops.h"
#include "util/timer.h"

namespace rma {

namespace internal {

namespace {

/// Per-shard stage timings, measured on the worker that ran the shard and
/// published to the dispatcher at the join. Workers never call
/// ExecContext::RecordStage themselves: the op bracket is thread-local to the
/// dispatching thread, so a pool thread's recording would hit the context
/// totals but miss the op entry.
struct ShardTiming {
  double gather = 0;
  double kernel = 0;
  double wall = 0;
};

/// One argument as its stored application columns plus the prepared
/// permutation: operation row i reads cols[j][perm[i]], or cols[j][i] when
/// perm is null. Nothing is copied; the pointers stay valid inside
/// RmaBinary's PinnedRelations bracket.
struct StoredColumns {
  std::vector<const double*> cols;
  const int64_t* perm = nullptr;

  /// Operation rows [i0, i0 + len) of column j: read in place, or gathered
  /// through the permutation into `buf`.
  const double* Rows(size_t j, int64_t i0, int64_t len, double* buf) const {
    if (perm == nullptr) return cols[j] + i0;
    bat_ops::GatherDenseToStrided(cols[j], perm + i0, len, buf, 1);
    return buf;
  }
};

/// The stored columns of `p`, or nullopt if one lacks contiguous double
/// storage.
std::optional<StoredColumns> Stored(const PreparedArg& p) {
  StoredColumns out;
  for (int idx : p.split.app_idx) {
    const double* d = p.rel.column(idx)->ContiguousDoubleData();
    if (d == nullptr) return std::nullopt;
    out.cols.push_back(d);
  }
  if (!p.identity()) out.perm = p.perm.data();
  return out;
}

/// Row-major pack of one shard's row range, read through the permutation
/// when the argument carries one.
DenseMatrix PackShard(const StoredColumns& side, const ShardSpec& spec) {
  const int64_t k = static_cast<int64_t>(side.cols.size());
  DenseMatrix m(spec.rows(), k);
  std::vector<const double*> ptrs(side.cols);
  const int64_t* perm = side.perm;
  if (perm != nullptr) {
    perm += spec.begin;
  } else {
    for (const double*& p : ptrs) p += spec.begin;
  }
  bat_ops::PackColumnsRowMajor(ptrs.data(), k, perm, spec.rows(), m.data());
  return m;
}

// Rows per block of an element-wise op: the block's slice of the
// permutation and both 8 KiB gather buffers stay in L1.
constexpr int64_t kBlockRows = 1024;

using ElementwiseKernel = void (*)(const double*, const double*, double*,
                                   int64_t);

/// out[j][i] = a[j][i] op b[j][i] for rows [begin, end), block by block. The
/// same values reach the same SIMD kernel as a Take-then-op would, so the
/// result is bit-identical to it. Columns are the outer loop, so the random
/// reads of a block stay within one column.
void ElementwiseRows(ElementwiseKernel kernel, const StoredColumns& a,
                     const StoredColumns& b, int64_t begin, int64_t end,
                     std::vector<std::vector<double>>* out) {
  double abuf[kBlockRows];
  double bbuf[kBlockRows];
  for (size_t j = 0; j < a.cols.size(); ++j) {
    for (int64_t i0 = begin; i0 < end; i0 += kBlockRows) {
      const int64_t len = std::min(kBlockRows, end - i0);
      kernel(a.Rows(j, i0, len, abuf), b.Rows(j, i0, len, bbuf),
             (*out)[j].data() + i0, len);
    }
  }
}

/// Runs `fn(spec)` for every shard: shards 1..S-1 as shared-pool tasks,
/// shard 0 inline on the dispatcher, cooperative join (a waiting dispatcher
/// executes queued tasks, so a saturated pool cannot deadlock the join).
template <typename Fn>
void RunShards(const std::vector<ShardSpec>& specs, const Fn& fn) {
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<ThreadPool::TaskPtr> tasks;
  tasks.reserve(specs.size() - 1);
  for (size_t s = 1; s < specs.size(); ++s) {
    const ShardSpec& spec = specs[s];
    tasks.push_back(pool.Submit([&fn, &spec] { fn(spec); }));
  }
  fn(specs[0]);
  for (const auto& task : tasks) pool.Wait(task);
}

/// Commits the joined shard timings from the bracket-owning thread: summed
/// stage seconds (CPU-time semantics — the refinement loop divides them by
/// total elements) plus the per-shard walls for EXPLAIN ANALYZE.
void RecordShardStages(ExecContext& ctx,
                       const std::vector<ShardTiming>& timings) {
  double gather = 0;
  double kernel = 0;
  std::vector<double> walls;
  walls.reserve(timings.size());
  for (const ShardTiming& t : timings) {
    gather += t.gather;
    kernel += t.kernel;
    walls.push_back(t.wall);
  }
  if (gather > 0) ctx.RecordStage(Stage::kGather, gather);
  ctx.RecordStage(Stage::kKernel, kernel);
  ctx.RecordShardTimes(walls);
}

/// Cross products under MergeKind::kTreeReduce: each shard gathers its row
/// range into a contiguous matrix and computes a full-size partial Gram
/// matrix (X_s^T X_s, cols x cols); the merge sums the partials pairwise
/// (O(cols^2) per addition, log2(shards) rounds). Summation order is fixed
/// by the tree, so results are deterministic for a given shard count but
/// associate differently from the unsharded single accumulation — equal up
/// to FP rounding, the documented tree-reduce contract.
Result<std::vector<BatPtr>> DispatchTreeReduce(ExecContext& ctx,
                                               const OpPlan& plan,
                                               const PreparedArg& pr,
                                               const PreparedArg& ps) {
  const bool syrk = plan.kernel == KernelChoice::kDenseSyrk;
  const std::optional<StoredColumns> left = Stored(pr);
  const std::optional<StoredColumns> right =
      syrk ? std::optional<StoredColumns>(StoredColumns{}) : Stored(ps);
  if (!left || !right) return DispatchBinary(ctx, plan, pr, ps);
  ScopedThreadBudget outer(ctx.effective_thread_budget());
  int threads = CurrentThreadBudget();
  if (threads <= 0) threads = DefaultThreadCount();
  const int per_shard_budget = std::max(1, threads / plan.shards);

  const int S = plan.shards;
  const std::vector<ShardSpec> specs = MakeShardSpecs(pr.rows, S);
  std::vector<ShardTiming> timings(specs.size());
  std::vector<DenseMatrix> partials(static_cast<size_t>(S));
  std::vector<Status> statuses(static_cast<size_t>(S));

  auto run = [&](const ShardSpec& spec) {
    ScopedThreadBudget budget(per_shard_budget);
    const size_t i = static_cast<size_t>(spec.shard);
    Timer wall;
    Timer stage;
    const DenseMatrix a = PackShard(*left, spec);
    const DenseMatrix b = syrk ? DenseMatrix() : PackShard(*right, spec);
    timings[i].gather = stage.Seconds();
    stage.Restart();
    if (syrk) {
      partials[i] = blas::Syrk(a);
    } else {
      Result<DenseMatrix> partial = blas::CrossProd(a, b);
      if (partial.ok()) {
        partials[i] = std::move(partial).ValueUnsafe();
      } else {
        statuses[i] = partial.status();
      }
    }
    timings[i].kernel = stage.Seconds();
    timings[i].wall = wall.Seconds();
  };
  RunShards(specs, run);
  for (const Status& st : statuses) RMA_RETURN_NOT_OK(st);

  RecordShardStages(ctx, timings);
  Timer timer;
  for (int stride = 1; stride < S; stride *= 2) {
    for (int i = 0; i + stride < S; i += 2 * stride) {
      RMA_RETURN_NOT_OK(blas::AddInPlace(&partials[static_cast<size_t>(i)],
                                         partials[static_cast<size_t>(i + stride)]));
    }
  }
  DenseMatrix total = std::move(partials[0]);
  ctx.RecordStage(Stage::kMerge, timer.Seconds());
  timer.Restart();
  std::vector<BatPtr> base = ColumnsToBats(kernel::MatrixToColumns(total));
  ctx.RecordStage(Stage::kScatter, timer.Seconds());
  return base;
}

}  // namespace

void ClampShards(const ExecContext& ctx, OpPlan* plan) {
  if (plan->shards <= 1) return;
  int budget = ctx.effective_thread_budget();
  if (budget <= 0) budget = DefaultThreadCount();
  const int shards = std::min(plan->shards, budget);
  if (shards >= 2) {
    plan->shards = shards;
    return;
  }
  // The subtree fork left us a single slot: a serial sharded run would only
  // pay the merge, so revert to the unsharded plan shape.
  plan->shards = 1;
  plan->merge = MergeKind::kNone;
  plan->stages.erase(
      std::remove(plan->stages.begin(), plan->stages.end(), Stage::kMerge),
      plan->stages.end());
}

Result<std::vector<BatPtr>> DispatchElementwise(ExecContext& ctx,
                                                const OpPlan& plan,
                                                const PreparedArg& pr,
                                                const PreparedArg& ps) {
  const MatrixOp op = plan.op;
  const std::optional<StoredColumns> left = Stored(pr);
  const std::optional<StoredColumns> right = Stored(ps);
  Timer timer;
  if (!left || !right) {
    // Sparse or non-double columns operate BAT-at-a-time, which keeps the
    // sparse fast path (Table 5).
    BatPtr (*const column_op)(const BatPtr&, const BatPtr&) =
        op == MatrixOp::kAdd   ? bat_ops::AddColumns
        : op == MatrixOp::kSub ? bat_ops::SubColumns
                               : bat_ops::MulColumns;
    std::vector<BatPtr> base;
    for (size_t j = 0; j < static_cast<size_t>(pr.app_cols()); ++j) {
      base.push_back(column_op(pr.AppColumnBat(j), ps.AppColumnBat(j)));
    }
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    return base;
  }

  const ElementwiseKernel kernel = op == MatrixOp::kAdd   ? simd::Add
                                   : op == MatrixOp::kSub ? simd::Sub
                                                          : simd::Mul;
  const int64_t n = pr.rows;
  std::vector<std::vector<double>> out(left->cols.size());
  for (auto& col : out) col.resize(static_cast<size_t>(n));
  if (plan.shards <= 1) {
    ElementwiseRows(kernel, *left, *right, 0, n, &out);
    std::vector<BatPtr> base = ColumnsToBats(std::move(out));
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    return base;
  }
  const std::vector<ShardSpec> specs = MakeShardSpecs(n, plan.shards);
  std::vector<ShardTiming> timings(specs.size());
  RunShards(specs, [&](const ShardSpec& spec) {
    Timer wall;
    ElementwiseRows(kernel, *left, *right, spec.begin, spec.end, &out);
    const double seconds = wall.Seconds();
    timings[static_cast<size_t>(spec.shard)] = {0, seconds, seconds};
  });
  RecordShardStages(ctx, timings);
  timer.Restart();
  std::vector<BatPtr> base = ColumnsToBats(std::move(out));
  ctx.RecordStage(Stage::kMerge, timer.Seconds());
  return base;
}

Result<std::vector<BatPtr>> DispatchShardedBinary(ExecContext& ctx,
                                                  const OpPlan& plan,
                                                  const PreparedArg& pr,
                                                  const PreparedArg& ps) {
  switch (plan.merge) {
    case MergeKind::kConcat:
      return DispatchElementwise(ctx, plan, pr, ps);
    case MergeKind::kTreeReduce:
      return DispatchTreeReduce(ctx, plan, pr, ps);
    case MergeKind::kNone:
      break;
  }
  return DispatchBinary(ctx, plan, pr, ps);
}

}  // namespace internal

}  // namespace rma
