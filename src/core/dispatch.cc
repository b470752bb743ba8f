#include <utility>

#include "core/exec_internal.h"
#include "core/rma.h"
#include "matrix/blas.h"
#include "matrix/parallel.h"
#include "storage/paged_bat.h"
#include "util/timer.h"

namespace rma {

namespace internal {

namespace {

/// True if both prepared arguments view the same application data in the
/// same row order (self-application, e.g. the covariance cpd(x, x)).
bool SameAppData(const PreparedArg& a, const PreparedArg& b) {
  if (a.split.app_idx.size() != b.split.app_idx.size()) return false;
  for (size_t i = 0; i < a.split.app_idx.size(); ++i) {
    if (a.rel.column(a.split.app_idx[i]).get() !=
        b.rel.column(b.split.app_idx[i]).get()) {
      return false;
    }
  }
  return a.perm == b.perm;
}

}  // namespace

Result<std::vector<BatPtr>> DispatchUnary(ExecContext& ctx, const OpPlan& plan,
                                          const PreparedArg& p) {
  const MatrixOp op = plan.op;
  const int64_t n = p.rows;
  const int64_t k = p.app_cols();
  ScopedThreadBudget budget(ctx.effective_thread_budget());
  Timer timer;
  if (plan.kernel == KernelChoice::kBat) {
    // The ordered column extraction is part of the sort stage on the no-copy
    // path (there is no transformation to charge it to).
    kernel::Columns cols = GatherColumns(p);
    ctx.RecordStage(Stage::kPrepare, timer.Seconds());
    timer.Restart();
    kernel::Columns base;
    switch (op) {
      case MatrixOp::kInv:
        RMA_RETURN_NOT_OK(kernel::BatInv(&cols));
        base = std::move(cols);
        break;
      case MatrixOp::kQqr: {
        kernel::Columns q;
        kernel::Columns rr;
        RMA_RETURN_NOT_OK(kernel::BatQr(cols, &q, &rr));
        base = std::move(q);
        break;
      }
      case MatrixOp::kRqr: {
        kernel::Columns q;
        kernel::Columns rr;
        RMA_RETURN_NOT_OK(kernel::BatQr(cols, &q, &rr));
        base = std::move(rr);
        break;
      }
      case MatrixOp::kDet: {
        RMA_ASSIGN_OR_RETURN(double d, kernel::BatDet(std::move(cols)));
        base = {{d}};
        break;
      }
      case MatrixOp::kTra: {
        base.assign(static_cast<size_t>(n),
                    std::vector<double>(static_cast<size_t>(k), 0.0));
        for (int64_t j = 0; j < k; ++j) {
          const auto& col = cols[static_cast<size_t>(j)];
          for (int64_t i = 0; i < n; ++i) {
            base[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                col[static_cast<size_t>(i)];
          }
        }
        break;
      }
      default: {
        // No column-at-a-time algorithm: fall back to the dense kernels
        // (the transformation is exactly the cost the policy avoids when a
        // BAT algorithm exists).
        const DenseMatrix in = kernel::ColumnsToMatrix(cols);
        RMA_ASSIGN_OR_RETURN(DenseMatrix out,
                             kernel::DenseCompute(op, in, nullptr));
        base = kernel::MatrixToColumns(out);
        break;
      }
    }
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    return ColumnsToBats(std::move(base));
  }
  const DenseMatrix in = GatherMatrix(p);
  ctx.RecordStage(Stage::kGather, timer.Seconds());
  timer.Restart();
  RMA_ASSIGN_OR_RETURN(DenseMatrix out, kernel::DenseCompute(op, in, nullptr));
  ctx.RecordStage(Stage::kKernel, timer.Seconds());
  timer.Restart();
  std::vector<BatPtr> bats = ColumnsToBats(kernel::MatrixToColumns(out));
  ctx.RecordStage(Stage::kScatter, timer.Seconds());
  return bats;
}

Result<std::vector<BatPtr>> DispatchBinary(ExecContext& ctx,
                                           const OpPlan& plan,
                                           const PreparedArg& pr,
                                           const PreparedArg& ps) {
  const MatrixOp op = plan.op;
  const OpInfo& info = GetOpInfo(op);
  ScopedThreadBudget budget(ctx.effective_thread_budget());
  Timer timer;
  if (plan.kernel == KernelChoice::kBat && info.union_compatible) {
    return DispatchElementwise(ctx, plan, pr, ps);
  }
  if (plan.kernel == KernelChoice::kBat && op == MatrixOp::kCpd) {
    // cpd stays on the BATs themselves (element-at-a-time fetches).
    std::vector<BatPtr> ca;
    std::vector<BatPtr> cb;
    for (int64_t j = 0; j < pr.app_cols(); ++j) {
      ca.push_back(pr.AppColumnBat(static_cast<size_t>(j)));
    }
    for (int64_t j = 0; j < ps.app_cols(); ++j) {
      cb.push_back(ps.AppColumnBat(static_cast<size_t>(j)));
    }
    ctx.RecordStage(Stage::kPrepare, timer.Seconds());
    timer.Restart();
    RMA_ASSIGN_OR_RETURN(kernel::Columns out, kernel::BatCpd(ca, cb));
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    return ColumnsToBats(std::move(out));
  }
  if (plan.kernel == KernelChoice::kBat) {
    kernel::Columns ca = GatherColumns(pr);
    kernel::Columns cb = GatherColumns(ps);
    ctx.RecordStage(Stage::kPrepare, timer.Seconds());
    timer.Restart();
    kernel::Columns out;
    switch (op) {
      case MatrixOp::kMmu: {
        RMA_ASSIGN_OR_RETURN(out, kernel::BatMmu(ca, cb));
        break;
      }
      case MatrixOp::kSol: {
        RMA_ASSIGN_OR_RETURN(out, kernel::BatSol(ca, cb));
        break;
      }
      default: {
        const DenseMatrix a = kernel::ColumnsToMatrix(ca);
        const DenseMatrix b = kernel::ColumnsToMatrix(cb);
        RMA_ASSIGN_OR_RETURN(DenseMatrix dense,
                             kernel::DenseCompute(op, a, &b));
        out = kernel::MatrixToColumns(dense);
        break;
      }
    }
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    return ColumnsToBats(std::move(out));
  }
  if (plan.kernel == KernelChoice::kDenseSyrk) {
    // Self cross product cpd(x, x): gather once and run the symmetric SYRK
    // kernel (the paper's cblas_dsyrk call for the covariance workload).
    const DenseMatrix a = GatherMatrix(pr);
    ctx.RecordStage(Stage::kGather, timer.Seconds());
    timer.Restart();
    const DenseMatrix dense = blas::Syrk(a);
    ctx.RecordStage(Stage::kKernel, timer.Seconds());
    timer.Restart();
    std::vector<BatPtr> bats = ColumnsToBats(kernel::MatrixToColumns(dense));
    ctx.RecordStage(Stage::kScatter, timer.Seconds());
    return bats;
  }
  const DenseMatrix a = GatherMatrix(pr);
  const DenseMatrix b = GatherMatrix(ps);
  ctx.RecordStage(Stage::kGather, timer.Seconds());
  timer.Restart();
  RMA_ASSIGN_OR_RETURN(DenseMatrix dense, kernel::DenseCompute(op, a, &b));
  ctx.RecordStage(Stage::kKernel, timer.Seconds());
  timer.Restart();
  std::vector<BatPtr> bats = ColumnsToBats(kernel::MatrixToColumns(dense));
  ctx.RecordStage(Stage::kScatter, timer.Seconds());
  return bats;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Entry points: prepare -> plan -> dispatch -> assemble
// ---------------------------------------------------------------------------

Result<Relation> RmaUnary(ExecContext* ctx, MatrixOp op, const Relation& r,
                          const std::vector<std::string>& order) {
  RMA_CHECK(ctx != nullptr);
  RMA_RETURN_NOT_OK(ValidateRmaOptions(ctx->options()));
  const OpInfo& info = GetOpInfo(op);
  if (info.arity != 1) {
    return Status::Invalid(std::string(info.name) + " is a binary operation");
  }
  ScopedOpStats op_stats(ctx);
  // Residency bracket: paged columns stay pinned (contiguous, fault-free)
  // from the prepare-stage gather through the assemble-stage scatter, so
  // every raw-pointer fast path below sees stable data; pin failures (torn
  // pages) surface here as the operation's Status. Malloc-backed columns
  // make this a no-op.
  PinnedRelations residency;
  RMA_RETURN_NOT_OK(residency.Pin(r));
  // --- prepare ---------------------------------------------------------------
  RMA_ASSIGN_OR_RETURN(PreparedArgPtr p,
                       internal::PrepareArgument(*ctx, r, order, info,
                                                 /*skip_sort_allowed=*/true));
  const int64_t n = p->rows;
  const int64_t k = p->app_cols();
  if (info.requires_square && n != k) {
    return Status::Invalid(std::string(info.name) +
                           ": application part must be square (" +
                           std::to_string(n) + "x" + std::to_string(k) + ")");
  }
  if ((op == MatrixOp::kQqr || op == MatrixOp::kRqr) && n < k) {
    return Status::Invalid("qr: requires at least as many rows as columns");
  }
  // --- plan ------------------------------------------------------------------
  const OpPlan plan = PlanOp(op, ctx->options(), p->Shape(), nullptr);
  ctx->RecordPlan(plan);
  // --- kernel stages ---------------------------------------------------------
  RMA_ASSIGN_OR_RETURN(std::vector<BatPtr> base,
                       internal::DispatchUnary(*ctx, plan, *p));
  // --- morph + merge ---------------------------------------------------------
  Timer timer;
  Result<Relation> result = internal::AssembleUnary(info, *p, std::move(base));
  ctx->RecordStage(Stage::kMorph, timer.Seconds());
  if (result.ok()) op_stats.Commit();
  return result;
}

Result<Relation> RmaBinary(ExecContext* ctx, MatrixOp op, const Relation& r,
                           const std::vector<std::string>& order_r,
                           const Relation& s,
                           const std::vector<std::string>& order_s) {
  RMA_CHECK(ctx != nullptr);
  RMA_RETURN_NOT_OK(ValidateRmaOptions(ctx->options()));
  const OpInfo& info = GetOpInfo(op);
  if (info.arity != 2) {
    return Status::Invalid(std::string(info.name) + " is a unary operation");
  }
  ScopedOpStats op_stats(ctx);
  // Residency bracket for both arguments (see RmaUnary).
  PinnedRelations residency;
  RMA_RETURN_NOT_OK(residency.Pin(r));
  RMA_RETURN_NOT_OK(residency.Pin(s));
  // --- prepare ---------------------------------------------------------------
  RMA_ASSIGN_OR_RETURN(
      internal::BinaryArgs args,
      internal::PrepareBinaryArgs(*ctx, info, r, order_r, s, order_s));
  const PreparedArg& pr = *args.left;
  const PreparedArg& ps = *args.right;
  RMA_RETURN_NOT_OK(internal::CheckBinaryDims(info, pr, ps));
  // --- plan ------------------------------------------------------------------
  const ArgShape right_shape = ps.Shape();
  const bool self_cross =
      op == MatrixOp::kCpd && internal::SameAppData(pr, ps);
  OpPlan plan =
      PlanOp(op, ctx->options(), pr.Shape(), &right_shape, self_cross);
  // The subtree scheduler may have shrunk the thread budget since planning;
  // clamp the shard count so the recorded plan matches what actually runs.
  internal::ClampShards(*ctx, &plan);
  ctx->RecordPlan(plan);
  // --- kernel stages ---------------------------------------------------------
  RMA_ASSIGN_OR_RETURN(
      std::vector<BatPtr> base,
      plan.shards > 1 ? internal::DispatchShardedBinary(*ctx, plan, pr, ps)
                      : internal::DispatchBinary(*ctx, plan, pr, ps));
  // --- morph + merge ---------------------------------------------------------
  Timer timer;
  Result<Relation> result =
      internal::AssembleBinary(info, pr, ps, std::move(base));
  ctx->RecordStage(Stage::kMorph, timer.Seconds());
  if (result.ok()) op_stats.Commit();
  return result;
}

Result<Relation> RmaUnary(MatrixOp op, const Relation& r,
                          const std::vector<std::string>& order,
                          const RmaOptions& opts) {
  ExecContext ctx(opts);
  return RmaUnary(&ctx, op, r, order);
}

Result<Relation> RmaBinary(MatrixOp op, const Relation& r,
                           const std::vector<std::string>& order_r,
                           const Relation& s,
                           const std::vector<std::string>& order_s,
                           const RmaOptions& opts) {
  ExecContext ctx(opts);
  return RmaBinary(&ctx, op, r, order_r, s, order_s);
}

}  // namespace rma
