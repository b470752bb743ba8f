#ifndef RMA_CORE_EXEC_INTERNAL_H_
#define RMA_CORE_EXEC_INTERNAL_H_

#include <vector>

#include "core/exec_context.h"
#include "core/kernels.h"
#include "core/ops.h"
#include "matrix/dense_matrix.h"
#include "storage/relation.h"
#include "util/result.h"

/// Internal surface of the staged executor. The pipeline is split by stage:
///
///   prepare.cc   — argument preparation: schema split, order-schema sort /
///                  key alignment, prepared-argument caching, gathers
///   dispatch.cc  — kernel-stage execution per the physical plan (OpPlan),
///                  plus the RmaUnary/RmaBinary entry points that string the
///                  stages together
///   assemble.cc  — result assembly: morphing of contextual information and
///                  the final relation merge (Table 2/3)
///
/// rma.h stays the stable thin API; nothing here is exported.
namespace rma::internal {

// --- prepare.cc -------------------------------------------------------------

/// Sorts (or avoids sorting / reuses a cached permutation for) one argument.
/// Cache misses record their elapsed time against Stage::kPrepare; hits
/// record nothing, so a fully cached op reports sort_seconds == 0.
Result<PreparedArgPtr> PrepareArgument(ExecContext& ctx, const Relation& r,
                                       const std::vector<std::string>& order,
                                       const OpInfo& info,
                                       bool skip_sort_allowed);

struct BinaryArgs {
  PreparedArgPtr left;
  PreparedArgPtr right;
};

/// Prepares both arguments of a binary operation, applying the relative-
/// alignment optimization of Sec. 8.1 when the policy and operation allow.
Result<BinaryArgs> PrepareBinaryArgs(ExecContext& ctx, const OpInfo& info,
                                     const Relation& r,
                                     const std::vector<std::string>& order_r,
                                     const Relation& s,
                                     const std::vector<std::string>& order_s);

/// Validates binary dimension prerequisites (Table 1).
Status CheckBinaryDims(const OpInfo& info, const PreparedArg& r,
                       const PreparedArg& s);

/// Builds the dense input matrix for the contiguous kernels (the
/// BATs -> contiguous copy that Fig. 14 measures).
DenseMatrix GatherMatrix(const PreparedArg& p);

/// Extracts the application part as per-column double vectors (the working
/// format of the column-at-a-time kernels).
kernel::Columns GatherColumns(const PreparedArg& p);

// --- dispatch.cc ------------------------------------------------------------

/// Runs the kernel stage of a unary operation per `plan`, returning the
/// base-result columns. Records gather/kernel/scatter stage times.
Result<std::vector<BatPtr>> DispatchUnary(ExecContext& ctx, const OpPlan& plan,
                                          const PreparedArg& p);

/// Binary counterpart.
Result<std::vector<BatPtr>> DispatchBinary(ExecContext& ctx,
                                           const OpPlan& plan,
                                           const PreparedArg& pr,
                                           const PreparedArg& ps);

// --- shard_exec.cc ----------------------------------------------------------

/// Clamps plan->shards to the context's effective thread budget at dispatch
/// time (subtree forking may have shrunk it since planning). Dropping under
/// two shards reverts the plan to the unsharded shape (merge kind and stage
/// removed), so the recorded plan always matches what actually ran.
void ClampShards(const ExecContext& ctx, OpPlan* plan);

/// Element-wise add/sub/emu. Over contiguous double columns, each of
/// plan.shards row-range shards (one, inline, when unsharded) reads the
/// stored columns through the prepared permutations straight into the SIMD
/// kernel: no permuted copy is made, the result is bit-identical for every
/// shard count, and the fused gather is kernel time. Other columns run
/// BAT-at-a-time (Table 5).
Result<std::vector<BatPtr>> DispatchElementwise(ExecContext& ctx,
                                                const OpPlan& plan,
                                                const PreparedArg& pr,
                                                const PreparedArg& ps);

/// Kernel-stage execution of a row-range sharded binary operation
/// (plan.shards > 1): DispatchElementwise for MergeKind::kConcat; for
/// kTreeReduce, one pack→kernel chain per shard on the shared pool under a
/// split thread budget, then pairwise tree-reduction of the partials under
/// Stage::kMerge. Records summed per-shard stage seconds (CPU-time
/// semantics, which the cost-model refinement expects) and per-shard wall
/// times via ExecContext::RecordShardTimes. Falls back to DispatchBinary if
/// an input unexpectedly lacks contiguous double storage.
Result<std::vector<BatPtr>> DispatchShardedBinary(ExecContext& ctx,
                                                  const OpPlan& plan,
                                                  const PreparedArg& pr,
                                                  const PreparedArg& ps);

// --- assemble.cc ------------------------------------------------------------

/// Morph + merge for unary operations: attaches contextual information
/// (row/column origins, Table 2) to the base result.
Result<Relation> AssembleUnary(const OpInfo& info, const PreparedArg& p,
                               std::vector<BatPtr> base);

/// Binary counterpart (Table 3).
Result<Relation> AssembleBinary(const OpInfo& info, const PreparedArg& pr,
                                const PreparedArg& ps,
                                std::vector<BatPtr> base);

std::vector<BatPtr> ColumnsToBats(kernel::Columns cols);

}  // namespace rma::internal

#endif  // RMA_CORE_EXEC_INTERNAL_H_
