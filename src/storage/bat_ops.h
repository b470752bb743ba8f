#ifndef RMA_STORAGE_BAT_OPS_H_
#define RMA_STORAGE_BAT_OPS_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "storage/bat.h"
#include "util/result.h"

namespace rma {

/// Vectorized BAT-level operations (the MonetDB kernel surface).
///
/// Relational operators and the BAT-resident matrix kernels are written in
/// terms of these primitives: multi-column stable argsort, gather
/// (leftfetchjoin), predicated selection producing candidate lists, hash-key
/// maps, and double-column arithmetic.
namespace bat_ops {

/// Stable argsort of rows under the lexicographic order of `keys`
/// (all BATs must have equal length). Returns the permutation `perm` such
/// that row `perm[0]` is smallest.
std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys);

/// Like ArgSort but also reports via `*unique` whether all key rows are
/// distinct (the paper requires order schemas to form a key).
std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                   bool* unique);

/// True if rows are already sorted (non-strictly) under `keys`.
bool IsSorted(const std::vector<BatPtr>& keys);

/// True if all key rows are pairwise distinct. O(n) extra space.
bool IsKey(const std::vector<BatPtr>& keys);

/// 64-bit row hash combining all `keys` at row `i`.
uint64_t HashRow(const std::vector<BatPtr>& keys, int64_t i);

/// Hash map from key-row hash -> row indices. Collisions are resolved by the
/// caller via EqualRows.
using RowIndex = std::unordered_map<uint64_t, std::vector<int64_t>>;
RowIndex BuildRowIndex(const std::vector<BatPtr>& keys);

/// True if row `i` of `a` equals row `j` of `b` column-wise.
bool EqualRows(const std::vector<BatPtr>& a, int64_t i,
               const std::vector<BatPtr>& b, int64_t j);

/// For each row of `probe` keys, finds the index of the matching row in
/// `build` keys. Returns KeyError if some probe row has no match or either
/// side contains duplicate keys — callers fall back to rank alignment
/// (which reports the user-facing uniqueness error). On success the match
/// is a bijection, which proves both key sets unique: no separate key
/// validation is needed. This is the "relative sorting" optimization of
/// Sec. 8.1.
Result<std::vector<int64_t>> AlignByKey(const std::vector<BatPtr>& build,
                                        const std::vector<BatPtr>& probe);

// --- double-column arithmetic (element-wise, equal lengths) ---------------

/// out[i] = a[i] + b[i]; uses the sparse fast path when both are compressed.
BatPtr AddColumns(const BatPtr& a, const BatPtr& b);
BatPtr SubColumns(const BatPtr& a, const BatPtr& b);
BatPtr MulColumns(const BatPtr& a, const BatPtr& b);

std::vector<double> AddDense(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Copies `n` doubles from `src` into `dst[0], dst[stride], ...` (stride in
/// elements). The strided-write building block of the BATs -> contiguous
/// matrix gather.
void CopyDenseToStrided(const double* src, int64_t n, double* dst,
                        int64_t stride);

/// Copies `v[perm[i]]` into `dst[i*stride]` for i in [0, n), prefetching the
/// source lines a fixed distance ahead through `perm` (bit-identical to the
/// plain loop). The permuted half of the gathers below.
void GatherDenseToStrided(const double* v, const int64_t* perm, int64_t n,
                          double* dst, int64_t stride);

/// Copies `col[perm[i]]` (or `col[i]` when `perm` is empty) into
/// `dst[i*stride]` for i in [0, n). Dense double columns take a direct
/// array walk instead of per-element virtual fetches — the shared fast path
/// of the matrix gather and the column-to-matrix kernel conversion.
void GatherColumnToStrided(const Bat& col, const std::vector<int64_t>& perm,
                           double* dst, int64_t stride);

/// Packs `k` equal-length column arrays into the row-major `dst` (n×k):
/// dst[i*k + j] = cols[j][perm ? perm[i] : i]. Row/column tiled so each
/// destination cache line is completed while resident instead of being
/// refetched once per column — the cache-aware form of k calls to
/// GatherColumnToStrided.
void PackColumnsRowMajor(const double* const* cols, int64_t k,
                         const int64_t* perm, int64_t n, double* dst);

/// Inverse of PackColumnsRowMajor (identity perm): cols[j][i] = src[i*k + j],
/// with the same tiling applied to the strided reads.
void UnpackRowMajorToColumns(const double* src, int64_t n, int64_t k,
                             double* const* cols);

/// y[i] += alpha * x[i]
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);
/// x[i] *= alpha
void Scale(double alpha, std::vector<double>* x);
double Dot(const std::vector<double>& a, const std::vector<double>& b);
double Sum(const std::vector<double>& a);

// --- predicated selection (candidate lists) --------------------------------

/// Row indices where pred(bat value) holds.
std::vector<int64_t> SelectIndices(const Bat& bat,
                                   const std::function<bool(const Value&)>& pred);

/// Row indices where the double value compares `op` against `threshold`;
/// op is one of "<", "<=", ">", ">=", "==", "!=". Fast path for doubles/ints.
std::vector<int64_t> SelectNumeric(const Bat& bat, const std::string& op,
                                   double threshold);

}  // namespace bat_ops
}  // namespace rma

#endif  // RMA_STORAGE_BAT_OPS_H_
