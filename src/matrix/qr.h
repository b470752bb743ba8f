#ifndef RMA_MATRIX_QR_H_
#define RMA_MATRIX_QR_H_

#include "matrix/dense_matrix.h"
#include "util/result.h"

namespace rma {

/// Householder QR of an m×k matrix with m ≥ k. Produces the thin factors:
/// Q is m×k with orthonormal columns, R is k×k upper triangular.
///
/// The factorization is sign-normalized (diag(R) ≥ 0), which makes it unique
/// for full-rank inputs. Uniqueness is what allows the `qqr` sort-avoidance
/// optimization (Sec. 8.1): QR of a row permutation P·A yields P·Q with the
/// same R, so results agree up to row order, which origins capture.
///
/// `threads` distributes the reflector applications across workers
/// (0 = the ambient ScopedThreadBudget, or DefaultThreadCount() when no
/// budget is set; 1 = sequential — the competitor simulations use 1 to model
/// R's single-threaded LINPACK qr()). Q and R are bit-identical for every
/// `threads` value: workers split the columns on the boundaries of the fused
/// 4-column reductions, so each column's arithmetic never depends on the
/// partition.
Status HouseholderQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                     int threads = 0);

/// Modified Gram-Schmidt QR with the same contract as HouseholderQr. This is
/// the column-at-a-time algorithm the paper runs over BATs (Sec. 8.3, the
/// Gander baseline); exposed here for testing both against each other.
Status GramSchmidtQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r);

/// Full orthogonal factor: m×m Q whose first k columns equal the thin Q
/// (used to complete USV's full left-singular basis). `threads` as for
/// HouseholderQr, with the same bit-identical guarantee.
Status FullQ(const DenseMatrix& a, DenseMatrix* q_full, int threads = 0);

}  // namespace rma

#endif  // RMA_MATRIX_QR_H_
