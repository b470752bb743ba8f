#include "matrix/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "matrix/parallel.h"
#include "matrix/simd.h"

namespace rma {

namespace {

/// Work threshold below which reflector applications stay sequential
/// (thread-spawn latency would dominate).
constexpr int64_t kParallelWork = int64_t{1} << 18;

/// Column-major workspace: the factorization walks down columns, so keeping
/// each column contiguous is what makes the dense path beat the BAT
/// Gram-Schmidt algorithm on tall inputs (DenseMatrix itself is row-major).
using ColumnStore = std::vector<std::vector<double>>;

ColumnStore ToColumns(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  ColumnStore cols(static_cast<size_t>(k),
                   std::vector<double>(static_cast<size_t>(m)));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      cols[static_cast<size_t>(j)][static_cast<size_t>(i)] = a(i, j);
    }
  }
  return cols;
}

/// Columns per fused reduction in ApplyReflector.
constexpr int64_t kGroup = 4;

// Applies the reflector in `v` (scaled so v[j] = 1, entries below j) to
// columns [c_begin, c_end) of `cols`. Columns go in groups of kGroup counted
// from c_begin, so each pass over `v` feeds four accumulators — the register
// blocking that lets the dense path outrun the column-at-a-time BAT
// algorithm. With SIMD enabled a group is one fused `simd::Dot4` plus
// `simd::AxpyTo4`, and the leftover columns past the last full group use
// `simd::Dot`/`simd::Axpy`. The two reductions round differently, so a
// column's result depends on where its group starts: a caller that splits a
// range must split it on group boundaries (ApplyReflectorSplit does).
void ApplyReflector(const std::vector<double>& v, int64_t j, double beta,
                    ColumnStore* cols, int64_t c_begin, int64_t c_end) {
  const int64_t m = static_cast<int64_t>(v.size());
  const double* vd = v.data();
  if (simd::Enabled()) {
    const int64_t len = m - j - 1;
    int64_t c4 = c_begin;
    // Four columns per pass so `v` is streamed once per group, matching the
    // memory traffic of the scalar register-blocked path below.
    for (; c4 + 3 < c_end; c4 += 4) {
      double* c0 = (*cols)[static_cast<size_t>(c4)].data();
      double* c1 = (*cols)[static_cast<size_t>(c4 + 1)].data();
      double* c2 = (*cols)[static_cast<size_t>(c4 + 2)].data();
      double* c3 = (*cols)[static_cast<size_t>(c4 + 3)].data();
      double s[4];
      simd::Dot4(vd + j + 1, c0 + j + 1, c1 + j + 1, c2 + j + 1, c3 + j + 1,
                 len, s);
      s[0] = (c0[j] + s[0]) * beta;
      s[1] = (c1[j] + s[1]) * beta;
      s[2] = (c2[j] + s[2]) * beta;
      s[3] = (c3[j] + s[3]) * beta;
      c0[j] -= s[0];
      c1[j] -= s[1];
      c2[j] -= s[2];
      c3[j] -= s[3];
      const double neg[4] = {-s[0], -s[1], -s[2], -s[3]};
      simd::AxpyTo4(neg, vd + j + 1, c0 + j + 1, c1 + j + 1, c2 + j + 1,
                    c3 + j + 1, len);
    }
    for (int64_t c = c4; c < c_end; ++c) {
      double* cc = (*cols)[static_cast<size_t>(c)].data();
      double s = cc[j] + simd::Dot(vd + j + 1, cc + j + 1, len);
      s *= beta;
      cc[j] -= s;
      simd::Axpy(-s, vd + j + 1, cc + j + 1, len);
    }
    return;
  }
  int64_t c = c_begin;
  for (; c + 3 < c_end; c += 4) {
    double* c0 = (*cols)[static_cast<size_t>(c)].data();
    double* c1 = (*cols)[static_cast<size_t>(c + 1)].data();
    double* c2 = (*cols)[static_cast<size_t>(c + 2)].data();
    double* c3 = (*cols)[static_cast<size_t>(c + 3)].data();
    double s0 = c0[j];
    double s1 = c1[j];
    double s2 = c2[j];
    double s3 = c3[j];
    for (int64_t i = j + 1; i < m; ++i) {
      const double vi = vd[i];
      s0 += vi * c0[i];
      s1 += vi * c1[i];
      s2 += vi * c2[i];
      s3 += vi * c3[i];
    }
    s0 *= beta;
    s1 *= beta;
    s2 *= beta;
    s3 *= beta;
    c0[j] -= s0;
    c1[j] -= s1;
    c2[j] -= s2;
    c3[j] -= s3;
    for (int64_t i = j + 1; i < m; ++i) {
      const double vi = vd[i];
      c0[i] -= s0 * vi;
      c1[i] -= s1 * vi;
      c2[i] -= s2 * vi;
      c3[i] -= s3 * vi;
    }
  }
  for (; c < c_end; ++c) {
    double* cc = (*cols)[static_cast<size_t>(c)].data();
    double s = cc[j];
    for (int64_t i = j + 1; i < m; ++i) s += vd[i] * cc[i];
    s *= beta;
    cc[j] -= s;
    for (int64_t i = j + 1; i < m; ++i) cc[i] -= s * vd[i];
  }
}

// Applies the reflector to columns [c_begin, c_end) across `threads` workers
// once the update is big enough to pay for them. Workers get whole kGroup
// column groups counted from c_begin, so every column takes the same
// reduction path as in the sequential call and the result is bit-identical
// on every thread count.
void ApplyReflectorSplit(const std::vector<double>& v, int64_t j, double beta,
                         ColumnStore* cols, int64_t c_begin, int64_t c_end,
                         int threads) {
  const int64_t m = static_cast<int64_t>(v.size());
  const int64_t ncols = c_end - c_begin;
  if (threads == 1 || (m - j) * ncols <= kParallelWork) {
    ApplyReflector(v, j, beta, cols, c_begin, c_end);
    return;
  }
  ParallelFor(
      0, (ncols + kGroup - 1) / kGroup,
      [&](int64_t lo, int64_t hi) {
        ApplyReflector(v, j, beta, cols, c_begin + kGroup * lo,
                       std::min(c_end, c_begin + kGroup * hi));
      },
      /*min_chunk=*/1, threads);
}

// Householder factorization in-place over the column store: reflectors below
// the diagonal (scaled so v[j] = 1) + `betas`, R in the upper triangle. The
// trailing-matrix update distributes columns across `threads` workers
// (columns are independent given the reflector; the split is per kGroup
// column group, see ApplyReflectorSplit) — the "MKL leverages the hardware"
// behaviour of Sec. 8.3.
void HouseholderInPlace(ColumnStore* cols, std::vector<double>* betas,
                        int threads) {
  const int64_t k = static_cast<int64_t>(cols->size());
  const int64_t m =
      k == 0 ? 0 : static_cast<int64_t>((*cols)[0].size());
  betas->assign(static_cast<size_t>(k), 0.0);
  for (int64_t j = 0; j < k; ++j) {
    auto& cj = (*cols)[static_cast<size_t>(j)];
    // Build the reflector for column j below the diagonal.
    const double norm2 = simd::SumSquares(cj.data() + j, m - j);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;  // zero column: nothing to eliminate
    const double x0 = cj[static_cast<size_t>(j)];
    const double alpha = x0 >= 0 ? -norm : norm;
    // v = x - alpha*e1, normalized so v[j] = 1.
    const double v0 = x0 - alpha;
    if (v0 == 0.0) {  // already in e1 direction
      cj[static_cast<size_t>(j)] = alpha;
      continue;
    }
    for (int64_t i = j + 1; i < m; ++i) cj[static_cast<size_t>(i)] /= v0;
    const double beta = -v0 / alpha;  // 2/(vᵀv) with v[j]=1 scaling
    (*betas)[static_cast<size_t>(j)] = beta;
    cj[static_cast<size_t>(j)] = alpha;
    // Apply the reflector to the remaining columns.
    ApplyReflectorSplit(cj, j, beta, cols, j + 1, k, threads);
  }
}

// Accumulates Q (m×qcols, qcols <= m) from the in-place reflectors by
// applying them in reverse to the first qcols columns of the identity.
ColumnStore AccumulateQ(const ColumnStore& h, const std::vector<double>& betas,
                        int64_t m, int64_t qcols, int threads) {
  const int64_t k = static_cast<int64_t>(h.size());
  ColumnStore q(static_cast<size_t>(qcols),
                std::vector<double>(static_cast<size_t>(m), 0.0));
  for (int64_t i = 0; i < std::min(m, qcols); ++i) {
    q[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1.0;
  }
  for (int64_t j = k - 1; j >= 0; --j) {
    const double beta = betas[static_cast<size_t>(j)];
    if (beta == 0.0) continue;
    ApplyReflectorSplit(h[static_cast<size_t>(j)], j, beta, &q, 0, qcols,
                        threads);
  }
  return q;
}

DenseMatrix ColumnsToMatrix(const ColumnStore& cols, int64_t m) {
  const int64_t k = static_cast<int64_t>(cols.size());
  DenseMatrix out(m, k);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      out(i, j) = cols[static_cast<size_t>(j)][static_cast<size_t>(i)];
    }
  }
  return out;
}

// Flips signs so diag(R) >= 0 (columns of Q flip accordingly).
void NormalizeSigns(DenseMatrix* q, DenseMatrix* r) {
  const int64_t k = r->rows();
  for (int64_t j = 0; j < k; ++j) {
    if ((*r)(j, j) < 0.0) {
      for (int64_t c = j; c < r->cols(); ++c) (*r)(j, c) = -(*r)(j, c);
      for (int64_t i = 0; i < q->rows(); ++i) (*q)(i, j) = -(*q)(i, j);
    }
  }
}

}  // namespace

Status HouseholderQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                     int threads) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  ColumnStore h = ToColumns(a);
  std::vector<double> betas;
  HouseholderInPlace(&h, &betas, threads);
  *r = DenseMatrix(k, k, 0.0);
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = i; j < k; ++j) {
      (*r)(i, j) = h[static_cast<size_t>(j)][static_cast<size_t>(i)];
    }
  }
  *q = ColumnsToMatrix(AccumulateQ(h, betas, m, k, threads), m);
  NormalizeSigns(q, r);
  return Status::OK();
}

Status GramSchmidtQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  *q = a;
  *r = DenseMatrix(k, k, 0.0);
  for (int64_t j = 0; j < k; ++j) {
    // Modified Gram-Schmidt: orthogonalize column j against q_0..q_{j-1}.
    for (int64_t i = 0; i < j; ++i) {
      double s = 0.0;
      for (int64_t p = 0; p < m; ++p) s += (*q)(p, i) * (*q)(p, j);
      (*r)(i, j) = s;
      for (int64_t p = 0; p < m; ++p) (*q)(p, j) -= s * (*q)(p, i);
    }
    double norm2 = 0.0;
    for (int64_t p = 0; p < m; ++p) norm2 += (*q)(p, j) * (*q)(p, j);
    const double norm = std::sqrt(norm2);
    (*r)(j, j) = norm;
    if (norm > 0.0) {
      for (int64_t p = 0; p < m; ++p) (*q)(p, j) /= norm;
    }
  }
  NormalizeSigns(q, r);
  return Status::OK();
}

Status FullQ(const DenseMatrix& a, DenseMatrix* q_full, int threads) {
  const int64_t m = a.rows();
  if (m < a.cols()) return Status::Invalid("qr: requires rows >= cols");
  ColumnStore h = ToColumns(a);
  std::vector<double> betas;
  HouseholderInPlace(&h, &betas, threads);
  *q_full = ColumnsToMatrix(AccumulateQ(h, betas, m, m, threads), m);
  // Match the sign convention of HouseholderQr on the first k columns.
  for (int64_t j = 0; j < a.cols(); ++j) {
    if (h[static_cast<size_t>(j)][static_cast<size_t>(j)] < 0.0) {
      for (int64_t i = 0; i < m; ++i) (*q_full)(i, j) = -(*q_full)(i, j);
    }
  }
  return Status::OK();
}

}  // namespace rma
