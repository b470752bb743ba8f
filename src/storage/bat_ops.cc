#include "storage/bat_ops.h"

#include "matrix/simd.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "storage/sparse_bat.h"

namespace rma {
namespace bat_ops {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define RMA_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#define RMA_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 1)
#else
#define RMA_PREFETCH_READ(addr) ((void)0)
#define RMA_PREFETCH_WRITE(addr) ((void)0)
#endif

// Software-prefetch lookahead (in elements) for the strided gathers below.
// The permuted gather is the case that matters: its loads are data-dependent
// (v[p[i]]), so the hardware prefetcher sees a random stream and every miss
// stalls the 4x-unrolled loop. Requesting the line ~8 iterations (32 doubles
// = 4 unrolled groups) ahead gives an L2 hit time to complete before the
// loop arrives; much further and lines are evicted again on large gathers,
// much nearer and latency isn't covered. 32 measured best on the bench_batch
// gather scenarios on both the AVX2 and NEON boxes (16/64 within noise,
// both slower). RMA_PREFETCH_DISTANCE overrides for recalibration without a
// rebuild; 0 disables the prefetch entirely.
int64_t PrefetchDistance() {
  static const int64_t distance = [] {
    if (const char* env = std::getenv("RMA_PREFETCH_DISTANCE")) {
      return static_cast<int64_t>(std::strtol(env, nullptr, 10));
    }
    return static_cast<int64_t>(32);
  }();
  return distance;
}

int CompareRows(const std::vector<BatPtr>& keys, int64_t i, int64_t j) {
  for (const auto& k : keys) {
    const int c = k->Compare(i, *k, j);
    if (c != 0) return c;
  }
  return 0;
}

}  // namespace

std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys) {
  RMA_CHECK(!keys.empty());
  const int64_t n = keys[0]->size();
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  if (keys.size() == 1 && keys[0]->type() == DataType::kInt64) {
    // Fast path: single integer key.
    auto* b = dynamic_cast<const Int64Bat*>(keys[0].get());
    if (b != nullptr) {
      const auto& d = b->data();
      std::stable_sort(perm.begin(), perm.end(),
                       [&d](int64_t a, int64_t c) { return d[a] < d[c]; });
      return perm;
    }
  }
  if (keys.size() == 1 && keys[0]->type() == DataType::kDouble) {
    auto* b = dynamic_cast<const DoubleBat*>(keys[0].get());
    if (b != nullptr) {
      const auto& d = b->data();
      std::stable_sort(perm.begin(), perm.end(),
                       [&d](int64_t a, int64_t c) { return d[a] < d[c]; });
      return perm;
    }
  }
  std::stable_sort(perm.begin(), perm.end(), [&keys](int64_t a, int64_t b) {
    return CompareRows(keys, a, b) < 0;
  });
  return perm;
}

std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                   bool* unique) {
  std::vector<int64_t> perm = ArgSort(keys);
  *unique = true;
  for (size_t i = 1; i < perm.size(); ++i) {
    if (CompareRows(keys, perm[i - 1], perm[i]) == 0) {
      *unique = false;
      break;
    }
  }
  return perm;
}

bool IsSorted(const std::vector<BatPtr>& keys) {
  if (keys.empty()) return true;
  const int64_t n = keys[0]->size();
  for (int64_t i = 1; i < n; ++i) {
    if (CompareRows(keys, i - 1, i) > 0) return false;
  }
  return true;
}

bool IsKey(const std::vector<BatPtr>& keys) {
  if (keys.empty()) return true;
  const int64_t n = keys[0]->size();
  // Flat open-addressing duplicate probe — one O(n) hash pass instead of a
  // sort (this backs the key validation on the sort-avoiding paths).
  size_t cap = 16;
  while (cap < static_cast<size_t>(n) * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<int64_t> slot(cap, -1);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(keys, i);
    hashes[static_cast<size_t>(i)] = h;
    size_t pos = static_cast<size_t>(h) & mask;
    while (slot[pos] >= 0) {
      if (hashes[static_cast<size_t>(slot[pos])] == h &&
          EqualRows(keys, slot[pos], keys, i)) {
        return false;
      }
      pos = (pos + 1) & mask;
    }
    slot[pos] = i;
  }
  return true;
}

uint64_t HashRow(const std::vector<BatPtr>& keys, int64_t i) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const auto& k : keys) {
    const uint64_t v = k->Hash(i);
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

RowIndex BuildRowIndex(const std::vector<BatPtr>& keys) {
  RowIndex index;
  if (keys.empty()) return index;
  const int64_t n = keys[0]->size();
  index.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) index[HashRow(keys, i)].push_back(i);
  return index;
}

bool EqualRows(const std::vector<BatPtr>& a, int64_t i,
               const std::vector<BatPtr>& b, int64_t j) {
  RMA_DCHECK(a.size() == b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c]->Compare(i, *b[c], j) != 0) return false;
  }
  return true;
}

Result<std::vector<int64_t>> AlignByKey(const std::vector<BatPtr>& build,
                                        const std::vector<BatPtr>& probe) {
  RMA_CHECK(!build.empty() && build.size() == probe.size());
  const int64_t n = probe[0]->size();
  if (build[0]->size() != n) {
    return Status::Invalid("AlignByKey: relations differ in cardinality");
  }
  // Flat open-addressing table (linear probing, power-of-two capacity): a
  // single allocation instead of one bucket vector per distinct key, which
  // is what makes hash alignment cheaper than two multi-column sorts.
  size_t cap = 16;
  while (cap < static_cast<size_t>(n) * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<int64_t> slot(cap, -1);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(build, i);
    hashes[static_cast<size_t>(i)] = h;
    size_t pos = static_cast<size_t>(h) & mask;
    while (slot[pos] >= 0) {
      if (hashes[static_cast<size_t>(slot[pos])] == h &&
          EqualRows(build, slot[pos], build, i)) {
        // Duplicate build key: the order schema is not a key. The sorting
        // fallback re-detects this and reports the user-facing error.
        return Status::KeyError("AlignByKey: build keys are not unique");
      }
      pos = (pos + 1) & mask;
    }
    slot[pos] = i;
  }
  std::vector<int64_t> out(static_cast<size_t>(n), -1);
  std::vector<uint8_t> consumed(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(probe, i);
    size_t pos = static_cast<size_t>(h) & mask;
    int64_t match = -1;
    while (slot[pos] >= 0) {
      const int64_t cand = slot[pos];
      if (hashes[static_cast<size_t>(cand)] == h &&
          EqualRows(build, cand, probe, i)) {
        match = cand;
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (match < 0) {
      return Status::KeyError("AlignByKey: probe row has no matching key");
    }
    if (consumed[static_cast<size_t>(match)] != 0) {
      return Status::KeyError("AlignByKey: probe keys are not unique");
    }
    consumed[static_cast<size_t>(match)] = 1;
    out[static_cast<size_t>(i)] = match;
  }
  // Every build row was consumed exactly once: the match is a bijection, so
  // both key sets are provably unique — callers need no separate key check.
  return out;
}

namespace {

const SparseDoubleBat* AsSparse(const BatPtr& b) {
  return dynamic_cast<const SparseDoubleBat*>(b.get());
}

std::vector<double> DenseOf(const BatPtr& b) {
  if (const auto* s = AsSparse(b)) return s->ToDense();
  return ToDoubleVector(*b);
}

}  // namespace

BatPtr AddColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  const auto* sa = AsSparse(a);
  const auto* sb = AsSparse(b);
  if (sa != nullptr && sb != nullptr) return SparseAdd(*sa, *sb);
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Add(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

BatPtr SubColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Sub(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

BatPtr MulColumns(const BatPtr& a, const BatPtr& b) {
  RMA_DCHECK(a->size() == b->size());
  std::vector<double> x = DenseOf(a);
  const std::vector<double> y = DenseOf(b);
  simd::Mul(x.data(), y.data(), x.data(), static_cast<int64_t>(x.size()));
  return MakeDoubleBat(std::move(x));
}

std::vector<double> AddDense(const std::vector<double>& a,
                             const std::vector<double>& b) {
  RMA_DCHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  simd::Add(a.data(), b.data(), out.data(), static_cast<int64_t>(a.size()));
  return out;
}

void CopyDenseToStrided(const double* src, int64_t n, double* dst,
                        int64_t stride) {
  if (stride == 1) {
    std::copy(src, src + n, dst);
    return;
  }
  // No vector scatter on AVX2/NEON: unroll 4x so the independent strided
  // stores overlap. Order-preserving, so bit-identical to the plain loop.
  // The strided destination touches a new cache line per store; a write
  // prefetch one lookahead group down hides the read-for-ownership latency.
  const int64_t dist = PrefetchDistance();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* d = dst + i * stride;
    if (dist > 0 && i + dist < n) {
      RMA_PREFETCH_WRITE(dst + (i + dist) * stride);
    }
    d[0] = src[i];
    d[stride] = src[i + 1];
    d[2 * stride] = src[i + 2];
    d[3 * stride] = src[i + 3];
  }
  for (; i < n; ++i) dst[i * stride] = src[i];
}

void GatherDenseToStrided(const double* v, const int64_t* perm, int64_t n,
                          double* dst, int64_t stride) {
  // Data-dependent loads (v[p[i]]) defeat the hardware prefetcher; request
  // the lines a fixed distance ahead through the (sequentially readable)
  // permutation. Prefetching is a hint — results are bit-identical.
  const int64_t dist = PrefetchDistance();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* out = dst + i * stride;
    if (dist > 0 && i + dist + 3 < n) {
      RMA_PREFETCH_READ(v + perm[i + dist]);
      RMA_PREFETCH_READ(v + perm[i + dist + 1]);
      RMA_PREFETCH_READ(v + perm[i + dist + 2]);
      RMA_PREFETCH_READ(v + perm[i + dist + 3]);
    }
    out[0] = v[perm[i]];
    out[stride] = v[perm[i + 1]];
    out[2 * stride] = v[perm[i + 2]];
    out[3 * stride] = v[perm[i + 3]];
  }
  for (; i < n; ++i) dst[i * stride] = v[perm[i]];
}

void GatherColumnToStrided(const Bat& col, const std::vector<int64_t>& perm,
                           double* dst, int64_t stride) {
  const int64_t n = perm.empty() ? col.size()
                                 : static_cast<int64_t>(perm.size());
  if (perm.empty()) {
    if (const double* v = col.ContiguousDoubleData()) {
      CopyDenseToStrided(v, n, dst, stride);
      return;
    }
    for (int64_t i = 0; i < n; ++i) dst[i * stride] = col.GetDouble(i);
    return;
  }
  if (const double* v = col.ContiguousDoubleData()) {
    GatherDenseToStrided(v, perm.data(), n, dst, stride);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    dst[i * stride] = col.GetDouble(perm[static_cast<size_t>(i)]);
  }
}

namespace {

// Tile shape for the row-major <-> columnar transposes: 64 rows x 16 columns
// keeps the strided side of a tile within ~8KB, so its cache lines are
// finished while still resident instead of being swept once per column.
constexpr int64_t kTileRows = 64;
constexpr int64_t kTileCols = 16;

}  // namespace

void PackColumnsRowMajor(const double* const* cols, int64_t k,
                         const int64_t* perm, int64_t n, double* dst) {
  if (k == 1) {
    if (perm == nullptr) {
      std::copy(cols[0], cols[0] + n, dst);
    } else {
      const double* v = cols[0];
      for (int64_t i = 0; i < n; ++i) dst[i] = v[perm[i]];
    }
    return;
  }
  for (int64_t i0 = 0; i0 < n; i0 += kTileRows) {
    const int64_t i1 = std::min(n, i0 + kTileRows);
    for (int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const int64_t j1 = std::min(k, j0 + kTileCols);
      int64_t j = j0;
      if (perm == nullptr) {
        // 4-column groups go through the in-register 4x4 transpose, which
        // turns the strided stores into full-width vector stores.
        for (; j + 4 <= j1; j += 4) {
          simd::Pack4(cols[j] + i0, cols[j + 1] + i0, cols[j + 2] + i0,
                      cols[j + 3] + i0, dst + i0 * k + j, k, i1 - i0);
        }
      }
      for (; j < j1; ++j) {
        const double* v = cols[j];
        double* d = dst + i0 * k + j;
        if (perm == nullptr) {
          for (int64_t i = i0; i < i1; ++i, d += k) *d = v[i];
        } else {
          for (int64_t i = i0; i < i1; ++i, d += k) *d = v[perm[i]];
        }
      }
    }
  }
}

void UnpackRowMajorToColumns(const double* src, int64_t n, int64_t k,
                             double* const* cols) {
  if (k == 1) {
    std::copy(src, src + n, cols[0]);
    return;
  }
  for (int64_t i0 = 0; i0 < n; i0 += kTileRows) {
    const int64_t i1 = std::min(n, i0 + kTileRows);
    for (int64_t j0 = 0; j0 < k; j0 += kTileCols) {
      const int64_t j1 = std::min(k, j0 + kTileCols);
      int64_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        simd::Unpack4(src + i0 * k + j, k, i1 - i0, cols[j] + i0,
                      cols[j + 1] + i0, cols[j + 2] + i0, cols[j + 3] + i0);
      }
      for (; j < j1; ++j) {
        double* v = cols[j];
        const double* s = src + i0 * k + j;
        for (int64_t i = i0; i < i1; ++i, s += k) v[i] = *s;
      }
    }
  }
}

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  RMA_DCHECK(x.size() == y->size());
  simd::Axpy(alpha, x.data(), y->data(), static_cast<int64_t>(x.size()));
}

void Scale(double alpha, std::vector<double>* x) {
  simd::Scale(alpha, x->data(), static_cast<int64_t>(x->size()));
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  RMA_DCHECK(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

double Sum(const std::vector<double>& a) {
  return simd::Sum(a.data(), static_cast<int64_t>(a.size()));
}

std::vector<int64_t> SelectIndices(
    const Bat& bat, const std::function<bool(const Value&)>& pred) {
  std::vector<int64_t> out;
  const int64_t n = bat.size();
  for (int64_t i = 0; i < n; ++i) {
    if (pred(bat.GetValue(i))) out.push_back(i);
  }
  return out;
}

namespace {

template <typename T, typename Cmp>
void ScanTyped(const std::vector<T>& data, Cmp cmp, double threshold,
               std::vector<int64_t>* out) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (cmp(static_cast<double>(data[i]), threshold)) {
      out->push_back(static_cast<int64_t>(i));
    }
  }
}

template <typename T>
void ScanOp(const std::vector<T>& data, const std::string& op, double t,
            std::vector<int64_t>* out) {
  if (op == "<") {
    ScanTyped(data, std::less<double>(), t, out);
  } else if (op == "<=") {
    ScanTyped(data, std::less_equal<double>(), t, out);
  } else if (op == ">") {
    ScanTyped(data, std::greater<double>(), t, out);
  } else if (op == ">=") {
    ScanTyped(data, std::greater_equal<double>(), t, out);
  } else if (op == "==") {
    ScanTyped(data, std::equal_to<double>(), t, out);
  } else if (op == "!=") {
    ScanTyped(data, std::not_equal_to<double>(), t, out);
  } else {
    RMA_CHECK(false && "unknown comparison op");
  }
}

}  // namespace

std::vector<int64_t> SelectNumeric(const Bat& bat, const std::string& op,
                                   double threshold) {
  std::vector<int64_t> out;
  if (bat.type() == DataType::kDouble) {
    if (const auto* d = dynamic_cast<const DoubleBat*>(&bat)) {
      ScanOp(d->data(), op, threshold, &out);
      return out;
    }
  }
  if (bat.type() == DataType::kInt64) {
    if (const auto* d = dynamic_cast<const Int64Bat*>(&bat)) {
      ScanOp(d->data(), op, threshold, &out);
      return out;
    }
  }
  // Generic fallback (sparse columns, ...).
  const int64_t n = bat.size();
  for (int64_t i = 0; i < n; ++i) {
    const double v = bat.GetDouble(i);
    bool keep = false;
    if (op == "<") keep = v < threshold;
    else if (op == "<=") keep = v <= threshold;
    else if (op == ">") keep = v > threshold;
    else if (op == ">=") keep = v >= threshold;
    else if (op == "==") keep = v == threshold;
    else if (op == "!=") keep = v != threshold;
    if (keep) out.push_back(i);
  }
  return out;
}

}  // namespace bat_ops
}  // namespace rma
