#include "storage/bat.h"

#include "util/string_util.h"

namespace rma {

template <>
DataType TypedBat<int64_t>::type() const {
  return DataType::kInt64;
}
template <>
DataType TypedBat<double>::type() const {
  return DataType::kDouble;
}
template <>
DataType TypedBat<std::string>::type() const {
  return DataType::kString;
}

template <>
double TypedBat<int64_t>::GetDouble(int64_t i) const {
  return static_cast<double>(at(i));
}
template <>
double TypedBat<double>::GetDouble(int64_t i) const {
  return at(i);
}
template <>
double TypedBat<std::string>::GetDouble(int64_t) const {
  RMA_CHECK(false && "GetDouble on a string BAT");
  return 0.0;
}

template <>
std::string TypedBat<int64_t>::GetString(int64_t i) const {
  return std::to_string(at(i));
}
template <>
std::string TypedBat<double>::GetString(int64_t i) const {
  return FormatDouble(at(i));
}
template <>
std::string TypedBat<std::string>::GetString(int64_t i) const {
  return at(i);
}

template <>
int64_t TypedBat<int64_t>::ByteSize() const {
  return size() * static_cast<int64_t>(sizeof(int64_t));
}
template <>
int64_t TypedBat<double>::ByteSize() const {
  return size() * static_cast<int64_t>(sizeof(double));
}
template <>
int64_t TypedBat<std::string>::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& s : data()) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.capacity());
  }
  return bytes;
}

template class TypedBat<int64_t>;
template class TypedBat<double>;
template class TypedBat<std::string>;

std::string DoubleSliceBat::GetString(int64_t i) const {
  return FormatDouble(data_[i]);
}

BatPtr SliceBat(const BatPtr& b, int64_t offset, int64_t count) {
  RMA_CHECK(b != nullptr);
  RMA_CHECK(offset >= 0 && count >= 0 && offset + count <= b->size());
  // A zero-copy view captures a raw pointer, so the source must keep that
  // pointer valid for the view's lifetime. Paged columns do not (their
  // frame moves across evict/reload): they take the copying fallback.
  if (const double* d = b->StableData() ? b->ContiguousDoubleData() : nullptr) {
    // Re-slicing a slice composes offsets against the original owner so view
    // chains never deepen.
    if (const auto* view = dynamic_cast<const DoubleSliceBat*>(b.get())) {
      return std::make_shared<DoubleSliceBat>(view->owner(), d + offset, count);
    }
    return std::make_shared<DoubleSliceBat>(b, d + offset, count);
  }
  std::vector<int64_t> idx(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) idx[static_cast<size_t>(i)] = offset + i;
  return b->Take(idx);
}

BatPtr MakeInt64Bat(std::vector<int64_t> v) {
  return std::make_shared<Int64Bat>(std::move(v));
}
BatPtr MakeDoubleBat(std::vector<double> v) {
  return std::make_shared<DoubleBat>(std::move(v));
}
BatPtr MakeStringBat(std::vector<std::string> v) {
  return std::make_shared<StringBat>(std::move(v));
}

BatPtr MakeConstantBat(const Value& v, int64_t n) {
  switch (ValueType(v)) {
    case DataType::kInt64:
      return MakeInt64Bat(
          std::vector<int64_t>(static_cast<size_t>(n), std::get<int64_t>(v)));
    case DataType::kDouble:
      return MakeDoubleBat(
          std::vector<double>(static_cast<size_t>(n), std::get<double>(v)));
    case DataType::kString:
      return MakeStringBat(std::vector<std::string>(static_cast<size_t>(n),
                                                    std::get<std::string>(v)));
  }
  return nullptr;
}

std::vector<double> ToDoubleVector(const Bat& bat) {
  const int64_t n = bat.size();
  // Fast paths for dense typed columns (including slice views); sparse and
  // other representations go through the virtual accessor.
  if (const double* d = bat.ContiguousDoubleData()) {
    return std::vector<double>(d, d + n);
  }
  std::vector<double> out(static_cast<size_t>(n));
  if (const int64_t* v = bat.ContiguousInt64Data()) {
    for (int64_t i = 0; i < n; ++i) out[i] = static_cast<double>(v[i]);
    return out;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = bat.GetDouble(i);
  return out;
}

std::vector<double> GatherDoubleVector(const Bat& bat,
                                       const std::vector<int64_t>& perm) {
  std::vector<double> out(perm.size());
  if (const double* v = bat.ContiguousDoubleData()) {
    for (size_t i = 0; i < perm.size(); ++i) out[i] = v[perm[i]];
    return out;
  }
  if (const int64_t* v = bat.ContiguousInt64Data()) {
    for (size_t i = 0; i < perm.size(); ++i) {
      out[i] = static_cast<double>(v[perm[i]]);
    }
    return out;
  }
  for (size_t i = 0; i < perm.size(); ++i) out[i] = bat.GetDouble(perm[i]);
  return out;
}

}  // namespace rma
