#include "rel/expression.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "util/string_util.h"

namespace rma::rel {

ExprPtr Expr::Column(std::string name) {
  return ExprPtr(new Expr(Kind::kColumn, std::move(name), Value(int64_t{0}), {}));
}

ExprPtr Expr::Literal(Value v) {
  return ExprPtr(new Expr(Kind::kLiteral, "", std::move(v), {}));
}

ExprPtr Expr::Binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  return ExprPtr(new Expr(Kind::kBinary, std::move(op), Value(int64_t{0}),
                          {std::move(lhs), std::move(rhs)}));
}

ExprPtr Expr::Unary(std::string op, ExprPtr operand) {
  return ExprPtr(new Expr(Kind::kUnary, std::move(op), Value(int64_t{0}),
                          {std::move(operand)}));
}

ExprPtr Expr::Call(std::string fn, std::vector<ExprPtr> args) {
  return ExprPtr(
      new Expr(Kind::kCall, ToUpper(fn), Value(int64_t{0}), std::move(args)));
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return name_;
    case Kind::kLiteral:
      return ValueToString(value_);
    case Kind::kBinary:
      return "(" + children_[0]->ToString() + " " + name_ + " " +
             children_[1]->ToString() + ")";
    case Kind::kUnary:
      return "(" + name_ + " " + children_[0]->ToString() + ")";
    case Kind::kCall: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

ExprOp BinaryOp(const std::string& op) {
  if (op == "+") return ExprOp::kAdd;
  if (op == "-") return ExprOp::kSub;
  if (op == "*") return ExprOp::kMul;
  if (op == "/") return ExprOp::kDiv;
  if (op == "%") return ExprOp::kMod;
  if (op == "<") return ExprOp::kLt;
  if (op == "<=") return ExprOp::kLe;
  if (op == ">") return ExprOp::kGt;
  if (op == ">=") return ExprOp::kGe;
  if (op == "=" || op == "==") return ExprOp::kEq;
  if (op == "<>" || op == "!=") return ExprOp::kNe;
  if (op == "AND") return ExprOp::kAnd;
  if (op == "OR") return ExprOp::kOr;
  return ExprOp::kNone;
}

ExprOp FunctionOp(const std::string& fn) {
  if (fn == "SQRT") return ExprOp::kSqrt;
  if (fn == "ABS") return ExprOp::kAbs;
  if (fn == "LN") return ExprOp::kLn;
  if (fn == "EXP") return ExprOp::kExp;
  if (fn == "POW") return ExprOp::kPow;
  return ExprOp::kNone;
}

bool IsArithmetic(ExprOp op) { return op >= ExprOp::kAdd && op <= ExprOp::kMod; }

bool IsComparison(ExprOp op) { return op >= ExprOp::kLt && op <= ExprOp::kNe; }

}  // namespace

Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema) {
  RMA_CHECK(expr != nullptr);
  BoundExpr out;
  out.kind_ = expr->kind();
  switch (expr->kind()) {
    case Expr::Kind::kColumn: {
      int idx = -1;
      if (!expr->name().empty() && expr->name()[0] == '$') {
        idx = std::atoi(expr->name().c_str() + 1);
        if (idx < 0 || idx >= schema.num_attributes()) {
          return Status::KeyError("column position out of range: " +
                                  expr->name());
        }
      } else {
        RMA_ASSIGN_OR_RETURN(idx, schema.IndexOf(expr->name()));
      }
      out.column_index_ = idx;
      out.type_ = schema.attribute(idx).type;
      return out;
    }
    case Expr::Kind::kLiteral: {
      out.literal_ = expr->value();
      out.type_ = ValueType(expr->value());
      return out;
    }
    case Expr::Kind::kUnary: {
      RMA_ASSIGN_OR_RETURN(BoundExpr child, Bind(expr->children()[0], schema));
      const std::string op = ToUpper(expr->name());
      if (op == "-") {
        if (!IsNumeric(child.type())) {
          return Status::TypeError("unary - on non-numeric operand");
        }
        out.op_ = ExprOp::kNeg;
        out.type_ = child.type();
      } else if (op == "NOT") {
        out.op_ = ExprOp::kNot;
        out.type_ = DataType::kInt64;
      } else {
        return Status::Invalid("unknown unary operator: " + expr->name());
      }
      out.children_.push_back(std::move(child));
      return out;
    }
    case Expr::Kind::kBinary: {
      RMA_ASSIGN_OR_RETURN(BoundExpr lhs, Bind(expr->children()[0], schema));
      RMA_ASSIGN_OR_RETURN(BoundExpr rhs, Bind(expr->children()[1], schema));
      out.op_ = BinaryOp(ToUpper(expr->name()));
      if (out.op_ == ExprOp::kNone) {
        return Status::Invalid("unknown binary operator: " + expr->name());
      }
      if (IsArithmetic(out.op_)) {
        if (!IsNumeric(lhs.type()) || !IsNumeric(rhs.type())) {
          return Status::TypeError("arithmetic on non-numeric operand");
        }
        const bool both_int = lhs.type() == DataType::kInt64 &&
                              rhs.type() == DataType::kInt64;
        out.type_ = (both_int && out.op_ != ExprOp::kDiv) ? DataType::kInt64
                                                          : DataType::kDouble;
      } else {
        out.type_ = DataType::kInt64;  // comparison or logic
      }
      out.children_.push_back(std::move(lhs));
      out.children_.push_back(std::move(rhs));
      return out;
    }
    case Expr::Kind::kCall: {
      out.op_ = FunctionOp(expr->name());
      if (out.op_ == ExprOp::kNone) {
        return Status::Invalid("unknown function: " + expr->name());
      }
      const size_t arity = out.op_ == ExprOp::kPow ? 2 : 1;
      if (expr->children().size() != arity) {
        return Status::Invalid("wrong argument count for " + expr->name());
      }
      out.type_ = DataType::kDouble;
      for (const auto& c : expr->children()) {
        RMA_ASSIGN_OR_RETURN(BoundExpr bc, Bind(c, schema));
        if (!IsNumeric(bc.type())) {
          return Status::TypeError(expr->name() + " on non-numeric operand");
        }
        out.children_.push_back(std::move(bc));
      }
      return out;
    }
  }
  return Status::Invalid("unreachable expression kind");
}

// --- column-at-a-time evaluation ---------------------------------------------

namespace {

template <typename T>
constexpr DataType TypeOf() {
  if constexpr (std::is_same_v<T, int64_t>) {
    return DataType::kInt64;
  } else if constexpr (std::is_same_v<T, double>) {
    return DataType::kDouble;
  } else {
    static_assert(std::is_same_v<T, std::string>);
    return DataType::kString;
  }
}

/// Calls `f` with the column's typed element pointer.
template <typename F>
auto Visit(const ExprColumn& c, F&& f) {
  if (c.type() == DataType::kInt64) return f(c.data<int64_t>());
  if (c.type() == DataType::kDouble) return f(c.data<double>());
  return f(c.data<std::string>());
}

template <typename P>
using ElementOf = std::remove_cv_t<std::remove_pointer_t<P>>;

bool IsTrue(int64_t v) { return v != 0; }
bool IsTrue(double v) { return v != 0.0; }  // NaN is true
bool IsTrue(const std::string& v) { return !v.empty(); }

// Numerics compare as doubles (so int64 values above 2^53 compare as their
// double images), exactly as ValueLess/ValueEquals do; strings
// lexicographically.
template <typename A, typename B>
bool Less(const A& u, const B& v) {
  if constexpr (std::is_arithmetic_v<A>) {
    return static_cast<double>(u) < static_cast<double>(v);
  } else {
    return u < v;
  }
}
template <typename A, typename B>
bool Equal(const A& u, const B& v) {
  if constexpr (std::is_arithmetic_v<A>) {
    return static_cast<double>(u) == static_cast<double>(v);
  } else {
    return u == v;
  }
}

// Two's-complement wrap-around, without signed-overflow UB.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

/// Elementwise f over one column; a broadcast input yields a broadcast
/// result.
template <typename R, typename A, typename F>
ExprColumn Map1(const ExprColumn& a, const A* x, F f) {
  const size_t n = static_cast<size_t>(a.broadcast() ? 1 : a.size());
  std::vector<R> out(n);
  R* o = out.data();
  for (size_t i = 0; i < n; ++i) o[i] = f(x[i]);
  return ExprColumn::Owned(std::move(out), a.size(), a.broadcast());
}

/// Elementwise f over two columns of equal length; a broadcast side is read
/// once, and two broadcast sides yield a broadcast result.
template <typename R, typename A, typename B, typename F>
ExprColumn Map2(const ExprColumn& a, const A* x, const ExprColumn& b,
                const B* y, F f) {
  const bool broadcast = a.broadcast() && b.broadcast();
  const size_t n = static_cast<size_t>(broadcast ? 1 : a.size());
  std::vector<R> out(n);
  R* o = out.data();
  if (!broadcast && a.broadcast()) {
    const A x0 = x[0];
    for (size_t i = 0; i < n; ++i) o[i] = f(x0, y[i]);
  } else if (!broadcast && b.broadcast()) {
    const B y0 = y[0];
    for (size_t i = 0; i < n; ++i) o[i] = f(x[i], y0);
  } else {
    for (size_t i = 0; i < n; ++i) o[i] = f(x[i], y[i]);
  }
  return ExprColumn::Owned(std::move(out), a.size(), broadcast);
}

template <typename A, typename B>
ExprColumn Compare(ExprOp op, const ExprColumn& a, const A* x,
                   const ExprColumn& b, const B* y) {
  constexpr bool an = std::is_arithmetic_v<A>;
  constexpr bool bn = std::is_arithmetic_v<B>;
  if constexpr (an != bn) {
    // Numerics order before strings and never equal one: the result is the
    // same on every row.
    int64_t v = 1;
    switch (op) {
      case ExprOp::kLt:
      case ExprOp::kLe:
        v = an;
        break;
      case ExprOp::kGt:
      case ExprOp::kGe:
        v = bn;
        break;
      case ExprOp::kEq:
        v = false;
        break;
      default:
        break;
    }
    return ExprColumn::Owned(std::vector<int64_t>{v}, a.size(), true);
  } else {
    switch (op) {
      case ExprOp::kLt:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{Less(u, v)};
        });
      case ExprOp::kGt:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{Less(v, u)};
        });
      case ExprOp::kLe:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{!Less(v, u)};
        });
      case ExprOp::kGe:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{!Less(u, v)};
        });
      case ExprOp::kEq:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{Equal(u, v)};
        });
      default:
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{!Equal(u, v)};
        });
    }
  }
}

template <typename A, typename B>
ExprColumn Arithmetic(ExprOp op, const ExprColumn& a, const A* x,
                      const ExprColumn& b, const B* y) {
  if constexpr (!std::is_arithmetic_v<A> || !std::is_arithmetic_v<B>) {
    RMA_CHECK(false && "arithmetic on a string operand passed Bind");
    return ExprColumn::Broadcast(Value(int64_t{0}), a.size());
  } else {
    if constexpr (std::is_same_v<A, int64_t> && std::is_same_v<B, int64_t>) {
      // Integer + - * % stay int64; only / goes through double.
      switch (op) {
        case ExprOp::kAdd:
          return Map2<int64_t>(a, x, b, y, [](int64_t u, int64_t v) {
            return Wrap(static_cast<uint64_t>(u) + static_cast<uint64_t>(v));
          });
        case ExprOp::kSub:
          return Map2<int64_t>(a, x, b, y, [](int64_t u, int64_t v) {
            return Wrap(static_cast<uint64_t>(u) - static_cast<uint64_t>(v));
          });
        case ExprOp::kMul:
          return Map2<int64_t>(a, x, b, y, [](int64_t u, int64_t v) {
            return Wrap(static_cast<uint64_t>(u) * static_cast<uint64_t>(v));
          });
        case ExprOp::kMod:
          // x % 0 = 0; x % -1 is 0 too, without INT64_MIN % -1 trapping.
          return Map2<int64_t>(a, x, b, y, [](int64_t u, int64_t v) {
            return (v == 0 || v == -1) ? int64_t{0} : u % v;
          });
        default:
          break;
      }
    }
    switch (op) {
      case ExprOp::kAdd:
        return Map2<double>(a, x, b, y, [](A u, B v) {
          return static_cast<double>(u) + static_cast<double>(v);
        });
      case ExprOp::kSub:
        return Map2<double>(a, x, b, y, [](A u, B v) {
          return static_cast<double>(u) - static_cast<double>(v);
        });
      case ExprOp::kMul:
        return Map2<double>(a, x, b, y, [](A u, B v) {
          return static_cast<double>(u) * static_cast<double>(v);
        });
      case ExprOp::kDiv:
        return Map2<double>(a, x, b, y, [](A u, B v) {
          const double d = static_cast<double>(v);
          return d == 0.0 ? 0.0 : static_cast<double>(u) / d;
        });
      default:
        return Map2<double>(a, x, b, y, [](A u, B v) {
          const double d = static_cast<double>(v);
          return d == 0.0 ? 0.0 : std::fmod(static_cast<double>(u), d);
        });
    }
  }
}

ExprColumn EvalBinary(ExprOp op, ExprColumn a, ExprColumn b) {
  return Visit(a, [&](const auto* x) {
    return Visit(b, [&](const auto* y) {
      using A = ElementOf<decltype(x)>;
      using B = ElementOf<decltype(y)>;
      // Both sides are evaluated; no operator has side effects or errors.
      if (op == ExprOp::kAnd) {
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{IsTrue(u) && IsTrue(v)};
        });
      }
      if (op == ExprOp::kOr) {
        return Map2<int64_t>(a, x, b, y, [](const A& u, const B& v) {
          return int64_t{IsTrue(u) || IsTrue(v)};
        });
      }
      if (IsComparison(op)) return Compare(op, a, x, b, y);
      return Arithmetic(op, a, x, b, y);
    });
  });
}

ExprColumn EvalUnary(ExprOp op, ExprColumn a) {
  return Visit(a, [&](const auto* x) {
    using A = ElementOf<decltype(x)>;
    if constexpr (std::is_arithmetic_v<A>) {
      if (op == ExprOp::kNeg) {
        if constexpr (std::is_same_v<A, int64_t>) {
          return Map1<int64_t>(
              a, x, [](A u) { return Wrap(0 - static_cast<uint64_t>(u)); });
        } else {
          return Map1<double>(a, x, [](double u) { return -u; });
        }
      }
    }
    RMA_CHECK(op == ExprOp::kNot);
    return Map1<int64_t>(a, x,
                         [](const A& u) { return int64_t{!IsTrue(u)}; });
  });
}

ExprColumn EvalFunction(ExprOp op, ExprColumn a) {
  return Visit(a, [&](const auto* x) {
    using A = ElementOf<decltype(x)>;
    if constexpr (!std::is_arithmetic_v<A>) {
      RMA_CHECK(false && "function of a string operand passed Bind");
      return ExprColumn::Broadcast(Value(0.0), a.size());
    } else {
      double (*fn)(double) = nullptr;
      switch (op) {
        case ExprOp::kSqrt:
          fn = [](double u) { return std::sqrt(u); };
          break;
        case ExprOp::kAbs:
          fn = [](double u) { return std::fabs(u); };
          break;
        case ExprOp::kLn:
          fn = [](double u) { return std::log(u); };
          break;
        default:
          RMA_CHECK(op == ExprOp::kExp);
          fn = [](double u) { return std::exp(u); };
          break;
      }
      return Map1<double>(a, x,
                          [fn](A u) { return fn(static_cast<double>(u)); });
    }
  });
}

ExprColumn EvalPow(ExprColumn a, ExprColumn b) {
  return Visit(a, [&](const auto* x) {
    return Visit(b, [&](const auto* y) {
      using A = ElementOf<decltype(x)>;
      using B = ElementOf<decltype(y)>;
      if constexpr (!std::is_arithmetic_v<A> || !std::is_arithmetic_v<B>) {
        RMA_CHECK(false && "function of a string operand passed Bind");
        return ExprColumn::Broadcast(Value(0.0), a.size());
      } else {
        return Map2<double>(a, x, b, y, [](A u, B v) {
          return std::pow(static_cast<double>(u), static_cast<double>(v));
        });
      }
    });
  });
}

/// Contiguous values of `bat` when it stores them that way, else nullptr.
template <typename T>
const T* ContiguousValues(const Bat& bat) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return bat.ContiguousInt64Data();
  } else if constexpr (std::is_same_v<T, double>) {
    return bat.ContiguousDoubleData();
  } else {
    const auto* s = dynamic_cast<const StringBat*>(&bat);
    return s != nullptr ? s->data().data() : nullptr;
  }
}

template <typename T>
T ElementAt(const Bat& bat, int64_t i) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return std::get<int64_t>(bat.GetValue(i));
  } else if constexpr (std::is_same_v<T, double>) {
    return bat.GetDouble(i);
  } else {
    return bat.GetString(i);
  }
}

/// A column reference: malloc-backed tails (TypedBat, slice views) are
/// viewed in place; out-of-core columns are copied out in bulk under one
/// pin, and other representations (sparse) through the virtual accessors.
template <typename T>
ExprColumn ReadColumn(const BatPtr& bat) {
  const int64_t n = bat->size();
  if (bat->StableData()) {
    if (const T* p = ContiguousValues<T>(*bat)) {
      return ExprColumn::View(bat, p, n);
    }
  }
  std::vector<T> out(static_cast<size_t>(n));
  // A failed pin (torn page) leaves the per-element accessors, which report
  // it; SQL binding has already turned such failures into statement errors.
  const bool pinned = bat->PinData().ok();
  if (const T* p = pinned ? ContiguousValues<T>(*bat) : nullptr) {
    std::copy(p, p + n, out.begin());
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = ElementAt<T>(*bat, i);
    }
  }
  if (pinned) bat->UnpinData();
  return ExprColumn::Owned(std::move(out), n, /*broadcast=*/false);
}

}  // namespace

template <typename T>
ExprColumn ExprColumn::Owned(std::vector<T> values, int64_t rows,
                             bool broadcast) {
  ExprColumn c(TypeOf<T>(), rows, broadcast);
  c.Slot<T>() = std::move(values);
  c.data_ = c.Slot<T>().data();
  return c;
}

template <typename T>
ExprColumn ExprColumn::View(BatPtr source, const T* data, int64_t rows) {
  ExprColumn c(TypeOf<T>(), rows, /*broadcast=*/false);
  c.source_ = std::move(source);
  c.data_ = data;
  return c;
}

template ExprColumn ExprColumn::Owned(std::vector<int64_t>, int64_t, bool);
template ExprColumn ExprColumn::Owned(std::vector<double>, int64_t, bool);
template ExprColumn ExprColumn::Owned(std::vector<std::string>, int64_t, bool);
template ExprColumn ExprColumn::View(BatPtr, const int64_t*, int64_t);
template ExprColumn ExprColumn::View(BatPtr, const double*, int64_t);
template ExprColumn ExprColumn::View(BatPtr, const std::string*, int64_t);

ExprColumn ExprColumn::Broadcast(const Value& v, int64_t rows) {
  switch (ValueType(v)) {
    case DataType::kInt64:
      return Owned(std::vector<int64_t>{std::get<int64_t>(v)}, rows, true);
    case DataType::kDouble:
      return Owned(std::vector<double>{std::get<double>(v)}, rows, true);
    case DataType::kString:
      break;
  }
  return Owned(std::vector<std::string>{std::get<std::string>(v)}, rows, true);
}

Value ExprColumn::ValueAt(int64_t i) const {
  const size_t at = broadcast_ ? 0 : static_cast<size_t>(i);
  return Visit(*this, [&](const auto* x) { return Value(x[at]); });
}

bool ExprColumn::TruthAt(int64_t i) const {
  const size_t at = broadcast_ ? 0 : static_cast<size_t>(i);
  return Visit(*this, [&](const auto* x) { return IsTrue(x[at]); });
}

std::vector<int64_t> ExprColumn::TrueRows() const {
  std::vector<int64_t> rows;
  if (broadcast_) {
    if (rows_ > 0 && TruthAt(0)) {
      rows.resize(static_cast<size_t>(rows_));
      std::iota(rows.begin(), rows.end(), int64_t{0});
    }
    return rows;
  }
  Visit(*this, [&](const auto* x) {
    // Count first, so the list is allocated once at its final size.
    size_t count = 0;
    for (int64_t i = 0; i < rows_; ++i) count += IsTrue(x[i]) ? 1 : 0;
    rows.reserve(count);
    for (int64_t i = 0; i < rows_; ++i) {
      if (IsTrue(x[i])) rows.push_back(i);
    }
  });
  return rows;
}

BatPtr ExprColumn::ToBat() && {
  return Visit(*this, [&](const auto* x) -> BatPtr {
    using T = ElementOf<decltype(x)>;
    std::vector<T> out;
    if (broadcast_) {
      out.assign(static_cast<size_t>(rows_), x[0]);
    } else if (source_ == nullptr) {
      out = std::move(Slot<T>());
    } else {
      out.assign(x, x + rows_);
    }
    return std::make_shared<TypedBat<T>>(std::move(out));
  });
}

ExprColumn BoundExpr::Evaluate(const Relation& r) const {
  switch (kind_) {
    case Expr::Kind::kColumn: {
      const BatPtr& bat = r.column(column_index_);
      if (type_ == DataType::kInt64) return ReadColumn<int64_t>(bat);
      if (type_ == DataType::kDouble) return ReadColumn<double>(bat);
      return ReadColumn<std::string>(bat);
    }
    case Expr::Kind::kLiteral:
      return ExprColumn::Broadcast(literal_, r.num_rows());
    case Expr::Kind::kUnary:
      return EvalUnary(op_, children_[0].Evaluate(r));
    case Expr::Kind::kBinary: {
      ExprColumn a = children_[0].Evaluate(r);
      return EvalBinary(op_, std::move(a), children_[1].Evaluate(r));
    }
    case Expr::Kind::kCall: {
      ExprColumn a = children_[0].Evaluate(r);
      if (op_ != ExprOp::kPow) return EvalFunction(op_, std::move(a));
      return EvalPow(std::move(a), children_[1].Evaluate(r));
    }
  }
  RMA_CHECK(false && "unreachable kind at eval");
  return ExprColumn::Broadcast(Value(int64_t{0}), r.num_rows());
}

}  // namespace rma::rel
