#ifndef RMA_REL_EXPRESSION_H_
#define RMA_REL_EXPRESSION_H_

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/relation.h"
#include "util/result.h"

namespace rma::rel {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression AST shared by the relational operators and the SQL
/// front end: column references, literals, arithmetic/comparison/logic, and
/// a small scalar function library (SQRT, ABS, POW, LN, EXP).
///
/// Expressions are unbound (columns referenced by name); `Bind` resolves
/// them against a schema into an efficiently evaluable form.
class Expr {
 public:
  enum class Kind { kColumn, kLiteral, kBinary, kUnary, kCall };

  /// Column reference by (exact) attribute name.
  static ExprPtr Column(std::string name);
  /// Column reference by position (used by the SQL layer after qualified
  /// name resolution; positions survive joins with duplicate names).
  static ExprPtr ColumnAt(int index) {
    return Column("$" + std::to_string(index));
  }
  /// Constant.
  static ExprPtr Literal(Value v);
  static ExprPtr LiteralInt(int64_t v) { return Literal(Value(v)); }
  static ExprPtr LiteralDouble(double v) { return Literal(Value(v)); }
  static ExprPtr LiteralString(std::string v) {
    return Literal(Value(std::move(v)));
  }
  /// Binary operator: + - * / %  < <= > >= = <>  AND OR.
  static ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs);
  /// Unary operator: - NOT.
  static ExprPtr Unary(std::string op, ExprPtr operand);
  /// Scalar function call by (case-insensitive) name.
  static ExprPtr Call(std::string fn, std::vector<ExprPtr> args);

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }   // column/op/function
  const Value& value() const { return value_; }        // literal
  const std::vector<ExprPtr>& children() const { return children_; }

  std::string ToString() const;

 private:
  Expr(Kind kind, std::string name, Value value, std::vector<ExprPtr> children)
      : kind_(kind),
        name_(std::move(name)),
        value_(std::move(value)),
        children_(std::move(children)) {}

  Kind kind_;
  std::string name_;
  Value value_ = Value(int64_t{0});
  std::vector<ExprPtr> children_;
};

/// The value of an expression over every row of a relation, held as one
/// typed column: int64, double or string values per `type()`. Booleans are
/// int64 0/1. A column that does not depend on the row (an expression over
/// literals only) stores a single value broadcast to all `size()` rows.
///
/// Values may be viewed in place from a malloc-backed input column; the
/// column then keeps that BAT alive. Move-only.
class ExprColumn {
 public:
  ExprColumn(ExprColumn&&) = default;
  ExprColumn& operator=(ExprColumn&&) = default;
  ExprColumn(const ExprColumn&) = delete;
  ExprColumn& operator=(const ExprColumn&) = delete;

  /// Owns `values` (int64_t, double or std::string): one value per row, or
  /// a single broadcast value.
  template <typename T>
  static ExprColumn Owned(std::vector<T> values, int64_t rows, bool broadcast);
  /// Views `rows` values of `source` starting at `data`.
  template <typename T>
  static ExprColumn View(BatPtr source, const T* data, int64_t rows);
  /// `v` broadcast to `rows` rows.
  static ExprColumn Broadcast(const Value& v, int64_t rows);

  DataType type() const { return type_; }
  int64_t size() const { return rows_; }
  bool broadcast() const { return broadcast_; }

  /// The stored values: `size()` of them, or one when broadcast. `T` must
  /// be the element type: int64_t, double or std::string per `type()`.
  template <typename T>
  const T* data() const {
    return static_cast<const T*>(data_);
  }

  /// Boxed value of row `i` (tests and diagnostics).
  Value ValueAt(int64_t i) const;
  /// Truth of row `i`: numerics are true when non-zero (NaN included),
  /// strings when non-empty.
  bool TruthAt(int64_t i) const;

  /// Positions of the true rows, ascending (σ's candidate list).
  std::vector<int64_t> TrueRows() const;

  /// A BAT of `size()` rows holding these values; owned values move into
  /// it, views and broadcast values are copied.
  BatPtr ToBat() &&;

 private:
  ExprColumn(DataType type, int64_t rows, bool broadcast)
      : type_(type), rows_(rows), broadcast_(broadcast) {}

  template <typename T>
  std::vector<T>& Slot() {
    if constexpr (std::is_same_v<T, int64_t>) {
      return ints_;
    } else if constexpr (std::is_same_v<T, double>) {
      return doubles_;
    } else {
      return strings_;
    }
  }

  DataType type_;
  int64_t rows_;
  bool broadcast_;
  const void* data_ = nullptr;  // into one of the vectors below, or source_
  BatPtr source_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

/// Operators and functions, resolved from their names at Bind.
enum class ExprOp {
  kNone,  // column references and literals
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
  kNeg,
  kNot,
  kSqrt,
  kAbs,
  kLn,
  kExp,
  kPow,
};

/// An expression compiled against a schema: column indices and operators
/// resolved, the result type inferred. Booleans are int64 0/1.
///
/// Evaluation is column-at-a-time: every node produces an ExprColumn over
/// all rows, and a node's child columns are released once it has consumed
/// them. Semantics match the scalar Value
/// helpers: numeric comparisons go through double (ValueLess/ValueEquals),
/// numerics order before strings, integer + - * % stay int64 with
/// x % 0 = 0, / is double with x / 0 = 0, and strings are true when
/// non-empty.
class BoundExpr {
 public:
  DataType type() const { return type_; }

  /// For bound column references: the resolved position (-1 otherwise).
  int column_index() const { return column_index_; }
  bool is_column() const { return kind_ == Expr::Kind::kColumn; }

  /// Evaluates over every row of `r` (which must match the bound schema).
  ExprColumn Evaluate(const Relation& r) const;

 private:
  friend Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema);

  Expr::Kind kind_;
  DataType type_ = DataType::kInt64;
  int column_index_ = -1;
  Value literal_ = Value(int64_t{0});
  ExprOp op_ = ExprOp::kNone;
  std::vector<BoundExpr> children_;
};

/// Resolves column names and checks operator/function applicability.
Result<BoundExpr> Bind(const ExprPtr& expr, const Schema& schema);

}  // namespace rma::rel

#endif  // RMA_REL_EXPRESSION_H_
