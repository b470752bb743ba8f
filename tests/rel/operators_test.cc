// Relational algebra operators and the expression layer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rel/expression.h"
#include "rel/operators.h"
#include "storage/paged_bat.h"
#include "storage/paged_store.h"
#include "storage/sparse_bat.h"
#include "test_util.h"

namespace rma {
namespace {

using rel::Expr;
using rel::ExprPtr;
using testing::MakeRelation;
using testing::TempDirectory;

Relation People() {
  return MakeRelation({{"name", DataType::kString},
                       {"dept", DataType::kString},
                       {"age", DataType::kInt64},
                       {"salary", DataType::kDouble}},
                      {{std::string("ann"), std::string("db"), int64_t{30}, 100.0},
                       {std::string("bob"), std::string("ml"), int64_t{40}, 120.0},
                       {std::string("cat"), std::string("db"), int64_t{25}, 90.0},
                       {std::string("dan"), std::string("ml"), int64_t{35}, 110.0}},
                      "people");
}

// --- expressions ------------------------------------------------------------

TEST(Expression, ArithmeticAndTypes) {
  const Relation r = People();
  const auto e = Expr::Binary("*", Expr::Column("salary"),
                              Expr::LiteralInt(2));
  const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
  EXPECT_EQ(be.type(), DataType::kDouble);
  EXPECT_EQ(ValueToDouble(be.Evaluate(r).ValueAt(0)), 200.0);
  // Integer arithmetic stays integral except division.
  const auto ie = Expr::Binary("+", Expr::Column("age"), Expr::LiteralInt(1));
  EXPECT_EQ(Bind(ie, r.schema()).ValueOrDie().type(), DataType::kInt64);
  const auto de = Expr::Binary("/", Expr::Column("age"), Expr::LiteralInt(2));
  EXPECT_EQ(Bind(de, r.schema()).ValueOrDie().type(), DataType::kDouble);
}

TEST(Expression, ComparisonsAndLogic) {
  const Relation r = People();
  const auto e = Expr::Binary(
      "AND",
      Expr::Binary(">", Expr::Column("age"), Expr::LiteralInt(28)),
      Expr::Binary("=", Expr::Column("dept"), Expr::LiteralString("db")));
  const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
  const rel::ExprColumn c = be.Evaluate(r);
  EXPECT_TRUE(c.TruthAt(0));   // ann: 30, db
  EXPECT_FALSE(c.TruthAt(1));  // bob: ml
  EXPECT_FALSE(c.TruthAt(2));  // cat: 25
  const auto ne = Expr::Unary("NOT", e);
  EXPECT_FALSE(Bind(ne, r.schema()).ValueOrDie().Evaluate(r).TruthAt(0));
}

TEST(Expression, Functions) {
  const Relation r = People();
  const auto e = Expr::Call("SQRT", {Expr::Column("salary")});
  EXPECT_NEAR(
      ValueToDouble(Bind(e, r.schema()).ValueOrDie().Evaluate(r).ValueAt(0)),
      10.0, 1e-12);
  const auto p = Expr::Call(
      "POW", {Expr::LiteralDouble(2.0), Expr::LiteralDouble(10.0)});
  EXPECT_NEAR(
      ValueToDouble(Bind(p, r.schema()).ValueOrDie().Evaluate(r).ValueAt(0)),
      1024.0, 1e-12);
}

TEST(Expression, BindErrors) {
  const Relation r = People();
  EXPECT_STATUS(kKeyError, Bind(Expr::Column("nope"), r.schema()));
  EXPECT_STATUS(kTypeError,
                Bind(Expr::Binary("+", Expr::Column("name"),
                                  Expr::LiteralInt(1)),
                     r.schema()));
  EXPECT_STATUS(kInvalidArgument,
                Bind(Expr::Call("NOSUCH", {}), r.schema()));
  EXPECT_STATUS(kTypeError,
                Bind(Expr::Call("SQRT", {Expr::Column("name")}), r.schema()));
}

TEST(Expression, PositionalColumnRefs) {
  const Relation r = People();
  const rel::BoundExpr be = Bind(Expr::ColumnAt(2), r.schema()).ValueOrDie();
  EXPECT_EQ(ValueToDouble(be.Evaluate(r).ValueAt(1)), 40.0);
  EXPECT_STATUS(kKeyError, Bind(Expr::ColumnAt(9), r.schema()));
}

// --- the column evaluator over every column representation -------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Columns i (INT), d (DOUBLE), s (STRING). d holds a NaN and zeros, so a
/// sparse copy stores only some of its rows; i holds 2^53 + 1, which has no
/// exact double.
const std::vector<int64_t> kI = {0, 3, -7, kTwo53 + 1, 5};
const std::vector<double> kD = {0.0, kNaN, 2.5, -1.0, 0.0};
const std::vector<std::string> kS = {"", "a", "b", "abc", "0"};

Relation Make3(BatPtr i, BatPtr d, BatPtr s) {
  return Relation::Make(Schema::Make({{"i", DataType::kInt64},
                                      {"d", DataType::kDouble},
                                      {"s", DataType::kString}})
                            .ValueOrDie(),
                        {std::move(i), std::move(d), std::move(s)})
      .ValueOrDie();
}

/// The kI/kD/kS rows in every representation the evaluator reads: malloc
/// TypedBats, a DoubleSliceBat view, a SparseDoubleBat, and out-of-core
/// PagedBats, pinned for the fixture's lifetime.
class Representations : public ::testing::Test {
 protected:
  void SetUp() override {
    const Relation typed =
        Make3(MakeInt64Bat(kI), MakeDoubleBat(kD), MakeStringBat(kS));
    variants_.emplace_back("typed", typed);

    std::vector<double> padded = {42.0};
    padded.insert(padded.end(), kD.begin(), kD.end());
    const BatPtr owner = MakeDoubleBat(std::move(padded));
    variants_.emplace_back(
        "slice",
        Make3(typed.column(0),
              std::make_shared<DoubleSliceBat>(
                  owner, owner->ContiguousDoubleData() + 1,
                  static_cast<int64_t>(kD.size())),
              typed.column(2)));

    variants_.emplace_back(
        "sparse", Make3(typed.column(0), SparseDoubleBat::FromDense(kD),
                        typed.column(2)));

    store_ = PagedStore::Open(dir_.path).ValueOrDie();
    const Relation paged = store_->SaveTable("t", typed).ValueOrDie();
    EXPECT_FALSE(paged.column(0)->StableData());
    EXPECT_FALSE(paged.column(1)->StableData());
    pins_.Pin(paged).Abort();
    variants_.emplace_back("paged", paged);
  }

  /// Evaluates `e` on every representation and expects `want` row by row
  /// (NaN matches NaN), with the bound type and the relation's row count.
  void ExpectEverywhere(const ExprPtr& e, const std::vector<Value>& want) {
    for (const auto& [name, r] : variants_) {
      SCOPED_TRACE(name + ": " + e->ToString());
      const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
      const rel::ExprColumn c = be.Evaluate(r);
      EXPECT_EQ(c.type(), be.type());
      ASSERT_EQ(c.size(), r.num_rows());
      ASSERT_EQ(want.size(), static_cast<size_t>(r.num_rows()));
      for (int64_t row = 0; row < c.size(); ++row) {
        EXPECT_TRUE(SameValue(c.ValueAt(row), want[static_cast<size_t>(row)]))
            << "row " << row << ": got " << ValueToString(c.ValueAt(row))
            << ", want " << ValueToString(want[static_cast<size_t>(row)]);
      }
    }
  }

  static bool SameValue(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    if (a.index() == 1 && std::isnan(std::get<double>(a))) {
      return std::isnan(std::get<double>(b));
    }
    return a == b;
  }

  TempDirectory dir_;  // first, so it is removed after everything in it closes
  std::vector<std::pair<std::string, Relation>> variants_;
  std::shared_ptr<PagedStore> store_;
  PinnedRelations pins_;
};

std::vector<Value> Ints(std::vector<int64_t> v) {
  return std::vector<Value>(v.begin(), v.end());
}
std::vector<Value> Doubles(std::vector<double> v) {
  return std::vector<Value>(v.begin(), v.end());
}

TEST_F(Representations, ColumnsReadBack) {
  ExpectEverywhere(Expr::Column("i"), Ints(kI));
  ExpectEverywhere(Expr::Column("d"), Doubles(kD));
  ExpectEverywhere(Expr::Column("s"),
                   std::vector<Value>(kS.begin(), kS.end()));
}

TEST_F(Representations, NaNUnderEveryComparison) {
  // Row 1 is NaN: only the negated forms (<=, >=, <>) are true there.
  const auto cmp = [](const char* op) {
    return Expr::Binary(op, Expr::Column("d"), Expr::LiteralDouble(1.0));
  };
  ExpectEverywhere(cmp("<"), Ints({1, 0, 0, 1, 1}));
  ExpectEverywhere(cmp("<="), Ints({1, 1, 0, 1, 1}));
  ExpectEverywhere(cmp(">"), Ints({0, 0, 1, 0, 0}));
  ExpectEverywhere(cmp(">="), Ints({0, 1, 1, 0, 0}));
  ExpectEverywhere(cmp("="), Ints({0, 0, 0, 0, 0}));
  ExpectEverywhere(cmp("<>"), Ints({1, 1, 1, 1, 1}));
  ExpectEverywhere(cmp("=="), Ints({0, 0, 0, 0, 0}));
  ExpectEverywhere(cmp("!="), Ints({1, 1, 1, 1, 1}));
  // NaN is not equal to itself.
  ExpectEverywhere(Expr::Binary("=", Expr::Column("d"), Expr::Column("d")),
                   Ints({1, 0, 1, 1, 1}));
}

TEST_F(Representations, ComparisonsMatchTheValueOrder) {
  // Every comparison of every column pair agrees with ValueLess and
  // ValueEquals on the boxed cells.
  const Relation& typed = variants_[0].second;
  const char* const ops[] = {"<", "<=", ">", ">=", "=", "<>"};
  for (const char* lhs : {"i", "d", "s"}) {
    for (const char* rhs : {"i", "d", "s"}) {
      for (const char* op : ops) {
        std::vector<Value> want;
        for (int64_t row = 0; row < typed.num_rows(); ++row) {
          const Value a = typed.Get(row, typed.ColumnIndex(lhs).ValueOrDie());
          const Value b = typed.Get(row, typed.ColumnIndex(rhs).ValueOrDie());
          const std::string o = op;
          const bool v = o == "<"    ? ValueLess(a, b)
                         : o == "<=" ? !ValueLess(b, a)
                         : o == ">"  ? ValueLess(b, a)
                         : o == ">=" ? !ValueLess(a, b)
                         : o == "="  ? ValueEquals(a, b)
                                     : !ValueEquals(a, b);
          want.emplace_back(int64_t{v});
        }
        ExpectEverywhere(
            Expr::Binary(op, Expr::Column(lhs), Expr::Column(rhs)), want);
      }
    }
  }
}

TEST_F(Representations, Int64AboveTwoTo53ComparesAsDouble) {
  // 2^53 + 1 rounds to 2^53 as a double, so it compares equal to 2^53 ...
  ExpectEverywhere(
      Expr::Binary("=", Expr::Column("i"), Expr::LiteralInt(kTwo53)),
      Ints({0, 0, 0, 1, 0}));
  ExpectEverywhere(
      Expr::Binary("<", Expr::LiteralInt(kTwo53), Expr::Column("i")),
      Ints({0, 0, 0, 0, 0}));
  // ... while integer arithmetic stays exact.
  ExpectEverywhere(Expr::Binary("+", Expr::Column("i"), Expr::LiteralInt(1)),
                   Ints({1, 4, -6, kTwo53 + 2, 6}));
  ExpectEverywhere(Expr::Binary("-", Expr::Column("i"), Expr::Column("i")),
                   Ints({0, 0, 0, 0, 0}));
  ExpectEverywhere(Expr::Binary("*", Expr::Column("i"), Expr::LiteralInt(-2)),
                   Ints({0, -6, 14, -2 * (kTwo53 + 1), -10}));
}

TEST_F(Representations, ModuloAndDivisionByZero) {
  ExpectEverywhere(Expr::Binary("%", Expr::Column("i"), Expr::LiteralInt(0)),
                   Ints({0, 0, 0, 0, 0}));
  ExpectEverywhere(Expr::Binary("%", Expr::Column("i"), Expr::LiteralInt(2)),
                   Ints({0, 1, -1, 1, 1}));
  ExpectEverywhere(Expr::Binary("/", Expr::Column("i"), Expr::LiteralInt(0)),
                   Doubles({0.0, 0.0, 0.0, 0.0, 0.0}));
  ExpectEverywhere(Expr::Binary("/", Expr::Column("i"), Expr::LiteralInt(2)),
                   Doubles({0.0, 1.5, -3.5, static_cast<double>(kTwo53) / 2,
                            2.5}));
  // Division and modulo by a zero column (d is 0 on rows 0 and 4).
  ExpectEverywhere(Expr::Binary("/", Expr::LiteralDouble(1.0),
                                Expr::Column("d")),
                   Doubles({0.0, kNaN, 0.4, -1.0, 0.0}));
  ExpectEverywhere(Expr::Binary("%", Expr::Column("i"), Expr::Column("d")),
                   Doubles({0.0, kNaN, std::fmod(-7.0, 2.5), 0.0, 0.0}));
}

TEST_F(Representations, NotAndUnaryMinus) {
  ExpectEverywhere(Expr::Unary("NOT", Expr::Column("i")),
                   Ints({1, 0, 0, 0, 0}));
  // NaN is true, so NOT NaN is false.
  ExpectEverywhere(Expr::Unary("NOT", Expr::Column("d")),
                   Ints({1, 0, 0, 0, 1}));
  ExpectEverywhere(Expr::Unary("-", Expr::Column("i")),
                   Ints({0, -3, 7, -(kTwo53 + 1), -5}));
  ExpectEverywhere(Expr::Unary("-", Expr::Column("d")),
                   Doubles({-0.0, kNaN, -2.5, 1.0, -0.0}));
  ExpectEverywhere(Expr::Call("ABS", {Expr::Unary("-", Expr::Column("i"))}),
                   Doubles({0.0, 3.0, 7.0, static_cast<double>(kTwo53), 5.0}));
}

TEST_F(Representations, StringTruthinessAndMixedOrdering) {
  // Strings are true when non-empty ("0" included).
  ExpectEverywhere(Expr::Unary("NOT", Expr::Column("s")),
                   Ints({1, 0, 0, 0, 0}));
  ExpectEverywhere(
      Expr::Binary("AND", Expr::Column("s"), Expr::Column("i")),
      Ints({0, 1, 1, 1, 1}));
  ExpectEverywhere(Expr::Binary("OR", Expr::Column("s"), Expr::Column("d")),
                   Ints({0, 1, 1, 1, 1}));
  // Numerics order before strings and never equal one.
  ExpectEverywhere(Expr::Binary("<", Expr::Column("i"), Expr::Column("s")),
                   Ints({1, 1, 1, 1, 1}));
  ExpectEverywhere(
      Expr::Binary(">=", Expr::Column("s"), Expr::LiteralDouble(kNaN)),
      Ints({1, 1, 1, 1, 1}));
  ExpectEverywhere(
      Expr::Binary("=", Expr::LiteralString("0"), Expr::LiteralInt(0)),
      Ints({0, 0, 0, 0, 0}));
  ExpectEverywhere(
      Expr::Binary("<", Expr::Column("s"), Expr::LiteralString("ab")),
      Ints({1, 1, 0, 0, 1}));
}

TEST_F(Representations, ConstantOnlyExpressions) {
  const auto sum = Expr::Binary("+", Expr::LiteralInt(1), Expr::LiteralInt(2));
  ExpectEverywhere(sum, Ints({3, 3, 3, 3, 3}));
  ExpectEverywhere(Expr::Call("POW", {Expr::LiteralInt(2), Expr::LiteralInt(3)}),
                   Doubles({8.0, 8.0, 8.0, 8.0, 8.0}));
  for (const auto& [name, r] : variants_) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(Bind(sum, r.schema()).ValueOrDie().Evaluate(r).broadcast());
    // A constant predicate keeps every row or none.
    EXPECT_EQ(rel::Select(r, Expr::Binary(">", sum, Expr::LiteralInt(0)))
                  .ValueOrDie()
                  .num_rows(),
              r.num_rows());
    EXPECT_EQ(rel::Select(r, Expr::LiteralString("")).ValueOrDie().num_rows(),
              0);
    // A constant projection is broadcast to every row.
    const Relation p =
        rel::Project(r, {{Expr::LiteralString("k"), "k"}, {sum, "three"}})
            .ValueOrDie();
    ASSERT_EQ(p.num_rows(), r.num_rows());
    EXPECT_EQ(ValueToString(p.Get(r.num_rows() - 1, 0)), "k");
    EXPECT_EQ(std::get<int64_t>(p.Get(r.num_rows() - 1, 1)), 3);
  }
}

TEST_F(Representations, SelectAndProjectAgree) {
  // σ and π over each representation return the typed variant's answer.
  const auto pred = Expr::Binary(
      "OR", Expr::Binary(">=", Expr::Column("d"), Expr::LiteralInt(0)),
      Expr::Binary("<", Expr::Column("i"), Expr::LiteralInt(0)));
  const auto item = Expr::Binary("*", Expr::Column("i"), Expr::Column("d"));
  const Relation want_sel = rel::Select(variants_[0].second, pred).ValueOrDie();
  ASSERT_EQ(want_sel.num_rows(), 4);  // all but row 3; NaN >= 0 holds
  for (const auto& [name, r] : variants_) {
    SCOPED_TRACE(name);
    const Relation sel = rel::Select(r, pred).ValueOrDie();
    EXPECT_EQ(sel.num_rows(), want_sel.num_rows());
    for (int64_t row = 0; row < sel.num_rows(); ++row) {
      EXPECT_EQ(std::get<int64_t>(sel.Get(row, 0)),
                std::get<int64_t>(want_sel.Get(row, 0)));
    }
    const Relation p = rel::Project(r, {{item, "x"}}).ValueOrDie();
    EXPECT_EQ(p.schema().attribute(0).type, DataType::kDouble);
    EXPECT_EQ(ValueToDouble(p.Get(2, 0)), -17.5);
  }
}

TEST(Expression, ZeroRowRelations) {
  const Relation empty = Make3(MakeInt64Bat({}), MakeDoubleBat({}),
                               MakeStringBat({}));
  const BatPtr owner = MakeDoubleBat({1.0});
  const Relation slice =
      Make3(MakeInt64Bat({}),
            std::make_shared<DoubleSliceBat>(
                owner, owner->ContiguousDoubleData(), int64_t{0}),
            MakeStringBat({}));
  const Relation sparse = Make3(MakeInt64Bat({}), SparseDoubleBat::FromDense({}),
                                MakeStringBat({}));
  const TempDirectory dir;
  const auto store = PagedStore::Open(dir.path).ValueOrDie();
  const Relation paged = store->SaveTable("t", empty).ValueOrDie();
  PinnedRelations pins;
  ASSERT_OK(pins.Pin(paged));
  const std::vector<ExprPtr> exprs = {
      Expr::Binary("+", Expr::Column("i"), Expr::LiteralInt(1)),
      Expr::Binary("+", Expr::LiteralInt(1), Expr::LiteralInt(2)),
      Expr::Binary(">", Expr::Column("d"), Expr::LiteralInt(0)),
      Expr::Binary("AND", Expr::Column("s"), Expr::Column("d")),
      Expr::Unary("-", Expr::Column("d")),
      Expr::Call("SQRT", {Expr::Column("i")})};
  for (const Relation& r : {empty, slice, sparse, paged}) {
    for (const ExprPtr& e : exprs) {
      SCOPED_TRACE(e->ToString());
      const rel::BoundExpr be = Bind(e, r.schema()).ValueOrDie();
      const rel::ExprColumn c = be.Evaluate(r);
      EXPECT_EQ(c.size(), 0);
      EXPECT_EQ(c.type(), be.type());
      EXPECT_TRUE(c.TrueRows().empty());
      const Relation sel = rel::Select(r, e).ValueOrDie();
      EXPECT_EQ(sel.num_rows(), 0);
      const Relation p = rel::Project(r, {{e, "x"}}).ValueOrDie();
      EXPECT_EQ(p.num_rows(), 0);
      EXPECT_EQ(p.schema().attribute(0).type, be.type());
    }
  }
}

// --- operators -----------------------------------------------------------------

TEST(Operators, SelectFiltersRows) {
  const Relation out =
      rel::Select(People(), Expr::Binary(">=", Expr::Column("salary"),
                                         Expr::LiteralDouble(110)))
          .ValueOrDie();
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(Operators, SelectOnEmptyRelation) {
  const Relation empty = MakeRelation({{"x", DataType::kInt64}}, {});
  const Relation out =
      rel::Select(empty, Expr::Binary(">", Expr::Column("x"),
                                      Expr::LiteralInt(0)))
          .ValueOrDie();
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(Operators, ProjectComputesAndShares) {
  const Relation people = People();
  const Relation out =
      rel::Project(people, {{Expr::Column("name"), "who"},
                            {Expr::Binary("/", Expr::Column("salary"),
                                          Expr::LiteralDouble(10)),
                             "k"}})
          .ValueOrDie();
  EXPECT_EQ(out.schema().Names(), (std::vector<std::string>{"who", "k"}));
  EXPECT_EQ(ValueToDouble(out.Get(1, 1)), 12.0);
  // Bare column projection shares the underlying BAT (no copy).
  EXPECT_EQ(out.column(0).get(), people.column(0).get());
}

TEST(Operators, HashJoinInner) {
  const Relation dept = MakeRelation(
      {{"dept", DataType::kString}, {"floor", DataType::kInt64}},
      {{std::string("db"), int64_t{3}}, {std::string("ml"), int64_t{5}}});
  const Relation out =
      rel::HashJoin(People(), dept, {"dept"}, {"dept"}).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 4);
  // Right-side duplicate name suffixed.
  EXPECT_TRUE(out.schema().Contains("dept_2"));
}

TEST(Operators, HashJoinNumericKeyWidening) {
  const Relation l = MakeRelation({{"k", DataType::kInt64}}, {{int64_t{1}}});
  const Relation r = MakeRelation({{"k2", DataType::kDouble}}, {{1.0}});
  const Relation out = rel::HashJoin(l, r, {"k"}, {"k2"}).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 1);
}

TEST(Operators, HashJoinEmptyResult) {
  const Relation l = MakeRelation({{"k", DataType::kInt64}}, {{int64_t{1}}});
  const Relation r = MakeRelation({{"j", DataType::kInt64}}, {{int64_t{2}}});
  EXPECT_EQ(rel::HashJoin(l, r, {"k"}, {"j"}).ValueOrDie().num_rows(), 0);
}

TEST(Operators, CrossJoin) {
  const Relation l = MakeRelation({{"a", DataType::kInt64}},
                                  {{int64_t{1}}, {int64_t{2}}});
  const Relation r = MakeRelation({{"b", DataType::kInt64}},
                                  {{int64_t{10}}, {int64_t{20}}});
  const Relation out = rel::CrossJoin(l, r).ValueOrDie();
  EXPECT_EQ(out.num_rows(), 4);
}

TEST(Operators, AggregateGrouped) {
  const Relation out =
      rel::Aggregate(People(), {"dept"},
                     {{"COUNT", "", "n"},
                      {"AVG", "salary", "avg_sal"},
                      {"MIN", "age", "min_age"},
                      {"MAX", "age", "max_age"},
                      {"SUM", "salary", "sum_sal"}})
          .ValueOrDie();
  const Relation sorted = rel::SortBy(out, {"dept"}).ValueOrDie();
  ASSERT_EQ(sorted.num_rows(), 2);
  EXPECT_EQ(ValueToString(sorted.Get(0, 0)), "db");
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 1)), 2.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 2)), 95.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 3)), 25.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 4)), 30.0);
  EXPECT_EQ(ValueToDouble(sorted.Get(0, 5)), 190.0);
}

TEST(Operators, AggregateGlobalAndEmpty) {
  const Relation global =
      rel::Aggregate(People(), {}, {{"COUNT", "", "n"}}).ValueOrDie();
  ASSERT_EQ(global.num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(global.Get(0, 0)), 4);
  const Relation empty = MakeRelation({{"x", DataType::kDouble}}, {});
  const Relation ge =
      rel::Aggregate(empty, {}, {{"COUNT", "", "n"}}).ValueOrDie();
  ASSERT_EQ(ge.num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(ge.Get(0, 0)), 0);
}

TEST(Operators, AggregateErrors) {
  EXPECT_STATUS(kInvalidArgument,
                rel::Aggregate(People(), {}, {{"AVG", "", "x"}}));
  EXPECT_STATUS(kTypeError,
                rel::Aggregate(People(), {}, {{"AVG", "name", "x"}}));
  EXPECT_STATUS(kInvalidArgument,
                rel::Aggregate(People(), {}, {{"MEDIAN", "age", "x"}}));
}

TEST(Operators, RenameAndRenameAll) {
  const Relation out = rel::Rename(People(), "age", "years").ValueOrDie();
  EXPECT_TRUE(out.schema().Contains("years"));
  EXPECT_FALSE(out.schema().Contains("age"));
  EXPECT_STATUS(kKeyError, rel::Rename(People(), "nope", "x"));
  EXPECT_STATUS(kInvalidArgument, rel::RenameAll(People(), {"just_one"}));
}

TEST(Operators, DistinctRemovesDuplicateRows) {
  const Relation r = MakeRelation(
      {{"a", DataType::kInt64}, {"b", DataType::kString}},
      {{int64_t{1}, std::string("x")},
       {int64_t{1}, std::string("x")},
       {int64_t{1}, std::string("y")}});
  EXPECT_EQ(rel::Distinct(r).ValueOrDie().num_rows(), 2);
}

TEST(Operators, SortByMultipleKeys) {
  const Relation out = rel::SortBy(People(), {"dept", "age"}).ValueOrDie();
  EXPECT_EQ(ValueToString(out.Get(0, 0)), "cat");  // db, 25
  EXPECT_EQ(ValueToString(out.Get(1, 0)), "ann");  // db, 30
  EXPECT_EQ(ValueToString(out.Get(2, 0)), "dan");  // ml, 35
}

TEST(Operators, UnionAllAndLimit) {
  const Relation r = People();
  const Relation u = rel::UnionAll(r, r).ValueOrDie();
  EXPECT_EQ(u.num_rows(), 8);
  EXPECT_EQ(rel::Limit(u, 2, 3).ValueOrDie().num_rows(), 3);
  EXPECT_EQ(rel::Limit(u, 7, 5).ValueOrDie().num_rows(), 1);
  const Relation other = MakeRelation({{"z", DataType::kInt64}}, {});
  EXPECT_STATUS(kInvalidArgument, rel::UnionAll(r, other));
}

TEST(Operators, PivotCountBuildsWideTable) {
  const Relation pubs = MakeRelation(
      {{"Author", DataType::kString}, {"Conf", DataType::kString}},
      {{std::string("ann"), std::string("sigmod")},
       {std::string("ann"), std::string("sigmod")},
       {std::string("ann"), std::string("vldb")},
       {std::string("bob"), std::string("vldb")}});
  const Relation wide =
      rel::PivotCount(pubs, "Author", "Conf").ValueOrDie();
  EXPECT_EQ(wide.schema().Names(),
            (std::vector<std::string>{"Author", "sigmod", "vldb"}));
  ASSERT_EQ(wide.num_rows(), 2);
  EXPECT_EQ(ValueToString(wide.Get(0, 0)), "ann");
  EXPECT_EQ(ValueToDouble(wide.Get(0, 1)), 2.0);
  EXPECT_EQ(ValueToDouble(wide.Get(0, 2)), 1.0);
  EXPECT_EQ(ValueToDouble(wide.Get(1, 1)), 0.0);
}

}  // namespace
}  // namespace rma
