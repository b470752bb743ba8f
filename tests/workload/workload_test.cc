// Workload generators and CSV I/O.
#include <gtest/gtest.h>

#include <cstdio>

#include "rel/operators.h"
#include "storage/bat_ops.h"
#include "storage/sparse_bat.h"
#include "test_util.h"
#include "workload/bixi.h"
#include "workload/csv.h"
#include "workload/dblp.h"
#include "workload/synthetic.h"

namespace rma::workload {
namespace {

namespace rel = ::rma::rel;

TEST(Synthetic, UniformRelationShapeAndKeys) {
  const Relation r = UniformRelation(100, 3, 7);
  EXPECT_EQ(r.num_rows(), 100);
  EXPECT_EQ(r.num_columns(), 4);
  EXPECT_TRUE(bat_ops::IsKey({r.column(0)}));
  const Relation sorted = UniformRelation(50, 1, 7, 0, 1, true);
  EXPECT_TRUE(bat_ops::IsSorted({sorted.column(0)}));
}

TEST(Synthetic, DeterministicPerSeed) {
  const Relation a = UniformRelation(20, 2, 9);
  const Relation b = UniformRelation(20, 2, 9);
  EXPECT_TRUE(RelationsEqualOrdered(a, b));
}

TEST(Synthetic, ManyOrderColumnsSharedKeys) {
  const Relation r = ManyOrderColumnsRelation(50, 4, 1, 2);
  const Relation s = ManyOrderColumnsRelation(50, 4, 1, 3);
  EXPECT_EQ(r.num_columns(), 5);
  // Same keys (seeded identically), different values.
  std::vector<BatPtr> rk;
  std::vector<BatPtr> sk;
  for (int c = 0; c < 4; ++c) {
    rk.push_back(r.column(c));
    sk.push_back(s.column(c));
  }
  EXPECT_TRUE(bat_ops::AlignByKey(sk, rk).ok());
  EXPECT_TRUE(bat_ops::IsKey(rk));
}

TEST(Synthetic, SparseRelationZeroShare) {
  const Relation r = SparseRelation(2000, 2, 0.7, 5);
  const auto col = ToDoubleVector(*r.column(1));
  int64_t zeros = 0;
  for (double v : col) zeros += (v == 0.0);
  EXPECT_GT(zeros, 1200);
  EXPECT_LT(zeros, 1600);
  const Relation compressed = CompressRelation(r, 0.5);
  EXPECT_NE(nullptr, dynamic_cast<const SparseDoubleBat*>(
                         compressed.column(1).get()));
  // Contents unchanged.
  EXPECT_EQ(ToDoubleVector(*compressed.column(1)), col);
}

TEST(Bixi, SchemaAndDistributions) {
  const BixiData data = GenerateBixi(5000, 50, 3);
  EXPECT_EQ(data.stations.num_rows(), 50);
  EXPECT_EQ(data.trips.num_rows(), 5000);
  EXPECT_EQ(data.trips.schema().attribute(1).type, DataType::kString);
  // Some station pair must be popular enough for the >= 50 filter.
  const Relation agg =
      rel::Aggregate(data.trips, {"start_station", "end_station"},
                     {{"COUNT", "", "n"}})
          .ValueOrDie();
  int64_t popular = 0;
  for (int64_t i = 0; i < agg.num_rows(); ++i) {
    if (std::get<int64_t>(agg.Get(i, 2)) >= 50) ++popular;
  }
  EXPECT_GT(popular, 0);
  // Timestamps look like timestamps.
  const std::string ts = ValueToString(data.trips.Get(0, 1));
  EXPECT_EQ(ts.size(), 19u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[13], ':');
}

TEST(Bixi, JourneysPopularEdges) {
  const Relation j = GenerateJourneys(20000, 50, 4);
  EXPECT_EQ(j.num_columns(), 6);
  const Relation agg = rel::Aggregate(j, {"s1", "s2"}, {{"COUNT", "", "n"}})
                           .ValueOrDie();
  int64_t popular = 0;
  for (int64_t i = 0; i < agg.num_rows(); ++i) {
    if (std::get<int64_t>(agg.Get(i, 2)) >= 50) ++popular;
  }
  EXPECT_GT(popular, 10);           // the commuter edges
  EXPECT_LE(popular, agg.num_rows());
}

TEST(Bixi, JourneysChainMeetsInStation) {
  // Consecutive trips of one rider connect: s2 of seq j is s1 of seq j+1 —
  // the invariant the Fig. 16 chaining joins rely on.
  const Relation j = GenerateJourneys(1000, 50, 4);
  for (int64_t i = 0; i + 1 < j.num_rows(); ++i) {
    const int64_t rider = std::get<int64_t>(j.Get(i, 1));
    const int64_t rider_next = std::get<int64_t>(j.Get(i + 1, 1));
    if (rider != rider_next) continue;
    EXPECT_EQ(std::get<int64_t>(j.Get(i + 1, 2)),
              std::get<int64_t>(j.Get(i, 2)) + 1);
    EXPECT_EQ(std::get<int64_t>(j.Get(i + 1, 3)),
              std::get<int64_t>(j.Get(i, 4)));
  }
}

TEST(Bixi, TripCountsShape) {
  const Relation t = GenerateTripCounts(100, 10, 5);
  EXPECT_EQ(t.num_rows(), 100);
  EXPECT_EQ(t.num_columns(), 11);
  EXPECT_TRUE(bat_ops::IsKey({t.column(0)}));
}

TEST(Dblp, PublicationsAndRanking) {
  const DblpData data = GenerateDblp(500, 20, 6);
  EXPECT_EQ(data.publications.num_rows(), 500);
  EXPECT_EQ(data.publications.num_columns(), 21);
  EXPECT_EQ(data.ranking.num_rows(), 20);
  // Counts are non-negative and not all zero.
  double total = 0;
  for (int c = 1; c <= 20; ++c) {
    for (double v : ToDoubleVector(*data.publications.column(c))) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
  }
  EXPECT_GT(total, 0.0);
}

TEST(Dblp, PublicationListPivots) {
  const Relation list = GeneratePublicationList(300, 40, 8, 7);
  const Relation wide =
      rel::PivotCount(list, "Author", "Conf").ValueOrDie();
  EXPECT_LE(wide.num_rows(), 40);
  EXPECT_LE(wide.num_columns(), 9);
  // Total count preserved.
  double total = 0;
  for (int c = 1; c < wide.num_columns(); ++c) {
    for (double v : ToDoubleVector(*wide.column(c))) total += v;
  }
  EXPECT_EQ(total, 300.0);
}

TEST(Csv, RoundTrip) {
  const Relation r = testing::UsersRelation();
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/roundtrip.csv";
  ASSERT_OK(WriteCsv(r, path));
  const Relation back = ReadCsv(path, r.schema()).ValueOrDie();
  EXPECT_TRUE(RelationsEqualOrdered(r, back));
}

TEST(Csv, QuotingHandled) {
  RelationBuilder b(Schema::Make({{"s", DataType::kString},
                                  {"v", DataType::kInt64}})
                        .ValueOrDie());
  b.AppendRow({std::string("a,b"), int64_t{1}}).Abort();
  b.AppendRow({std::string("quote\"inside"), int64_t{2}}).Abort();
  const Relation r = b.Finish().ValueOrDie();
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/quoting.csv";
  ASSERT_OK(WriteCsv(r, path));
  const Relation back = ReadCsv(path, r.schema()).ValueOrDie();
  EXPECT_TRUE(RelationsEqualOrdered(r, back));
}

TEST(Csv, Errors) {
  EXPECT_STATUS(kIoError, ReadCsv("/nonexistent/file.csv",
                                  Schema::Make({{"a", DataType::kInt64}})
                                      .ValueOrDie()));
  const Relation r = testing::UsersRelation();
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/schema.csv";
  ASSERT_OK(WriteCsv(r, path));
  EXPECT_STATUS(kInvalidArgument,
                ReadCsv(path, Schema::Make({{"x", DataType::kInt64}})
                                  .ValueOrDie()));
}

TEST(Csv, ParseErrorsCite1BasedLineNumbers) {
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/lines.csv";
  const Schema schema =
      Schema::Make({{"a", DataType::kInt64}, {"b", DataType::kDouble}})
          .ValueOrDie();
  {
    // Header is physical line 1; the arity error sits on line 4.
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n1,2.5\n2,3.5\n3\n", f);
    std::fclose(f);
    const auto r = ReadCsv(path, schema);
    EXPECT_STATUS(kParseError, r);
    EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
        << r.status().ToString();
  }
  {
    // Unparseable numeric cell names the line and the column.
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n1,2.5\nnope,3.5\n", f);
    std::fclose(f);
    const auto r = ReadCsv(path, schema);
    EXPECT_STATUS(kParseError, r);
    EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("column 'a'"), std::string::npos)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace rma::workload
