#include <gtest/gtest.h>

#include "table/table.h"
#include "test_support.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::MakeIntTable;

TEST(HeadTest, TakesPrefixAndPreservesRowIds) {
  TablePtr t = MakeIntTable({"v"}, {{10}, {20}, {30}, {40}});
  TablePtr h = t->Head(2);
  ASSERT_EQ(h->NumRows(), 2);
  EXPECT_EQ(h->column(0).GetInt(1), 20);
  EXPECT_EQ(h->RowId(1), 1);
  EXPECT_EQ(t->Head(100)->NumRows(), 4);
  EXPECT_EQ(t->Head(0)->NumRows(), 0);
}

TEST(TopKTest, DescendingByDefault) {
  TablePtr t = MakeIntTable({"v"}, {{3}, {9}, {1}, {7}, {5}});
  auto top = t->TopK("v", 2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ((*top)->NumRows(), 2);
  EXPECT_EQ((*top)->column(0).GetInt(0), 9);
  EXPECT_EQ((*top)->column(0).GetInt(1), 7);
}

TEST(TopKTest, AscendingAndOversized) {
  TablePtr t = MakeIntTable({"v"}, {{3}, {9}, {1}});
  auto bottom = t->TopK("v", 10, /*ascending=*/true);
  ASSERT_TRUE(bottom.ok());
  ASSERT_EQ((*bottom)->NumRows(), 3);
  EXPECT_EQ((*bottom)->column(0).GetInt(0), 1);
  EXPECT_EQ((*bottom)->column(0).GetInt(2), 9);
}

TEST(TopKTest, MatchesOrderByHead) {
  Rng rng(5);
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({rng.UniformInt(0, 50)});
  TablePtr t = MakeIntTable({"v"}, rows);
  auto topk = t->TopK("v", 25);
  auto ref = t->OrderBy({"v"}, {false});
  ASSERT_TRUE(topk.ok());
  ASSERT_TRUE(ref.ok());
  TablePtr ref_head = (*ref)->Head(25);
  EXPECT_TRUE((*topk)->ContentEquals(*ref_head));
  // Ties broken by position: row ids must match too.
  EXPECT_EQ((*topk)->row_ids(), ref_head->row_ids());
}

// Heavy key ties over every column type: the bounded selection must equal
// both the stable full sort (OrderBy + Head) and the comparison fallback
// (radix disabled), row ids included, for k = 0, small k, k >= n and both
// directions, at several thread counts.
TEST(TopKTest, TiesBreakByRowLikeFullSortAndFallback) {
  Schema schema{{"i", ColumnType::kInt},
                {"f", ColumnType::kFloat},
                {"s", ColumnType::kString}};
  TablePtr t = Table::Create(schema);
  const std::vector<std::string> vocab = {"b", "a", "c"};
  Rng rng(11);
  for (int r = 0; r < 30000; ++r) {
    RINGO_CHECK_OK(t->AppendRow({rng.UniformInt(0, 6),
                                 static_cast<double>(rng.UniformInt(-2, 2)),
                                 vocab[rng.UniformInt(0, 2)]}));
  }
  for (const std::string col : {"i", "f", "s"}) {
    for (const bool asc : {true, false}) {
      auto full = t->OrderBy({col}, {asc});
      ASSERT_TRUE(full.ok());
      for (const int64_t k : {int64_t{0}, int64_t{1}, int64_t{37},
                              int64_t{5000}, int64_t{30000}, int64_t{40000}}) {
        const TablePtr want = (*full)->Head(k);
        for (int threads : {1, 4}) {
          const int prev = NumThreads();
          SetNumThreads(threads);
          auto fast = t->TopK(col, k, asc);
          radix::SetEnabled(false);
          auto slow = t->TopK(col, k, asc);
          radix::SetEnabled(true);
          SetNumThreads(prev);
          ASSERT_TRUE(fast.ok());
          ASSERT_TRUE(slow.ok());
          const std::string where = col + (asc ? " asc" : " desc") +
                                    " k=" + std::to_string(k) +
                                    " threads=" + std::to_string(threads);
          EXPECT_EQ((*fast)->row_ids(), want->row_ids()) << where;
          EXPECT_EQ((*slow)->row_ids(), want->row_ids()) << where;
          EXPECT_TRUE((*fast)->ContentEquals(*want)) << where;
        }
      }
    }
  }
}

TEST(TopKTest, Validation) {
  TablePtr t = MakeIntTable({"v"}, {{1}});
  EXPECT_TRUE(t->TopK("missing", 1).status().IsNotFound());
  EXPECT_TRUE(t->TopK("v", -1).status().IsInvalidArgument());
  EXPECT_EQ(t->TopK("v", 0).value()->NumRows(), 0);
}

TEST(SampleTest, TakesDistinctRowsInOrder) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i});
  TablePtr t = MakeIntTable({"v"}, rows);
  auto s = t->Sample(10, 7);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ((*s)->NumRows(), 10);
  // Distinct, ascending (original order preserved).
  for (int64_t r = 1; r < 10; ++r) {
    EXPECT_LT((*s)->column(0).GetInt(r - 1), (*s)->column(0).GetInt(r));
  }
}

TEST(SampleTest, DeterministicAndBounded) {
  TablePtr t = MakeIntTable({"v"}, {{1}, {2}, {3}});
  auto a = t->Sample(2, 5);
  auto b = t->Sample(2, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->ContentEquals(**b));
  EXPECT_EQ(t->Sample(99, 1).value()->NumRows(), 3);
  EXPECT_EQ(t->Sample(0, 1).value()->NumRows(), 0);
  EXPECT_TRUE(t->Sample(-1, 1).status().IsInvalidArgument());
}

TEST(SampleTest, RoughlyUniform) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back({i});
  TablePtr t = MakeIntTable({"v"}, rows);
  std::vector<int64_t> hits(200, 0);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    auto s = t->Sample(20, seed);
    ASSERT_TRUE(s.ok());
    for (int64_t r = 0; r < (*s)->NumRows(); ++r) {
      ++hits[(*s)->column(0).GetInt(r)];
    }
  }
  // Expected 20 hits per row over 200 draws of 10%.
  for (int64_t v = 0; v < 200; ++v) {
    EXPECT_GT(hits[v], 2) << v;
    EXPECT_LT(hits[v], 60) << v;
  }
}

TEST(ConcatTest, AppendsRows) {
  TablePtr a = MakeIntTable({"v"}, {{1}, {2}});
  TablePtr b = MakeIntTable({"v"}, {{2}, {3}});
  auto c = Table::ConcatTables(*a, *b);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ((*c)->NumRows(), 4);  // Bag semantics: duplicates kept.
  EXPECT_EQ((*c)->column(0).GetInt(2), 2);
  EXPECT_EQ((*c)->column(0).GetInt(3), 3);
}

TEST(ConcatTest, CrossPoolStringsReinterned) {
  Schema sa{{"s", ColumnType::kString}};
  Schema sb{{"s", ColumnType::kString}};
  TablePtr a = Table::Create(std::move(sa));
  TablePtr b = Table::Create(std::move(sb));
  RINGO_CHECK_OK(a->AppendRow({std::string("x")}));
  RINGO_CHECK_OK(b->AppendRow({std::string("y")}));
  auto c = Table::ConcatTables(*a, *b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(std::get<std::string>((*c)->GetValue(1, 0)), "y");
  EXPECT_EQ((*c)->pool().get(), a->pool().get());
}

TEST(ConcatTest, SchemaMismatchRejected) {
  TablePtr a = MakeIntTable({"v"}, {{1}});
  TablePtr b = MakeIntTable({"w"}, {{1}});
  EXPECT_TRUE(Table::ConcatTables(*a, *b).status().IsTypeMismatch());
}

TEST(AddColumnTest, ComputedIntColumn) {
  TablePtr t = MakeIntTable({"a", "b"}, {{1, 10}, {2, 20}});
  ASSERT_TRUE(t->AddIntColumn("sum", [](const Table& tbl, int64_t r) {
                 return tbl.column(0).GetInt(r) + tbl.column(1).GetInt(r);
               }).ok());
  ASSERT_EQ(t->num_columns(), 3);
  EXPECT_EQ(t->column(2).GetInt(0), 11);
  EXPECT_EQ(t->column(2).GetInt(1), 22);
}

TEST(AddColumnTest, ComputedFloatAndStringColumns) {
  TablePtr t = MakeIntTable({"a"}, {{4}, {9}});
  ASSERT_TRUE(t->AddFloatColumn("half", [](const Table& tbl, int64_t r) {
                 return tbl.column(0).GetInt(r) / 2.0;
               }).ok());
  ASSERT_TRUE(t->AddStringColumn("label", [](const Table& tbl, int64_t r) {
                 return "n" + std::to_string(tbl.column(0).GetInt(r));
               }).ok());
  EXPECT_DOUBLE_EQ(t->column(1).GetFloat(1), 4.5);
  EXPECT_EQ(std::get<std::string>(t->GetValue(0, 2)), "n4");
}

TEST(AddColumnTest, DuplicateNameRejected) {
  TablePtr t = MakeIntTable({"a"}, {{1}});
  EXPECT_TRUE(t->AddIntColumn("a", [](const Table&, int64_t) { return 0; })
                  .IsAlreadyExists());
  // Failed add must not leave a dangling column.
  EXPECT_EQ(t->num_columns(), 1);
}

TEST(CastColumnTest, IntToFloatAndBack) {
  TablePtr t = MakeIntTable({"v"}, {{3}, {-7}});
  ASSERT_TRUE(t->CastColumn("v", ColumnType::kFloat).ok());
  EXPECT_EQ(t->schema().column(0).type, ColumnType::kFloat);
  EXPECT_DOUBLE_EQ(t->column(0).GetFloat(1), -7.0);
  ASSERT_TRUE(t->CastColumn("v", ColumnType::kInt).ok());
  EXPECT_EQ(t->column(0).GetInt(0), 3);
}

TEST(CastColumnTest, FloatToIntTruncates) {
  Schema s{{"f", ColumnType::kFloat}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({2.9}));
  RINGO_CHECK_OK(t->AppendRow({-2.9}));
  ASSERT_TRUE(t->CastColumn("f", ColumnType::kInt).ok());
  EXPECT_EQ(t->column(0).GetInt(0), 2);
  EXPECT_EQ(t->column(0).GetInt(1), -2);
}

TEST(CastColumnTest, StringCastsRejected) {
  Schema s{{"s", ColumnType::kString}, {"i", ColumnType::kInt}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({std::string("x"), int64_t{1}}));
  EXPECT_TRUE(t->CastColumn("s", ColumnType::kInt).IsTypeMismatch());
  EXPECT_TRUE(t->CastColumn("i", ColumnType::kString).IsTypeMismatch());
  EXPECT_TRUE(t->CastColumn("missing", ColumnType::kInt).IsNotFound());
  // No-op cast succeeds.
  EXPECT_TRUE(t->CastColumn("i", ColumnType::kInt).ok());
}

}  // namespace
}  // namespace ringo
