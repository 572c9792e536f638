#include "table/table_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "stress/stress_support.h"

namespace ringo {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempFile(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    files_.push_back(path);
    return path;
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

TEST_F(TableIoTest, LoadBasicTSV) {
  const std::string path = TempFile(
      "basic.tsv", "1\t2.5\tjava\n2\t-1.0\tcpp\n3\t0\trust\n");
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);
  EXPECT_EQ((*t)->column(0).GetInt(1), 2);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 2.5);
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(2, 2)), "rust");
}

TEST_F(TableIoTest, SkipsCommentsBlankLinesAndHeader) {
  // The header is the FIRST non-blank line (commented or not), so the
  // comment banner goes after it here; mid-file comments and blanks are
  // skipped as data.
  const std::string path = TempFile("comments.tsv",
                                    "id\n"
                                    "# a comment\n"
                                    "\n"
                                    "7\n"
                                    "# tail comment\n"
                                    "8\n");
  Schema schema{{"id", ColumnType::kInt}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 2);
  EXPECT_EQ((*t)->column(0).GetInt(0), 7);
  EXPECT_EQ((*t)->column(0).GetInt(1), 8);
}

// Regression: a '#'-commented header line ("# id<TAB>w", the common TSV
// export format) used to be skipped as a comment, after which the first
// DATA row was silently consumed as the header — every load lost a row.
// The first non-blank line is now the header whether commented or not.
TEST_F(TableIoTest, CommentedHeaderDoesNotEatFirstDataRow) {
  const std::string path = TempFile("commented_header.tsv",
                                    "# id\tw\n"
                                    "1\t0.5\n"
                                    "2\t1.5\n"
                                    "3\t2.5\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);  // Row "1" survived.
  EXPECT_EQ((*t)->column(0).GetInt(0), 1);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 0.5);
}

// Regression companion: blank lines before the header do not count as the
// header — the first non-BLANK line does, and data still follows.
TEST_F(TableIoTest, BlankLinesBeforeHeaderAreSkipped) {
  const std::string path = TempFile("blank_then_header.tsv",
                                    "\n"
                                    "\n"
                                    "id\tw\n"
                                    "4\t0.25\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 1);
  EXPECT_EQ((*t)->column(0).GetInt(0), 4);
}

TEST_F(TableIoTest, HandlesCRLF) {
  const std::string path = TempFile("crlf.tsv", "1\tx\r\n2\ty\r\n");
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(1, 1)), "y");
}

TEST_F(TableIoTest, RejectsWrongArity) {
  const std::string path = TempFile("bad.tsv", "1\t2\n3\n");
  Schema schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}};
  EXPECT_TRUE(LoadTableTSV(schema, path).status().IsInvalidArgument());
}

TEST_F(TableIoTest, RejectsBadNumbers) {
  const std::string path = TempFile("badnum.tsv", "xyz\n");
  Schema schema{{"a", ColumnType::kInt}};
  EXPECT_TRUE(LoadTableTSV(schema, path).status().IsInvalidArgument());
}

TEST_F(TableIoTest, MissingFileIsIOError) {
  Schema schema{{"a", ColumnType::kInt}};
  EXPECT_TRUE(
      LoadTableTSV(schema, "/nonexistent/nope.tsv").status().IsIOError());
}

TEST_F(TableIoTest, SaveLoadRoundTrip) {
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{10}, 1.25, std::string("alpha")}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{-3}, -0.5, std::string("beta")}));
  const std::string path = TempPath("round.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());

  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, FloatRoundTripIsBitExact) {
  Schema schema{{"w", ColumnType::kFloat}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({0.1234567890123456789}));
  RINGO_CHECK_OK(t->AppendRow({1.0 / 3.0}));
  RINGO_CHECK_OK(t->AppendRow({-2.718281828459045}));
  const std::string path = TempPath("precise.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());
  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    EXPECT_EQ(t->column(0).GetFloat(r), (*back)->column(0).GetFloat(r))
        << "row " << r << " must round-trip exactly";
  }
}

TEST_F(TableIoTest, SaveWithHeaderThenLoadWithHeader) {
  Schema schema{{"id", ColumnType::kInt}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{5}}));
  const std::string path = TempPath("hdr.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path, /*write_header=*/true).ok());
  auto back = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, LargeFileParsesCompletely) {
  std::string content;
  for (int i = 0; i < 20000; ++i) {
    content += std::to_string(i) + "\ttag" + std::to_string(i % 7) + "\n";
  }
  const std::string path = TempFile("large.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 20000);
  EXPECT_EQ((*t)->column(0).GetInt(19999), 19999);
  EXPECT_EQ((*t)->pool()->size(), 7);
}

// Errors name the 1-based FILE line — header, comments and blank lines
// included — and the column whose cell failed to parse.
TEST_F(TableIoTest, ErrorNamesFileLineAndColumn) {
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  const std::string bad_int = TempFile("bad_int.tsv",
                                       "id\tw\n"
                                       "# comment\n"
                                       "\n"
                                       "1\t0.5\n"
                                       "# another\r\n"
                                       "x7\t1.0\n"
                                       "3\t2.5\n");
  Status st = LoadTableTSV(schema, bad_int, nullptr, true).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 6, column 'id': cannot parse integer: 'x7'");

  const std::string bad_float =
      TempFile("bad_float.tsv", "\n# id\tw\n1\t0.5\n2\tnope\n");
  st = LoadTableTSV(schema, bad_float, nullptr, true).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 4, column 'w': cannot parse float: 'nope'");

  const std::string bad_arity =
      TempFile("bad_arity.tsv", "id\tw\r\n1\t0.5\r\n# c\r\n2\r\n");
  st = LoadTableTSV(schema, bad_arity, nullptr, true).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 4: expected 2 fields, got 1");

  const std::string extra = TempFile("extra.tsv", "1\t0.5\t9");
  st = LoadTableTSV(schema, extra).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 1: expected 2 fields, got 3");
}

// With two bad lines far apart (in different, non-first chunks at any
// thread count) the earlier one is reported, however the chunks finish,
// and its line number counts the lines of every chunk before it.
TEST_F(TableIoTest, ReportsEarliestOfTwoBadLinesAtEveryThreadCount) {
  std::string content = "# id\ttag\n";
  for (int i = 0; i < 20000; ++i) {
    if (i == 12000) {
      content += "oops\tt\n";  // File line 12002.
    } else if (i == 17000) {
      content += "1\n";  // File line 17002.
    } else {
      content += std::to_string(i) + "\tt" + std::to_string(i % 5) + "\n";
    }
  }
  const std::string path = TempFile("two_bad.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  for (int threads : {1, 4}) {
    testing::ScopedNumThreads scoped(threads);
    const Status st = LoadTableTSV(schema, path, nullptr, true).status();
    ASSERT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_EQ(st.message(),
              "line 12002, column 'id': cannot parse integer: 'oops'")
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ringo
