// Stress: the chunk-parallel TSV loader must build the same table at every
// thread count — the same cells and the same string ids, assigned in
// row-major first-occurrence order — whatever lands on a chunk boundary:
// CRLF endings, comment and blank lines deep in the file, a missing final
// newline, strings that first appear only in the last chunk, and files
// with no data at all. This file is part of the `stress` label, so it
// also runs the loader's parallel region under TSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "stress/stress_support.h"
#include "table/table_io.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;
using testing::StressThreadCounts;

Schema LoadSchema() {
  return Schema({{"id", ColumnType::kInt},
                 {"kind", ColumnType::kString},
                 {"w", ColumnType::kFloat},
                 {"tag", ColumnType::kString}});
}

struct Row {
  int64_t id;
  std::string kind;
  double w;
  std::string tag;
};

struct Generated {
  std::string text;
  std::vector<Row> rows;
};

// Seeded TSV over LoadSchema(). Both string columns draw from one
// vocabulary, so the pool order depends on cells of both columns; the
// last rows introduce strings seen nowhere earlier.
Generated MakeTsv(int64_t n, uint64_t seed, bool header, bool trailing_nl) {
  const std::vector<std::string> vocab = {"q", "a", "java", "c++", "rust",
                                          "go", "", "python", "q#"};
  SplitMix64 mix(seed);
  Generated g;
  if (header) g.text += "# id\tkind\tw\ttag\r\n";
  for (int64_t i = 0; i < n; ++i) {
    if (mix() % 53 == 0) g.text += "# comment " + std::to_string(i) + "\n";
    if (mix() % 71 == 0) g.text += (mix() % 2 == 0) ? "\n" : "\r\n";
    Row r;
    r.id = static_cast<int64_t>(mix() % 100000) - 50000;
    r.w = static_cast<double>(static_cast<int64_t>(mix() % 4000)) / 8.0;
    const bool late = i >= n - 3;
    r.kind = late ? "late_kind_" + std::to_string(i % 2)
                  : vocab[mix() % vocab.size()];
    r.tag = late ? "late_tag_" + std::to_string(n - i)
                 : vocab[mix() % vocab.size()];
    char w[40];
    std::snprintf(w, sizeof(w), "%.17g", r.w);
    g.text += std::to_string(r.id) + "\t" + r.kind + "\t" + w + "\t" + r.tag;
    if (i + 1 < n || trailing_nl) g.text += (mix() % 3 == 0) ? "\r\n" : "\n";
    g.rows.push_back(std::move(r));
  }
  return g;
}

class TableLoadStress : public ::testing::Test {
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

  std::vector<std::string> files_;
};

TablePtr LoadAt(int threads, const std::string& path, bool header) {
  ScopedNumThreads scoped(threads);
  auto t = LoadTableTSV(LoadSchema(), path, nullptr, header);
  RINGO_CHECK_OK(t.status());
  return *t;
}

// Every string id is either already seen or the next unused one, walking
// the cells row by row and left to right.
void ExpectFirstOccurrenceIds(const Table& t) {
  StringPool::Id next = 0;
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c : {1, 3}) {
      const StringPool::Id id = t.column(c).GetStr(r);
      ASSERT_LE(id, next) << "row " << r << " column " << c;
      if (id == next) ++next;
    }
  }
  EXPECT_EQ(next, t.pool()->size());
}

void ExpectSameLoad(const Table& want, const Table& got, int threads) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << "threads=" << threads;
  EXPECT_TRUE(got.ContentEquals(want)) << "threads=" << threads;
  for (int c : {1, 3}) {
    EXPECT_EQ(got.column(c).strs(), want.column(c).strs())
        << "threads=" << threads << " column " << c;
  }
  ASSERT_EQ(got.pool()->size(), want.pool()->size()) << "threads=" << threads;
  for (StringPool::Id i = 0; i < want.pool()->size(); ++i) {
    EXPECT_EQ(got.pool()->Get(i), want.pool()->Get(i))
        << "threads=" << threads << " id " << i;
  }
}

TEST_F(TableLoadStress, IdenticalTablesAndIdsAtEveryThreadCount) {
  for (const uint64_t seed : {1u, 29u, 4242u}) {
    for (const bool header : {false, true}) {
      for (const bool trailing_nl : {true, false}) {
        const Generated g = MakeTsv(6000, seed, header, trailing_nl);
        const std::string path =
            TempFile("load_" + std::to_string(seed) + "_" +
                         std::to_string(header) + std::to_string(trailing_nl) +
                         ".tsv",
                     g.text);
        const TablePtr base = LoadAt(1, path, header);
        ASSERT_EQ(base->NumRows(), static_cast<int64_t>(g.rows.size()));
        for (int64_t r = 0; r < base->NumRows(); ++r) {
          const Row& want = g.rows[r];
          ASSERT_EQ(base->column(0).GetInt(r), want.id) << "row " << r;
          ASSERT_EQ(base->column(2).GetFloat(r), want.w) << "row " << r;
          ASSERT_EQ(base->pool()->Get(base->column(1).GetStr(r)), want.kind);
          ASSERT_EQ(base->pool()->Get(base->column(3).GetStr(r)), want.tag);
        }
        ExpectFirstOccurrenceIds(*base);
        for (int threads : StressThreadCounts()) {
          ExpectSameLoad(*base, *LoadAt(threads, path, header), threads);
        }
      }
    }
  }
}

TEST_F(TableLoadStress, FilesWithoutDataRows) {
  const std::vector<std::pair<std::string, bool>> cases = {
      {"", false},
      {"", true},
      {"id\tkind\tw\ttag\n", true},
      {"id\tkind\tw\ttag", true},
      {"\r\n\nid\tkind\tw\ttag\r\n# only a comment\r\n\n", true},
      {"# only a comment\n\r\n", false},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string path =
        TempFile("nodata_" + std::to_string(i) + ".tsv", cases[i].first);
    for (int threads : StressThreadCounts()) {
      const TablePtr t = LoadAt(threads, path, cases[i].second);
      EXPECT_EQ(t->NumRows(), 0) << "case " << i << " threads=" << threads;
      EXPECT_EQ(t->pool()->size(), 0) << "case " << i;
    }
  }
}

}  // namespace
}  // namespace ringo
