// Utility table operations: Head, TopK, bag concatenation, computed
// columns and numeric casts — the small data-cleaning verbs the paper's
// iterative exploration workflow (Fig. 2) leans on between the heavyweight
// operators.
#include <algorithm>
#include <numeric>

#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

TablePtr Table::Head(int64_t n) const {
  n = std::min(n, num_rows_);
  std::vector<int64_t> idx(std::max<int64_t>(n, 0));
  std::iota(idx.begin(), idx.end(), 0);
  return GatherRows(idx);
}

Result<TablePtr> Table::TopK(std::string_view col, int64_t k,
                             bool ascending) const {
  if (k < 0) {
    return Status::InvalidArgument("TopK requires k >= 0");
  }
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(col));
  const int64_t take = std::min(k, num_rows_);
  trace::Span span("Table/TopK");
  span.AddAttr("rows", num_rows_);
  span.AddAttr("k", take);
  // Bounded selection over the normalized keys: each part keeps its best
  // `take` (key, row) records, then the candidates are cut to `take` and
  // sorted. (key, row) is a total order, so ties break by row exactly as
  // the stable radix sort and the comparison fallback below do.
  if (radix::Enabled()) {
    std::vector<uint64_t> keys(num_rows_);
    internal::NormalizedColumnKeys(*this, ci, ascending, keys.data());
    const auto before = [](const KeyRow& a, const KeyRow& b) {
      return a.key != b.key ? a.key < b.key : a.row < b.row;
    };
    // Keeps the `take` smallest records of *v, unordered.
    const auto keep_best = [&](std::vector<KeyRow>* v) {
      if (static_cast<int64_t>(v->size()) <= take) return;
      std::nth_element(v->begin(), v->begin() + take, v->end(), before);
      v->resize(take);
    };
    const int parts = NumThreads();
    const std::vector<int64_t> bounds = PartitionRange(num_rows_, parts);
    std::vector<std::vector<KeyRow>> best(parts);
    ParallelFor(0, parts, [&](int64_t p) {
      best[p].reserve(bounds[p + 1] - bounds[p]);
      for (int64_t r = bounds[p]; r < bounds[p + 1]; ++r) {
        best[p].push_back({keys[r], r});
      }
      keep_best(&best[p]);
    });
    std::vector<KeyRow> cand = std::move(best[0]);
    for (int p = 1; p < parts; ++p) {
      cand.insert(cand.end(), best[p].begin(), best[p].end());
    }
    keep_best(&cand);
    ParallelSort(cand.begin(), cand.end(), before);
    std::vector<int64_t> perm(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) perm[i] = cand[i].row;
    return GatherRows(perm);
  }
  const std::vector<int> cols{ci};
  RowComparator cmp(this, this, cols, cols, {ascending});
  std::vector<int64_t> perm(num_rows_);
  std::iota(perm.begin(), perm.end(), 0);
  auto less = [&](int64_t a, int64_t b) {
    const int c = cmp.Compare(a, b);
    return c != 0 ? c < 0 : a < b;
  };
  std::partial_sort(perm.begin(), perm.begin() + take, perm.end(), less);
  perm.resize(take);
  return GatherRows(perm);
}

Result<TablePtr> Table::Sample(int64_t k, uint64_t seed) const {
  if (k < 0) {
    return Status::InvalidArgument("Sample requires k >= 0");
  }
  const int64_t take = std::min(k, num_rows_);
  // Partial Fisher–Yates over the row indices.
  std::vector<int64_t> idx(num_rows_);
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  for (int64_t i = 0; i < take; ++i) {
    std::swap(idx[i], idx[rng.UniformInt(i, num_rows_ - 1)]);
  }
  idx.resize(take);
  std::sort(idx.begin(), idx.end());  // Keep original row order.
  return GatherRows(idx);
}

Result<TablePtr> Table::ConcatTables(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::TypeMismatch("concat on incompatible schemas: [" +
                                a.schema().ToString() + "] vs [" +
                                b.schema().ToString() + "]");
  }
  TablePtr out = Create(a.schema(), a.pool());
  const bool same_pool = a.pool() == b.pool();
  for (int c = 0; c < a.num_columns(); ++c) {
    Column& dst = out->mutable_column(c);
    dst.AppendColumn(a.column(c));
    const Column& src = b.column(c);
    if (src.type() == ColumnType::kString && !same_pool) {
      for (int64_t r = 0; r < b.NumRows(); ++r) {
        dst.AppendStr(a.pool()->GetOrAdd(b.pool()->Get(src.GetStr(r))));
      }
    } else {
      dst.AppendColumn(src);
    }
  }
  RINGO_RETURN_NOT_OK(out->SealAppendedRows(a.NumRows() + b.NumRows()));
  return out;
}

Status Table::AddIntColumn(
    std::string name, const std::function<int64_t(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kInt));
  cols_.emplace_back(ColumnType::kInt);
  Column& c = cols_.back();
  c.Resize(num_rows_);
  ParallelFor(0, num_rows_, [&](int64_t i) { c.SetInt(i, fn(*this, i)); });
  return Status::OK();
}

Status Table::AddFloatColumn(
    std::string name, const std::function<double(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kFloat));
  cols_.emplace_back(ColumnType::kFloat);
  Column& c = cols_.back();
  c.Resize(num_rows_);
  ParallelFor(0, num_rows_, [&](int64_t i) { c.SetFloat(i, fn(*this, i)); });
  return Status::OK();
}

Status Table::AddStringColumn(
    std::string name,
    const std::function<std::string(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kString));
  cols_.emplace_back(ColumnType::kString);
  Column& c = cols_.back();
  c.Resize(num_rows_);
  // Interning serializes on the pool mutex; keep this loop sequential.
  for (int64_t i = 0; i < num_rows_; ++i) {
    c.SetStr(i, pool_->GetOrAdd(fn(*this, i)));
  }
  return Status::OK();
}

Status Table::CastColumn(std::string_view name, ColumnType to) {
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(name));
  const ColumnType from = schema_.column(ci).type;
  if (from == to) return Status::OK();
  if (from == ColumnType::kString || to == ColumnType::kString) {
    return Status::TypeMismatch("CastColumn supports numeric casts only");
  }
  Column fresh(to);
  fresh.Resize(num_rows_);
  const Column& old = cols_[ci];
  if (to == ColumnType::kFloat) {
    ParallelFor(0, num_rows_, [&](int64_t i) {
      fresh.SetFloat(i, static_cast<double>(old.GetInt(i)));
    });
  } else {
    ParallelFor(0, num_rows_, [&](int64_t i) {
      fresh.SetInt(i, static_cast<int64_t>(old.GetFloat(i)));
    });
  }
  cols_[ci] = std::move(fresh);
  // Patch the schema entry's type (name unchanged).
  Schema rebuilt;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    RINGO_RETURN_NOT_OK(rebuilt.AddColumn(
        schema_.column(c).name, c == ci ? to : schema_.column(c).type));
  }
  schema_ = std::move(rebuilt);
  return Status::OK();
}

}  // namespace ringo
