#include "table/table_io.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string_view>
#include <unordered_map>

#include "storage/flat_hash_map.h"
#include "storage/mmap_file.h"
#include "util/checksum.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ringo {

namespace {

// One newline-aligned byte range of the TSV body, parsed by one task with
// no shared state: cells land in per-column 8-byte words (int64 values,
// double bit patterns, or chunk-local string codes), and string cells
// intern into a chunk-local dictionary.
struct TsvChunk {
  size_t begin = 0, end = 0;
  int64_t newlines = 0;  // Lines consumed before the first error, if any.
  int64_t rows = 0;
  std::vector<std::vector<uint64_t>> cells;  // [column][row]
  // The chunk's distinct strings, all string columns together, in
  // row-major first-occurrence order (code = index), and the lookup from
  // bytes to code. The views point into the mapped file. One dictionary
  // for all columns keeps the merged pool order independent of where the
  // chunks are cut.
  std::vector<std::string_view> dict;
  FlatHashMap<std::string_view, uint32_t> dict_index;
  // First error in the chunk, on the line `newlines` lines past its start;
  // error_col is the offending column, or -1 for a wrong field count.
  Status error;
  int error_col = -1;
};

// Parses one non-blank, non-comment line into `ch`. Fields are found by
// scanning tab positions in place; an error leaves the chunk's columns
// ragged, which is fine because the load then fails.
Status ParseTsvLine(const Schema& schema, std::string_view line,
                    TsvChunk* ch) {
  const int ncols = schema.num_columns();
  const char* p = line.data();
  const char* const end = p + line.size();
  for (int c = 0; c < ncols; ++c) {
    const char* stop = static_cast<const char*>(
        std::memchr(p, '\t', static_cast<size_t>(end - p)));
    if ((stop == nullptr) != (c + 1 == ncols)) {
      return Status::InvalidArgument(
          "expected " + std::to_string(ncols) + " fields, got " +
          std::to_string(1 + std::count(line.begin(), line.end(), '\t')));
    }
    if (stop == nullptr) stop = end;
    const std::string_view field(p, static_cast<size_t>(stop - p));
    p = stop + 1;
    uint64_t word = 0;
    switch (schema.column(c).type) {
      case ColumnType::kInt: {
        const Result<int64_t> v = ParseInt64(field);
        if (!v.ok()) {
          ch->error_col = c;
          return v.status();
        }
        word = static_cast<uint64_t>(*v);
        break;
      }
      case ColumnType::kFloat: {
        const Result<double> v = ParseDouble(field);
        if (!v.ok()) {
          ch->error_col = c;
          return v.status();
        }
        word = std::bit_cast<uint64_t>(*v);
        break;
      }
      case ColumnType::kString: {
        const auto [code, fresh] = ch->dict_index.Insert(
            field, static_cast<uint32_t>(ch->dict.size()));
        if (fresh) ch->dict.push_back(field);
        word = *code;
        break;
      }
    }
    ch->cells[c].push_back(word);
  }
  ++ch->rows;
  return Status::OK();
}

// Parses the lines of `text` in [ch->begin, ch->end), skipping blank and
// '#' lines, and stops at the first error.
void ParseTsvChunk(const Schema& schema, std::string_view text,
                   TsvChunk* ch) {
  const int ncols = schema.num_columns();
  ch->cells.resize(ncols);
  const std::string_view upto = text.substr(0, ch->end);
  size_t pos = ch->begin;
  while (pos < ch->end) {
    const size_t nl = std::min(upto.find('\n', pos), ch->end);
    std::string_view line = upto.substr(pos, nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty() && line.front() != '#') {
      ch->error = ParseTsvLine(schema, line, ch);
      if (!ch->error.ok()) return;
    }
    ++ch->newlines;
  }
}

}  // namespace

// Chunk-parallel load without locks (DESIGN.md §14, "TSV loading"): map
// the file, consume the header serially, cut the body into
// newline-aligned chunks, parse each into chunk-local columns and
// dictionaries, intern the dictionaries into the shared pool in file
// order, then scatter every chunk into its row range of the table.
Result<TablePtr> LoadTableTSV(const Schema& schema, const std::string& path,
                              std::shared_ptr<StringPool> pool,
                              bool has_header) {
  trace::Span span("LoadTableTSV");
  RINGO_ASSIGN_OR_RETURN(const std::shared_ptr<const MmapFile> map,
                         MmapFile::Open(path));
  const std::string_view text(reinterpret_cast<const char*>(map->data()),
                              map->size());

  // Header: the first non-blank line, commented or not — it is consumed
  // before comment-skipping applies, so a "# col1<TAB>col2" header never
  // promotes the first data row to header.
  size_t body = 0;
  int64_t body_line = 1;  // 1-based file line that starts at text[body].
  while (has_header && body < text.size()) {
    const size_t nl = std::min(text.find('\n', body), text.size());
    std::string_view line = text.substr(body, nl - body);
    body = std::min(nl + 1, text.size());
    ++body_line;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) break;
  }

  // About four chunks per thread, each ending just after a '\n' (or at
  // end of file), so every line lies in exactly one chunk.
  const size_t target = static_cast<size_t>(4 * NumThreads());
  const size_t step =
      std::max<size_t>(1, (text.size() - body + target - 1) / target);
  std::vector<TsvChunk> chunks;
  for (size_t b = body; b < text.size();) {
    const size_t e =
        b + step >= text.size()
            ? text.size()
            : std::min(text.find('\n', b + step - 1), text.size() - 1) + 1;
    chunks.emplace_back();
    chunks.back().begin = b;
    chunks.back().end = e;
    b = e;
  }
  const int64_t nchunks = static_cast<int64_t>(chunks.size());
  {
    RINGO_TRACE_SPAN("LoadTableTSV/parse");
    ParallelFor(0, nchunks, [&](int64_t k) {
      ParseTsvChunk(schema, text, &chunks[k]);
    });
  }

  // Merge, in file order. The first failing chunk holds the earliest
  // error; the chunks before it parsed fully, so their newline counts
  // give its file line. Interning chunk by chunk assigns pool ids in
  // first-occurrence order, whatever the thread count.
  TablePtr table = Table::Create(schema, std::move(pool));
  StringPool* out_pool = table->pool().get();
  const int ncols = schema.num_columns();
  std::vector<int64_t> row_base(nchunks + 1, 0);
  // remap[k][code]: pool id of chunk k's local string code.
  std::vector<std::vector<StringPool::Id>> remap(nchunks);
  {
    RINGO_TRACE_SPAN("LoadTableTSV/merge");
    int64_t line = body_line;
    for (int64_t k = 0; k < nchunks; ++k) {
      const TsvChunk& ch = chunks[k];
      line += ch.newlines;
      if (!ch.error.ok()) {
        std::string where = "line " + std::to_string(line);
        if (ch.error_col >= 0) {
          where += ", column '" + schema.column(ch.error_col).name + "'";
        }
        return Status::InvalidArgument(where + ": " + ch.error.message());
      }
      row_base[k + 1] = row_base[k] + ch.rows;
      remap[k].reserve(ch.dict.size());
      for (std::string_view s : ch.dict) {
        remap[k].push_back(out_pool->GetOrAdd(s));
      }
    }
  }

  // Scatter column by column, releasing each chunk's words as they are
  // copied, so the load holds at most one column twice.
  const int64_t n = row_base[nchunks];
  {
    RINGO_TRACE_SPAN("LoadTableTSV/scatter");
    for (int c = 0; c < ncols; ++c) {
      Column& col = table->mutable_column(c);
      col.Resize(n);
      const ColumnType type = col.type();
      void* const dst = type == ColumnType::kInt
                            ? static_cast<void*>(col.ints().data())
                        : type == ColumnType::kFloat
                            ? static_cast<void*>(col.floats().data())
                            : static_cast<void*>(col.strs().data());
      ParallelFor(0, nchunks, [&](int64_t k) {
        std::vector<uint64_t>& src = chunks[k].cells[c];
        if (type == ColumnType::kString) {
          StringPool::Id* out =
              static_cast<StringPool::Id*>(dst) + row_base[k];
          const std::vector<StringPool::Id>& ids = remap[k];
          for (size_t r = 0; r < src.size(); ++r) out[r] = ids[src[r]];
        } else if (!src.empty()) {
          std::memcpy(static_cast<uint64_t*>(dst) + row_base[k], src.data(),
                      src.size() * sizeof(uint64_t));
        }
        std::vector<uint64_t>().swap(src);
      });
    }
  }
  span.AddAttr("rows", n);
  RINGO_RETURN_NOT_OK(table->SealAppendedRows(n));
  return table;
}

Status SaveTableTSV(const Table& t, const std::string& path,
                    bool write_header) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  if (write_header) {
    std::vector<std::string> names;
    for (const ColumnSpec& c : t.schema().columns()) names.push_back(c.name);
    out << JoinStrings(names, "\t") << '\n';
  }
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out << '\t';
      // Floats are written with max_digits10 precision so a save/load
      // round trip is bit-exact (FormatCell's %.6g is for display only).
      if (t.schema().column(c).type == ColumnType::kFloat) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", t.column(c).GetFloat(r));
        out << buf;
      } else {
        out << t.FormatCell(r, c);
      }
    }
    out << '\n';
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// .rtb binary table format (DESIGN.md §14).
//
// Layout (all integers little-endian; the format is not byte-swapped on
// big-endian hosts — Ringo targets x86-64/AArch64):
//
//   [64-byte header]
//     0  magic "RTB1"
//     4  u32 version (= 1)
//     8  u32 ncols
//     12 u32 flags (reserved, 0)
//     16 i64 nrows
//     24 i64 next_row_id
//     32 u64 dir_offset
//     40 u64 dir_bytes
//     48 u32 dir_crc
//     52 u32 header_crc  (CRC-32 of bytes [0, 52))
//     56 zero padding to 64
//   [segments]   8-byte aligned, zero-padded between; one data segment per
//                column, one dictionary segment per dict-encoded column,
//                one row-id segment (nrows × i64)
//   [directory]  per-column: name, type, on-disk encoding, bit width,
//                for_base, dict_count, then (offset, bytes, crc) for the
//                data and dictionary segments; finally the row-id segment's
//                (offset, bytes, crc)
//
// Plain int/float columns are raw 8-byte values (floats keep their exact
// bit patterns). Encoded columns store their packed code stream verbatim,
// so the loader can hand the column a zero-copy view into the mapping.
// String columns are *always* dictionary-form on disk — pool ids are
// process-local, so the dictionary stores the bytes and the loader
// re-interns them into the target pool.

// Friend of Table: the loader's private-state restore hatch.
class TableBinAccess {
 public:
  static int64_t NextRowId(const Table& t) { return t.next_row_id_; }
  static void Restore(Table& t, std::vector<int64_t> row_ids,
                      int64_t next_row_id) {
    t.num_rows_ = static_cast<int64_t>(row_ids.size());
    t.row_ids_ = std::move(row_ids);
    t.next_row_id_ = next_row_id;
  }
};

namespace {

constexpr char kRtbMagic[4] = {'R', 'T', 'B', '1'};
constexpr uint32_t kRtbVersion = 1;
constexpr size_t kRtbHeaderBytes = 64;
constexpr size_t kRtbHeaderCrcOffset = 52;  // header_crc covers [0, 52)

struct SegRef {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

template <typename T>
void PutNum(std::string* b, T v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutSeg(std::string* b, const SegRef& s) {
  PutNum(b, s.offset);
  PutNum(b, s.bytes);
  PutNum(b, s.crc);
}

// Streaming segment writer: pads to 8-byte alignment before each segment
// and records (offset, bytes, crc).
struct RtbWriter {
  std::ofstream out;
  uint64_t off = 0;

  void Raw(const void* p, size_t n) {
    if (n == 0) return;
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    off += n;
  }
  void Pad8() {
    static constexpr char zeros[8] = {};
    Raw(zeros, static_cast<size_t>(-off & 7));
  }
  SegRef Segment(const void* p, size_t n) {
    Pad8();
    const SegRef s{off, n, Crc32(p, n)};
    Raw(p, n);
    return s;
  }
};

int BitsForDict(int64_t dict_count) {
  return dict_count <= 1
             ? 0
             : std::bit_width(static_cast<uint64_t>(dict_count - 1));
}

// First-occurrence dictionary over a plain string-id vector (the save path
// for string columns that are not already dict-encoded in memory).
void BuildStrDict(const std::vector<StringPool::Id>& v,
                  std::vector<StringPool::Id>* dict,
                  std::vector<uint64_t>* codes) {
  std::unordered_map<StringPool::Id, uint64_t> seen;
  codes->reserve(v.size());
  for (const StringPool::Id id : v) {
    const auto [it, inserted] = seen.emplace(id, dict->size());
    if (inserted) dict->push_back(id);
    codes->push_back(it->second);
  }
}

// Dictionary segment payload for string columns: dict_count entries of
// [u32 length][bytes].
std::string SerializeStrDict(const StringPool& pool,
                             const std::vector<StringPool::Id>& dict) {
  std::string b;
  for (const StringPool::Id id : dict) {
    const std::string_view s = pool.Get(id);
    PutNum(&b, static_cast<uint32_t>(s.size()));
    b.append(s);
  }
  return b;
}

// What one column serializes to, recorded while its segments are written.
struct ColDisk {
  uint8_t enc = 0;  // ColumnEncoding as stored on disk
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

// Bounds-checked reader over the mapped directory bytes.
struct BinCursor {
  const uint8_t* p;
  size_t left;

  bool Bytes(void* dst, size_t n) {
    if (n > left) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  template <typename T>
  bool Num(T* v) {
    return Bytes(v, sizeof(T));
  }
  bool Str(std::string* s, size_t n) {
    if (n > left) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool Seg(SegRef* s) {
    return Num(&s->offset) && Num(&s->bytes) && Num(&s->crc);
  }
};

struct ColEntry {
  std::string name;
  uint8_t type = 0;
  uint8_t enc = 0;
  uint8_t bits = 0;
  int64_t for_base = 0;
  int64_t dict_count = 0;
  SegRef data;
  SegRef dict;
};

Status MalformedDir(const std::string& why) {
  return Status::Corruption("malformed .rtb directory: " + why);
}

// Verifies a segment lies inside the file and matches its checksum.
Status CheckSegment(const uint8_t* base, size_t file_size, const SegRef& s,
                    const std::string& what) {
  if (s.bytes > file_size || s.offset > file_size - s.bytes) {
    return Status::Corruption("short " + what + " segment");
  }
  if (Crc32(base + s.offset, s.bytes) != s.crc) {
    return Status::Corruption("checksum mismatch in " + what + " segment");
  }
  return Status::OK();
}

}  // namespace

Status SaveTableBin(const Table& t, const std::string& path) {
  trace::Span span("Table/SaveTableBin");
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  RtbWriter w{std::move(f)};
  {
    const char zeros[kRtbHeaderBytes] = {};
    w.Raw(zeros, kRtbHeaderBytes);  // Header placeholder, rewritten below.
  }

  const int64_t nrows = t.NumRows();
  std::vector<ColDisk> cols(t.num_columns());
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const Column& c = t.column(ci);
    ColDisk& d = cols[ci];
    const EncodedColumn* e = c.encoded_state();
    switch (c.type()) {
      case ColumnType::kInt:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.for_base = e->for_base;
          if (e->enc == ColumnEncoding::kDictInt) {
            d.dict_count = static_cast<int64_t>(e->dict_ints.size());
            d.dict = w.Segment(e->dict_ints.data(),
                               e->dict_ints.size() * sizeof(int64_t));
          }
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.ints().data(), nrows * sizeof(int64_t));
        }
        break;
      case ColumnType::kFloat:
        if (e != nullptr) {
          d.enc = static_cast<uint8_t>(e->enc);
          d.bits = static_cast<uint8_t>(e->bits);
          d.dict_count = static_cast<int64_t>(e->dict_floats.size());
          d.dict = w.Segment(e->dict_floats.data(),
                             e->dict_floats.size() * sizeof(double));
          d.data =
              w.Segment(e->words.data(), e->words.size() * sizeof(uint64_t));
        } else {
          d.enc = static_cast<uint8_t>(ColumnEncoding::kPlain);
          d.data = w.Segment(c.floats().data(), nrows * sizeof(double));
        }
        break;
      case ColumnType::kString: {
        // Always dictionary-form on disk (pool ids don't persist).
        d.enc = static_cast<uint8_t>(ColumnEncoding::kDictStr);
        std::vector<StringPool::Id> dict_local;
        std::vector<uint64_t> codes_local;
        std::vector<uint64_t> packed;
        const std::vector<StringPool::Id>* dict = nullptr;
        std::span<const uint64_t> words;
        if (e != nullptr && e->enc == ColumnEncoding::kDictStr) {
          dict = &e->dict_strs;
          d.bits = static_cast<uint8_t>(e->bits);
          words = e->words;
        } else {
          BuildStrDict(c.strs(), &dict_local, &codes_local);
          dict = &dict_local;
          d.bits = static_cast<uint8_t>(
              BitsForDict(static_cast<int64_t>(dict_local.size())));
          if (d.bits > 0) packed = PackCodes(codes_local, d.bits);
          words = packed;
        }
        d.dict_count = static_cast<int64_t>(dict->size());
        const std::string dict_bytes = SerializeStrDict(*t.pool(), *dict);
        d.dict = w.Segment(dict_bytes.data(), dict_bytes.size());
        d.data = w.Segment(words.data(), words.size() * sizeof(uint64_t));
        break;
      }
    }
  }
  const SegRef row_seg =
      w.Segment(t.row_ids().data(), nrows * sizeof(int64_t));

  std::string dir;
  for (int ci = 0; ci < t.num_columns(); ++ci) {
    const ColumnSpec& spec = t.schema().column(ci);
    const ColDisk& d = cols[ci];
    PutNum(&dir, static_cast<uint32_t>(spec.name.size()));
    dir.append(spec.name);
    PutNum(&dir, static_cast<uint8_t>(spec.type));
    PutNum(&dir, d.enc);
    PutNum(&dir, d.bits);
    PutNum(&dir, uint8_t{0});
    PutNum(&dir, d.for_base);
    PutNum(&dir, d.dict_count);
    PutSeg(&dir, d.data);
    PutSeg(&dir, d.dict);
  }
  PutSeg(&dir, row_seg);

  w.Pad8();
  const uint64_t dir_offset = w.off;
  const uint32_t dir_crc = Crc32(dir.data(), dir.size());
  w.Raw(dir.data(), dir.size());

  std::string h;
  h.append(kRtbMagic, sizeof(kRtbMagic));
  PutNum(&h, kRtbVersion);
  PutNum(&h, static_cast<uint32_t>(t.num_columns()));
  PutNum(&h, uint32_t{0});  // flags
  PutNum(&h, nrows);
  PutNum(&h, TableBinAccess::NextRowId(t));
  PutNum(&h, dir_offset);
  PutNum(&h, static_cast<uint64_t>(dir.size()));
  PutNum(&h, dir_crc);
  PutNum(&h, Crc32(h.data(), kRtbHeaderCrcOffset));
  h.resize(kRtbHeaderBytes, '\0');
  w.out.seekp(0);
  w.out.write(h.data(), static_cast<std::streamsize>(h.size()));
  w.out.flush();
  if (!w.out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  RINGO_COUNTER_ADD("table_io/save_bin", 1);
  return Status::OK();
}

Result<TablePtr> LoadTableBin(const std::string& path,
                              std::shared_ptr<StringPool> pool) {
  trace::Span span("Table/LoadTableBin");
  RINGO_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> map,
                         MmapFile::Open(path));
  const uint8_t* base = map->data();
  const size_t file_size = map->size();
  if (file_size < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated .rtb header");
  }
  if (std::memcmp(base, kRtbMagic, sizeof(kRtbMagic)) != 0) {
    return Status::Corruption("'" + path + "': not an .rtb file (bad magic)");
  }
  BinCursor hc{base + sizeof(kRtbMagic),
               kRtbHeaderBytes - sizeof(kRtbMagic)};
  uint32_t version = 0, ncols = 0, flags = 0;
  int64_t nrows = 0, next_row_id = 0;
  uint64_t dir_offset = 0, dir_bytes = 0;
  uint32_t dir_crc = 0, header_crc = 0;
  hc.Num(&version);
  hc.Num(&ncols);
  hc.Num(&flags);
  hc.Num(&nrows);
  hc.Num(&next_row_id);
  hc.Num(&dir_offset);
  hc.Num(&dir_bytes);
  hc.Num(&dir_crc);
  hc.Num(&header_crc);
  if (version != kRtbVersion) {
    return Status::Corruption("'" + path + "': unsupported .rtb version " +
                              std::to_string(version));
  }
  if (Crc32(base, kRtbHeaderCrcOffset) != header_crc) {
    return Status::Corruption("'" + path + "': header checksum mismatch");
  }
  if (nrows < 0) {
    return Status::Corruption("'" + path + "': negative row count");
  }
  if (dir_bytes > file_size || dir_offset > file_size - dir_bytes ||
      dir_offset < kRtbHeaderBytes) {
    return Status::Corruption("'" + path + "': truncated directory");
  }
  if (Crc32(base + dir_offset, dir_bytes) != dir_crc) {
    return Status::Corruption("'" + path + "': directory checksum mismatch");
  }

  BinCursor cur{base + dir_offset, static_cast<size_t>(dir_bytes)};
  std::vector<ColEntry> entries(ncols);
  Schema schema;
  for (ColEntry& e : entries) {
    uint32_t name_len = 0;
    uint8_t pad = 0;
    if (!cur.Num(&name_len) || !cur.Str(&e.name, name_len) ||
        !cur.Num(&e.type) || !cur.Num(&e.enc) || !cur.Num(&e.bits) ||
        !cur.Num(&pad) || !cur.Num(&e.for_base) || !cur.Num(&e.dict_count) ||
        !cur.Seg(&e.data) || !cur.Seg(&e.dict)) {
      return MalformedDir("truncated column entry");
    }
    if (e.type > static_cast<uint8_t>(ColumnType::kString)) {
      return MalformedDir("bad column type for '" + e.name + "'");
    }
    if (e.bits > 63 || e.dict_count < 0) {
      return MalformedDir("bad encoding metadata for '" + e.name + "'");
    }
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    const bool enc_ok =
        (type == ColumnType::kInt &&
         (enc == ColumnEncoding::kPlain || enc == ColumnEncoding::kDictInt ||
          enc == ColumnEncoding::kForInt)) ||
        (type == ColumnType::kFloat &&
         (enc == ColumnEncoding::kPlain ||
          enc == ColumnEncoding::kDictFloat)) ||
        (type == ColumnType::kString && enc == ColumnEncoding::kDictStr);
    if (!enc_ok) {
      return MalformedDir("bad encoding for '" + e.name + "'");
    }
    const Status st = schema.AddColumn(e.name, type);
    if (!st.ok()) {
      return MalformedDir(st.message());
    }
  }
  SegRef row_seg;
  if (!cur.Seg(&row_seg)) {
    return MalformedDir("missing row-id segment entry");
  }
  if (cur.left != 0) {
    return MalformedDir("trailing bytes");
  }

  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  StringPool* out_pool = t->pool().get();
  int64_t zero_copy_cols = 0;
  for (int ci = 0; ci < t->num_columns(); ++ci) {
    const ColEntry& e = entries[ci];
    const ColumnType type = static_cast<ColumnType>(e.type);
    const ColumnEncoding enc = static_cast<ColumnEncoding>(e.enc);
    RINGO_RETURN_NOT_OK(
        CheckSegment(base, file_size, e.data, "column '" + e.name + "' data"));
    RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, e.dict,
                                     "column '" + e.name + "' dictionary"));

    if (enc == ColumnEncoding::kPlain) {
      if (e.data.bytes != static_cast<uint64_t>(nrows) * 8) {
        return Status::Corruption("column '" + e.name +
                                  "': data segment size mismatch");
      }
      // Empty segments skip the copy: a zero-row vector's data() may be
      // null, and memcpy's pointer args are declared nonnull even for n=0.
      if (type == ColumnType::kInt) {
        std::vector<int64_t>& v = t->mutable_column(ci).ints();
        v.resize(nrows);
        if (e.data.bytes != 0)
          std::memcpy(v.data(), base + e.data.offset, e.data.bytes);
      } else {
        std::vector<double>& v = t->mutable_column(ci).floats();
        v.resize(nrows);
        if (e.data.bytes != 0)
          std::memcpy(v.data(), base + e.data.offset, e.data.bytes);
      }
      continue;
    }

    auto ec = std::make_shared<EncodedColumn>();
    ec->enc = enc;
    ec->n = nrows;
    ec->bits = e.bits;
    ec->for_base = e.for_base;
    const uint64_t want_words =
        e.bits == 0
            ? 0
            : (static_cast<uint64_t>(nrows) * e.bits + 63) / 64;
    if (e.data.bytes != want_words * 8) {
      return Status::Corruption("column '" + e.name +
                                "': code stream size mismatch");
    }
    if (want_words > 0) {
      if (e.data.offset % alignof(uint64_t) == 0) {
        ec->BorrowWords(
            std::span(reinterpret_cast<const uint64_t*>(base + e.data.offset),
                      want_words),
            map);
        ++zero_copy_cols;
      } else {
        std::vector<uint64_t> w(want_words);
        std::memcpy(w.data(), base + e.data.offset, want_words * 8);
        ec->AdoptOwnedWords(std::move(w));
      }
    }

    switch (enc) {
      case ColumnEncoding::kForInt:
        break;  // for_base + codes is the whole payload.
      case ColumnEncoding::kDictInt:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_ints.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_ints.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictFloat:
        if (e.dict.bytes != static_cast<uint64_t>(e.dict_count) * 8) {
          return Status::Corruption("column '" + e.name +
                                    "': dictionary size mismatch");
        }
        ec->dict_floats.resize(e.dict_count);
        if (e.dict.bytes != 0)
          std::memcpy(ec->dict_floats.data(), base + e.dict.offset,
                      e.dict.bytes);
        break;
      case ColumnEncoding::kDictStr: {
        BinCursor dc{base + e.dict.offset, static_cast<size_t>(e.dict.bytes)};
        ec->dict_strs.reserve(e.dict_count);
        std::string s;
        for (int64_t i = 0; i < e.dict_count; ++i) {
          uint32_t len = 0;
          if (!dc.Num(&len) || !dc.Str(&s, len)) {
            return Status::Corruption("column '" + e.name +
                                      "': truncated string dictionary");
          }
          ec->dict_strs.push_back(out_pool->GetOrAdd(s));
        }
        if (dc.left != 0) {
          return Status::Corruption("column '" + e.name +
                                    "': string dictionary trailing bytes");
        }
        break;
      }
      case ColumnEncoding::kPlain:
        break;  // unreachable
    }

    // Dict encodings: every code must index the dictionary. A full-width
    // code space (dict_count == 2^bits) cannot overflow; otherwise scan —
    // CRCs catch bit rot, this catches files written wrong.
    if (enc != ColumnEncoding::kForInt && e.bits > 0 &&
        static_cast<uint64_t>(e.dict_count) < (uint64_t{1} << e.bits)) {
      uint64_t max_code = 0;
      for (int64_t i = 0; i < nrows; ++i) {
        max_code = std::max(max_code, ec->Code(i));
      }
      if (max_code >= static_cast<uint64_t>(e.dict_count)) {
        return Status::Corruption("column '" + e.name +
                                  "': code out of dictionary range");
      }
    }
    if (enc != ColumnEncoding::kForInt && nrows > 0 && e.dict_count == 0) {
      return Status::Corruption("column '" + e.name + "': empty dictionary");
    }
    t->mutable_column(ci) = Column(type, std::move(ec));
  }

  RINGO_RETURN_NOT_OK(CheckSegment(base, file_size, row_seg, "row-id"));
  if (row_seg.bytes != static_cast<uint64_t>(nrows) * 8) {
    return Status::Corruption("'" + path + "': row-id segment size mismatch");
  }
  std::vector<int64_t> row_ids(nrows);
  if (row_seg.bytes != 0)
    std::memcpy(row_ids.data(), base + row_seg.offset, row_seg.bytes);
  TableBinAccess::Restore(*t, std::move(row_ids), next_row_id);

  RINGO_COUNTER_ADD("table_io/load_bin", 1);
  RINGO_COUNTER_ADD("table_io/load_bin_zero_copy_cols", zero_copy_cols);
  t->PublishMemGauges();
  return t;
}

Result<TablePtr> LoadTableAuto(const Schema& schema, const std::string& path,
                               std::shared_ptr<StringPool> pool,
                               bool has_header) {
  if (std::string_view(path).ends_with(".rtb")) {
    RINGO_ASSIGN_OR_RETURN(TablePtr t, LoadTableBin(path, std::move(pool)));
    if (schema.num_columns() > 0 && !(t->schema() == schema)) {
      return Status::InvalidArgument(
          "schema mismatch for '" + path + "': file has [" +
          t->schema().ToString() + "], declared [" + schema.ToString() + "]");
    }
    return t;
  }
  return LoadTableTSV(schema, path, std::move(pool), has_header);
}

}  // namespace ringo
