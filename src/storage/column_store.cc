#include "storage/column_store.h"

#include <algorithm>
#include <cstring>
#include <memory>

namespace ofi::storage {
namespace {

/// Builds the packed validity bitmap (empty when every row is valid).
std::vector<uint64_t> PackValidity(const std::vector<bool>* valid, size_t n) {
  if (valid == nullptr) return {};
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if (!(*valid)[i]) {
      any_null = true;
      break;
    }
  }
  if (!any_null) return {};
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    if ((*valid)[i]) bits[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return bits;
}

uint32_t CountNulls(const std::vector<uint64_t>& validity, size_t n) {
  if (validity.empty()) return 0;
  return static_cast<uint32_t>(n - BitmapCountValid(validity, 0, n));
}

}  // namespace

size_t BitmapCountValid(const std::vector<uint64_t>& validity, size_t begin,
                        size_t end) {
  if (validity.empty()) return end - begin;
  size_t count = 0;
  size_t i = begin;
  // Partial leading word.
  while (i < end && (i & 63) != 0) count += BitmapValidAt(validity, i++);
  // Whole words.
  while (i + 64 <= end) {
    count += static_cast<size_t>(__builtin_popcountll(validity[i >> 6]));
    i += 64;
  }
  // Partial trailing word.
  while (i < end) count += BitmapValidAt(validity, i++);
  return count;
}

void ScanStats::MergeFrom(const ScanStats& o) {
  chunks_total += o.chunks_total;
  chunks_scanned += o.chunks_scanned;
  chunks_pruned += o.chunks_pruned;
  rows_decoded += o.rows_decoded;
  rows_matched += o.rows_matched;
  morsels += o.morsels;
  delta_rows += o.delta_rows;
  index_rows += o.index_rows;
}

size_t Int64Chunk::CompressedBytes() const {
  size_t n = validity.size() * sizeof(uint64_t);
  if (encoding == Encoding::kRle) {
    return n + rle_values.size() * sizeof(int64_t) +
           rle_lengths.size() * sizeof(uint32_t);
  }
  return n + plain.size() * sizeof(int64_t);
}

void Int64Chunk::Decode(std::vector<int64_t>* out) const {
  out->clear();
  out->reserve(num_rows);
  if (encoding == Encoding::kRle) {
    for (size_t i = 0; i < rle_values.size(); ++i) {
      out->insert(out->end(), rle_lengths[i], rle_values[i]);
    }
  } else {
    *out = plain;
  }
}

size_t StringChunk::CompressedBytes() const {
  size_t n = validity.size() * sizeof(uint64_t);
  if (encoding == Encoding::kDict) {
    n += codes.size() * sizeof(uint32_t);
    for (const auto& s : dict) n += s.size() + 4;
    return n;
  }
  for (const auto& s : plain) n += s.size() + 4;
  return n;
}

Int64Chunk EncodeInt64(const std::vector<int64_t>& values,
                       const std::vector<bool>* valid) {
  Int64Chunk chunk;
  chunk.num_rows = values.size();
  chunk.validity = PackValidity(valid, values.size());
  chunk.zone.num_rows = static_cast<uint32_t>(values.size());
  chunk.zone.null_count = CountNulls(chunk.validity, values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!chunk.ValidAt(i)) continue;
    chunk.zone.min = std::min(chunk.zone.min, values[i]);
    chunk.zone.max = std::max(chunk.zone.max, values[i]);
  }
  // Build RLE and keep it only if it actually compresses. NULL placeholders
  // participate in runs like any value; validity is consulted on scan.
  std::vector<int64_t> rv;
  std::vector<uint32_t> rl;
  for (int64_t v : values) {
    if (!rv.empty() && rv.back() == v && rl.back() < UINT32_MAX) {
      rl.back()++;
    } else {
      rv.push_back(v);
      rl.push_back(1);
    }
  }
  size_t rle_bytes = rv.size() * sizeof(int64_t) + rl.size() * sizeof(uint32_t);
  if (rle_bytes < values.size() * sizeof(int64_t)) {
    chunk.encoding = Encoding::kRle;
    chunk.rle_values = std::move(rv);
    chunk.rle_lengths = std::move(rl);
  } else {
    chunk.encoding = Encoding::kPlain;
    chunk.plain = values;
  }
  return chunk;
}

StringChunk EncodeString(const std::vector<std::string>& values,
                         const std::vector<bool>* valid) {
  StringChunk chunk;
  chunk.num_rows = values.size();
  chunk.validity = PackValidity(valid, values.size());
  chunk.null_count = CountNulls(chunk.validity, values.size());
  bool first = true;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!chunk.ValidAt(i)) continue;
    if (first || values[i] < chunk.zone_min) chunk.zone_min = values[i];
    if (first || values[i] > chunk.zone_max) chunk.zone_max = values[i];
    first = false;
  }
  std::unordered_map<std::string, uint32_t> index;
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const auto& s : values) {
    auto [it, inserted] = index.emplace(s, static_cast<uint32_t>(dict.size()));
    if (inserted) dict.push_back(s);
    codes.push_back(it->second);
  }
  size_t dict_bytes = codes.size() * sizeof(uint32_t);
  for (const auto& s : dict) dict_bytes += s.size() + 4;
  size_t plain_bytes = 0;
  for (const auto& s : values) plain_bytes += s.size() + 4;
  if (dict_bytes < plain_bytes) {
    chunk.encoding = Encoding::kDict;
    chunk.dict = std::move(dict);
    chunk.codes = std::move(codes);
  } else {
    chunk.encoding = Encoding::kPlain;
    chunk.plain = values;
  }
  return chunk;
}

ColumnTable::ColumnTable(sql::Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

size_t ColumnTable::num_chunks() const {
  if (columns_.empty()) return 0;
  const ColumnData& c = columns_[0];
  return c.type == sql::TypeId::kString ? c.string_chunks.size()
                                        : c.int_chunks.size();
}

Status ColumnTable::Append(const sql::Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("column append: arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnData& c = columns_[i];
    const bool valid = !row[i].is_null();
    switch (c.type) {
      case sql::TypeId::kInt64:
      case sql::TypeId::kTimestamp:
        c.int_tail.push_back(valid ? row[i].AsInt() : 0);
        break;
      case sql::TypeId::kDouble: {
        double d = valid ? row[i].AsDouble() : 0.0;
        int64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        c.int_tail.push_back(bits);
        break;
      }
      case sql::TypeId::kString:
        c.string_tail.push_back(valid ? row[i].AsString() : "");
        break;
      default:
        return Status::NotImplemented("column type unsupported");
    }
    c.tail_valid.push_back(valid);
  }
  ++num_rows_;
  if (num_rows_ - sealed_rows_ == kChunkRows) Seal();
  return Status::OK();
}

void ColumnTable::Seal() {
  if (sealed_rows_ == num_rows_) return;  // idempotent: nothing buffered
  for (auto& c : columns_) EncodeTail(&c);
  sealed_rows_ = num_rows_;
}

void ColumnTable::EncodeTail(ColumnData* c) {
  if (!c->int_tail.empty()) {
    c->int_chunks.push_back(EncodeInt64(c->int_tail, &c->tail_valid));
    c->int_tail.clear();
  }
  if (!c->string_tail.empty()) {
    c->string_chunks.push_back(EncodeString(c->string_tail, &c->tail_valid));
    c->string_tail.clear();
  }
  c->tail_valid.clear();
}

Result<size_t> ColumnTable::ColIndex(const std::string& col,
                                     sql::TypeId expect) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(col));
  sql::TypeId t = columns_[idx].type;
  bool int_like = t == sql::TypeId::kInt64 || t == sql::TypeId::kTimestamp;
  bool expect_int = expect == sql::TypeId::kInt64;
  if (expect_int != int_like && t != expect) {
    return Status::InvalidArgument("column type mismatch: " + col);
  }
  return idx;
}

void ColumnTable::RunMorsels(
    size_t chunk_count, const ScanOptions& opts,
    const std::function<void(size_t, size_t, size_t)>& fn) const {
  if (chunk_count == 0) return;
  const size_t per = std::max<size_t>(1, opts.morsel_chunks);
  const size_t num_morsels = (chunk_count + per - 1) / per;
  auto run = [&](size_t m) {
    const size_t begin = m * per;
    const size_t end = std::min(begin + per, chunk_count);
    fn(begin, end, m);
  };
  if (opts.parallel && num_morsels > 1) {
    common::ThreadPool* pool =
        opts.pool ? opts.pool : &common::ThreadPool::Shared();
    pool->ParallelFor(static_cast<int>(num_morsels),
                      [&](int m) { run(static_cast<size_t>(m)); });
  } else {
    for (size_t m = 0; m < num_morsels; ++m) run(m);
  }
}

Result<std::vector<uint32_t>> ColumnTable::FilterRangeInt64(
    const std::string& col, int64_t lo, int64_t hi, const ScanOptions& opts,
    ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  const auto& chunks = columns_[idx].int_chunks;

  // Global row id of each chunk's first row, precomputed so morsels are
  // independent.
  std::vector<uint32_t> chunk_base(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunk_base[c + 1] = chunk_base[c] + static_cast<uint32_t>(chunks[c].num_rows);
  }

  const size_t per = std::max<size_t>(1, opts.morsel_chunks);
  const size_t num_morsels = chunks.empty() ? 0 : (chunks.size() + per - 1) / per;
  std::vector<std::vector<uint32_t>> morsel_sel(num_morsels);
  std::vector<ScanStats> morsel_stats(num_morsels);

  RunMorsels(chunks.size(), opts, [&](size_t begin, size_t end, size_t m) {
    std::vector<uint32_t>& sel = morsel_sel[m];
    ScanStats& st = morsel_stats[m];
    for (size_t c = begin; c < end; ++c) {
      const Int64Chunk& chunk = chunks[c];
      const uint32_t base = chunk_base[c];
      ++st.chunks_total;
      // Zone-map pruning: no non-null value can land in [lo, hi].
      if (chunk.zone.all_null() || chunk.zone.max < lo || chunk.zone.min > hi) {
        ++st.chunks_pruned;
        continue;
      }
      // Full-match short-circuit: every non-null value is in range. With no
      // NULLs the selection is the whole chunk — no value is decoded.
      if (chunk.validity.empty() && chunk.zone.min >= lo && chunk.zone.max <= hi) {
        ++st.chunks_pruned;
        for (uint32_t k = 0; k < chunk.num_rows; ++k) sel.push_back(base + k);
        continue;
      }
      ++st.chunks_scanned;
      if (chunk.encoding == Encoding::kRle) {
        // Operate on runs directly: whole runs pass or fail at once.
        uint32_t off = 0;
        for (size_t r = 0; r < chunk.rle_values.size(); ++r) {
          ++st.rows_decoded;
          const uint32_t len = chunk.rle_lengths[r];
          const int64_t v = chunk.rle_values[r];
          if (v >= lo && v <= hi) {
            for (uint32_t k = 0; k < len; ++k) {
              if (chunk.ValidAt(off + k)) sel.push_back(base + off + k);
            }
          }
          off += len;
        }
      } else {
        for (size_t i = 0; i < chunk.plain.size(); ++i) {
          ++st.rows_decoded;
          if (chunk.plain[i] >= lo && chunk.plain[i] <= hi && chunk.ValidAt(i)) {
            sel.push_back(base + static_cast<uint32_t>(i));
          }
        }
      }
    }
  });

  // Deterministic chunk-order merge: morsel m covers chunks [m*per, ...), so
  // concatenation in morsel order is exactly the serial scan order.
  std::vector<uint32_t> sel;
  ScanStats merged;
  for (size_t m = 0; m < num_morsels; ++m) {
    sel.insert(sel.end(), morsel_sel[m].begin(), morsel_sel[m].end());
    merged.MergeFrom(morsel_stats[m]);
  }
  merged.morsels = num_morsels;
  merged.rows_matched = sel.size();
  if (stats != nullptr) stats->MergeFrom(merged);
  return sel;
}

Result<std::vector<uint32_t>> ColumnTable::FilterGtInt64(
    const std::string& col, int64_t bound, const ScanOptions& opts,
    ScanStats* stats) const {
  if (bound == std::numeric_limits<int64_t>::max()) {
    OFI_RETURN_NOT_OK(ColIndex(col, sql::TypeId::kInt64).status());
    return std::vector<uint32_t>{};
  }
  return FilterRangeInt64(col, bound + 1, std::numeric_limits<int64_t>::max(),
                          opts, stats);
}

Result<std::vector<uint32_t>> ColumnTable::FilterGeInt64(
    const std::string& col, int64_t bound, const ScanOptions& opts,
    ScanStats* stats) const {
  return FilterRangeInt64(col, bound, std::numeric_limits<int64_t>::max(),
                          opts, stats);
}

Result<std::vector<uint32_t>> ColumnTable::FilterLtInt64(
    const std::string& col, int64_t bound, const ScanOptions& opts,
    ScanStats* stats) const {
  if (bound == std::numeric_limits<int64_t>::min()) {
    OFI_RETURN_NOT_OK(ColIndex(col, sql::TypeId::kInt64).status());
    return std::vector<uint32_t>{};
  }
  return FilterRangeInt64(col, std::numeric_limits<int64_t>::min(), bound - 1,
                          opts, stats);
}

Result<std::vector<uint32_t>> ColumnTable::FilterLeInt64(
    const std::string& col, int64_t bound, const ScanOptions& opts,
    ScanStats* stats) const {
  return FilterRangeInt64(col, std::numeric_limits<int64_t>::min(), bound,
                          opts, stats);
}

Result<std::vector<uint32_t>> ColumnTable::FilterBetweenInt64(
    const std::string& col, int64_t lo, int64_t hi, const ScanOptions& opts,
    ScanStats* stats) const {
  return FilterRangeInt64(col, lo, hi, opts, stats);
}

Result<std::vector<uint32_t>> ColumnTable::FilterEqString(
    const std::string& col, const std::string& needle, const ScanOptions& opts,
    ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kString));
  const auto& chunks = columns_[idx].string_chunks;

  std::vector<uint32_t> chunk_base(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunk_base[c + 1] = chunk_base[c] + static_cast<uint32_t>(chunks[c].num_rows);
  }

  const size_t per = std::max<size_t>(1, opts.morsel_chunks);
  const size_t num_morsels = chunks.empty() ? 0 : (chunks.size() + per - 1) / per;
  std::vector<std::vector<uint32_t>> morsel_sel(num_morsels);
  std::vector<ScanStats> morsel_stats(num_morsels);

  RunMorsels(chunks.size(), opts, [&](size_t begin, size_t end, size_t m) {
    std::vector<uint32_t>& sel = morsel_sel[m];
    ScanStats& st = morsel_stats[m];
    for (size_t c = begin; c < end; ++c) {
      const StringChunk& chunk = chunks[c];
      const uint32_t base = chunk_base[c];
      ++st.chunks_total;
      // Zone-map pruning on the lexicographic span.
      if (chunk.all_null() || needle < chunk.zone_min || needle > chunk.zone_max) {
        ++st.chunks_pruned;
        continue;
      }
      ++st.chunks_scanned;
      if (chunk.encoding == Encoding::kDict) {
        // Compare against the dictionary once, then match codes.
        int32_t code = -1;
        for (size_t d = 0; d < chunk.dict.size(); ++d) {
          ++st.rows_decoded;
          if (chunk.dict[d] == needle) {
            code = static_cast<int32_t>(d);
            break;
          }
        }
        if (code >= 0) {
          st.rows_decoded += chunk.codes.size();
          for (size_t i = 0; i < chunk.codes.size(); ++i) {
            if (chunk.codes[i] == static_cast<uint32_t>(code) && chunk.ValidAt(i)) {
              sel.push_back(base + static_cast<uint32_t>(i));
            }
          }
        }
      } else {
        st.rows_decoded += chunk.plain.size();
        for (size_t i = 0; i < chunk.plain.size(); ++i) {
          if (chunk.plain[i] == needle && chunk.ValidAt(i)) {
            sel.push_back(base + static_cast<uint32_t>(i));
          }
        }
      }
    }
  });

  std::vector<uint32_t> sel;
  ScanStats merged;
  for (size_t m = 0; m < num_morsels; ++m) {
    sel.insert(sel.end(), morsel_sel[m].begin(), morsel_sel[m].end());
    merged.MergeFrom(morsel_stats[m]);
  }
  merged.morsels = num_morsels;
  merged.rows_matched = sel.size();
  if (stats != nullptr) stats->MergeFrom(merged);
  return sel;
}

namespace {

/// Per-morsel aggregate partial. Sum wraps modularly (commutative and
/// associative), so any merge order is bit-identical.
struct AggPartial {
  int64_t sum = 0;
  int64_t count = 0;  // non-null values seen
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void MergeFrom(const AggPartial& o) {
    sum = sql::WrapAdd(sum, o.sum);
    count += o.count;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
};

}  // namespace

Result<std::optional<int64_t>> ColumnTable::SumInt64(
    const std::string& col, const std::vector<uint32_t>* sel,
    const ScanOptions& opts, ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  const auto& chunks = columns_[idx].int_chunks;

  if (sel == nullptr) {
    const size_t per = std::max<size_t>(1, opts.morsel_chunks);
    const size_t num_morsels =
        chunks.empty() ? 0 : (chunks.size() + per - 1) / per;
    std::vector<AggPartial> partials(num_morsels);
    std::vector<ScanStats> morsel_stats(num_morsels);
    RunMorsels(chunks.size(), opts, [&](size_t begin, size_t end, size_t m) {
      AggPartial& p = partials[m];
      ScanStats& st = morsel_stats[m];
      for (size_t c = begin; c < end; ++c) {
        const Int64Chunk& chunk = chunks[c];
        ++st.chunks_total;
        if (chunk.zone.all_null()) {
          ++st.chunks_pruned;
          continue;
        }
        ++st.chunks_scanned;
        p.count += chunk.zone.non_null();
        if (chunk.encoding == Encoding::kRle) {
          // Aggregate runs without decoding: value x count of valid rows in
          // the run (popcount over the validity bitmap when NULLs exist).
          uint32_t off = 0;
          for (size_t r = 0; r < chunk.rle_values.size(); ++r) {
            ++st.rows_decoded;
            const uint32_t len = chunk.rle_lengths[r];
            const int64_t valid_len = static_cast<int64_t>(
                BitmapCountValid(chunk.validity, off, off + len));
            p.sum = sql::WrapAdd(
                p.sum, sql::WrapMul(chunk.rle_values[r], valid_len));
            off += len;
          }
        } else {
          st.rows_decoded += chunk.plain.size();
          for (size_t i = 0; i < chunk.plain.size(); ++i) {
            if (chunk.ValidAt(i)) p.sum = sql::WrapAdd(p.sum, chunk.plain[i]);
          }
        }
      }
    });
    AggPartial total;
    ScanStats merged;
    for (size_t m = 0; m < num_morsels; ++m) {
      total.MergeFrom(partials[m]);
      merged.MergeFrom(morsel_stats[m]);
    }
    merged.morsels = num_morsels;
    if (stats != nullptr) stats->MergeFrom(merged);
    if (total.count == 0) return std::optional<int64_t>{};
    return std::optional<int64_t>{total.sum};
  }

  // Selection path: decode chunk-by-chunk on demand (selections are sorted
  // by construction, so each chunk is decoded at most once).
  ScanStats st;
  int64_t sum = 0;
  int64_t count = 0;
  std::vector<int64_t> decoded;
  size_t chunk_idx = 0;
  uint32_t chunk_start = 0;
  auto ensure_chunk = [&](uint32_t row) {
    while (chunk_idx < chunks.size() &&
           row >= chunk_start + chunks[chunk_idx].num_rows) {
      chunk_start += static_cast<uint32_t>(chunks[chunk_idx].num_rows);
      ++chunk_idx;
      decoded.clear();
    }
    if (decoded.empty() && chunk_idx < chunks.size()) {
      chunks[chunk_idx].Decode(&decoded);
      ++st.chunks_scanned;
      st.rows_decoded += decoded.size();
    }
  };
  for (uint32_t row : *sel) {
    ensure_chunk(row);
    if (chunk_idx >= chunks.size()) break;
    if (!chunks[chunk_idx].ValidAt(row - chunk_start)) continue;
    sum = sql::WrapAdd(sum, decoded[row - chunk_start]);
    ++count;
  }
  st.chunks_total = chunks.size();
  if (stats != nullptr) stats->MergeFrom(st);
  if (count == 0) return std::optional<int64_t>{};
  return std::optional<int64_t>{sum};
}

Result<std::optional<int64_t>> ColumnTable::MinInt64(
    const std::string& col, const std::vector<uint32_t>* sel,
    const ScanOptions& opts, ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  const auto& chunks = columns_[idx].int_chunks;
  if (sel == nullptr) {
    // Answered from zone maps alone (the small-materialized-aggregate win).
    ScanStats st;
    st.chunks_total = chunks.size();
    st.chunks_pruned = chunks.size();
    std::optional<int64_t> best;
    for (const auto& chunk : chunks) {
      if (chunk.zone.all_null()) continue;
      best = best ? std::min(*best, chunk.zone.min) : chunk.zone.min;
    }
    if (stats != nullptr) stats->MergeFrom(st);
    return best;
  }
  ScanStats st;
  std::optional<int64_t> best;
  std::vector<int64_t> decoded;
  size_t chunk_idx = 0;
  uint32_t chunk_start = 0;
  for (uint32_t row : *sel) {
    while (chunk_idx < chunks.size() &&
           row >= chunk_start + chunks[chunk_idx].num_rows) {
      chunk_start += static_cast<uint32_t>(chunks[chunk_idx].num_rows);
      ++chunk_idx;
      decoded.clear();
    }
    if (chunk_idx >= chunks.size()) break;
    if (decoded.empty()) {
      chunks[chunk_idx].Decode(&decoded);
      ++st.chunks_scanned;
      st.rows_decoded += decoded.size();
    }
    if (!chunks[chunk_idx].ValidAt(row - chunk_start)) continue;
    int64_t v = decoded[row - chunk_start];
    best = best ? std::min(*best, v) : v;
  }
  st.chunks_total = chunks.size();
  if (stats != nullptr) stats->MergeFrom(st);
  return best;
}

Result<std::optional<int64_t>> ColumnTable::MaxInt64(
    const std::string& col, const std::vector<uint32_t>* sel,
    const ScanOptions& opts, ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  const auto& chunks = columns_[idx].int_chunks;
  if (sel == nullptr) {
    ScanStats st;
    st.chunks_total = chunks.size();
    st.chunks_pruned = chunks.size();
    std::optional<int64_t> best;
    for (const auto& chunk : chunks) {
      if (chunk.zone.all_null()) continue;
      best = best ? std::max(*best, chunk.zone.max) : chunk.zone.max;
    }
    if (stats != nullptr) stats->MergeFrom(st);
    return best;
  }
  ScanStats st;
  std::optional<int64_t> best;
  std::vector<int64_t> decoded;
  size_t chunk_idx = 0;
  uint32_t chunk_start = 0;
  for (uint32_t row : *sel) {
    while (chunk_idx < chunks.size() &&
           row >= chunk_start + chunks[chunk_idx].num_rows) {
      chunk_start += static_cast<uint32_t>(chunks[chunk_idx].num_rows);
      ++chunk_idx;
      decoded.clear();
    }
    if (chunk_idx >= chunks.size()) break;
    if (decoded.empty()) {
      chunks[chunk_idx].Decode(&decoded);
      ++st.chunks_scanned;
      st.rows_decoded += decoded.size();
    }
    if (!chunks[chunk_idx].ValidAt(row - chunk_start)) continue;
    int64_t v = decoded[row - chunk_start];
    best = best ? std::max(*best, v) : v;
  }
  st.chunks_total = chunks.size();
  if (stats != nullptr) stats->MergeFrom(st);
  return best;
}

Result<int64_t> ColumnTable::CountInt64(const std::string& col,
                                        const std::vector<uint32_t>* sel,
                                        const ScanOptions& opts,
                                        ScanStats* stats) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  const auto& chunks = columns_[idx].int_chunks;
  ScanStats st;
  st.chunks_total = chunks.size();
  int64_t count = 0;
  if (sel == nullptr) {
    // Zone maps carry exact null counts — no chunk is touched.
    st.chunks_pruned = chunks.size();
    for (const auto& chunk : chunks) count += chunk.zone.non_null();
  } else {
    // Validity bitmaps only; values are never decoded.
    size_t chunk_idx = 0;
    uint32_t chunk_start = 0;
    for (uint32_t row : *sel) {
      while (chunk_idx < chunks.size() &&
             row >= chunk_start + chunks[chunk_idx].num_rows) {
        chunk_start += static_cast<uint32_t>(chunks[chunk_idx].num_rows);
        ++chunk_idx;
      }
      if (chunk_idx >= chunks.size()) break;
      count += chunks[chunk_idx].ValidAt(row - chunk_start) ? 1 : 0;
    }
  }
  if (stats != nullptr) stats->MergeFrom(st);
  return count;
}

namespace {

/// Platform-stable 64-bit mixers (the partition-hash requirement from
/// cluster/exchange applies here too: morsel merges must not depend on
/// std::hash implementation details).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashString64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x9ddfea08eb382d69ULL;
}

constexpr uint64_t kNullKeyHash = 0x7f4a7c159e3779b9ULL;

/// One key column's value for the row being probed.
struct KeyRef {
  bool valid = false;
  int64_t i = 0;
  const std::string* s = nullptr;  // set for string keys
};

/// A flat open-addressing group table with columnar group storage. The
/// storage doubles as the kernel's result (GroupedAggResult), so the merged
/// table is returned without a copy.
struct GroupTable {
  GroupedAggResult data;
  std::vector<uint64_t> group_hash;  // per group, parallel to data
  std::vector<uint32_t> slots;       // group index + 1; 0 = empty
  size_t mask = 0;

  GroupTable(const std::vector<sql::TypeId>& key_types, size_t num_aggs) {
    data.keys.resize(key_types.size());
    for (size_t k = 0; k < key_types.size(); ++k) {
      data.keys[k].type = key_types[k];
    }
    data.aggs.resize(num_aggs);
    slots.assign(16, 0);
    mask = slots.size() - 1;
  }

  void Rehash() {
    slots.assign(slots.size() * 2, 0);
    mask = slots.size() - 1;
    for (uint32_t g = 0; g < data.num_groups; ++g) {
      size_t i = group_hash[g] & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = g + 1;
    }
  }

  bool KeyEquals(uint32_t g, const std::vector<KeyRef>& key) const {
    for (size_t k = 0; k < key.size(); ++k) {
      const auto& kc = data.keys[k];
      const bool gv = kc.valid[g] != 0;
      if (gv != key[k].valid) return false;
      if (!gv) continue;  // NULL == NULL for grouping
      if (kc.type == sql::TypeId::kString) {
        if (kc.strs[g] != *key[k].s) return false;
      } else {
        if (kc.ints[g] != key[k].i) return false;
      }
    }
    return true;
  }

  /// Finds the group for `key`, appending a new one (with init'd aggregate
  /// states) on first sight. Insertion order is the result's group order.
  uint32_t FindOrAdd(uint64_t h, const std::vector<KeyRef>& key,
                     const std::vector<GroupedAggSpec>& specs) {
    if ((data.num_groups + 1) * 10 > slots.size() * 7) Rehash();
    size_t i = h & mask;
    while (slots[i] != 0) {
      const uint32_t g = slots[i] - 1;
      if (group_hash[g] == h && KeyEquals(g, key)) return g;
      i = (i + 1) & mask;
    }
    const uint32_t g = static_cast<uint32_t>(data.num_groups++);
    slots[i] = g + 1;
    group_hash.push_back(h);
    for (size_t k = 0; k < key.size(); ++k) {
      auto& kc = data.keys[k];
      kc.valid.push_back(key[k].valid ? 1 : 0);
      if (kc.type == sql::TypeId::kString) {
        kc.strs.push_back(key[k].valid ? *key[k].s : std::string());
      } else {
        kc.ints.push_back(key[k].valid ? key[k].i : 0);
      }
    }
    for (size_t j = 0; j < specs.size(); ++j) {
      int64_t init = 0;
      if (specs[j].op == GroupedAggOp::kMin) {
        init = std::numeric_limits<int64_t>::max();
      } else if (specs[j].op == GroupedAggOp::kMax) {
        init = std::numeric_limits<int64_t>::min();
      }
      data.aggs[j].value.push_back(init);
      data.aggs[j].count.push_back(0);
    }
    return g;
  }

  /// Folds one input value (valid = non-NULL) into group g's state for
  /// aggregate j. kCountStar counts NULLs too; everything else skips them.
  void Accumulate(uint32_t g, size_t j, GroupedAggOp op, bool valid, int64_t v) {
    auto& a = data.aggs[j];
    switch (op) {
      case GroupedAggOp::kCountStar:
        ++a.value[g];
        ++a.count[g];
        break;
      case GroupedAggOp::kCount:
        if (valid) {
          ++a.value[g];
          ++a.count[g];
        }
        break;
      case GroupedAggOp::kSum:
        if (valid) {
          a.value[g] = sql::WrapAdd(a.value[g], v);
          ++a.count[g];
        }
        break;
      case GroupedAggOp::kMin:
        if (valid) {
          a.value[g] = std::min(a.value[g], v);
          ++a.count[g];
        }
        break;
      case GroupedAggOp::kMax:
        if (valid) {
          a.value[g] = std::max(a.value[g], v);
          ++a.count[g];
        }
        break;
    }
  }

  /// Merges another partial table, preserving this table's insertion order
  /// (new groups append in `o`'s order — morsel-order merges are therefore
  /// identical to the serial scan's first-appearance order).
  void MergeFrom(const GroupTable& o, const std::vector<GroupedAggSpec>& specs) {
    std::vector<KeyRef> key(o.data.keys.size());
    for (uint32_t og = 0; og < o.data.num_groups; ++og) {
      for (size_t k = 0; k < o.data.keys.size(); ++k) {
        const auto& kc = o.data.keys[k];
        key[k].valid = kc.valid[og] != 0;
        if (kc.type == sql::TypeId::kString) {
          key[k].s = &kc.strs[og];
        } else {
          key[k].i = kc.ints[og];
        }
      }
      const uint32_t g = FindOrAdd(o.group_hash[og], key, specs);
      for (size_t j = 0; j < specs.size(); ++j) {
        auto& dst = data.aggs[j];
        const auto& src = o.data.aggs[j];
        switch (specs[j].op) {
          case GroupedAggOp::kCountStar:
          case GroupedAggOp::kCount:
          case GroupedAggOp::kSum:
            dst.value[g] = sql::WrapAdd(dst.value[g], src.value[og]);
            break;
          case GroupedAggOp::kMin:
            dst.value[g] = std::min(dst.value[g], src.value[og]);
            break;
          case GroupedAggOp::kMax:
            dst.value[g] = std::max(dst.value[g], src.value[og]);
            break;
        }
        dst.count[g] += src.count[og];
      }
    }
  }
};

}  // namespace

std::vector<uint32_t> ColumnTable::ChunkBases() const {
  std::vector<uint32_t> bases{0};
  if (columns_.empty()) return bases;
  const ColumnData& c = columns_[0];
  if (c.type == sql::TypeId::kString) {
    for (const auto& chunk : c.string_chunks) {
      bases.push_back(bases.back() + static_cast<uint32_t>(chunk.num_rows));
    }
  } else {
    for (const auto& chunk : c.int_chunks) {
      bases.push_back(bases.back() + static_cast<uint32_t>(chunk.num_rows));
    }
  }
  return bases;
}

Result<GroupedAggResult> ColumnTable::GroupedAggregate(
    const std::vector<std::string>& key_cols,
    const std::vector<GroupedAggSpec>& aggs, const std::vector<uint32_t>* sel,
    const ScanOptions& opts, ScanStats* stats) const {
  if (key_cols.empty()) {
    return Status::InvalidArgument("grouped aggregate needs group keys");
  }
  // Resolve keys (int64/timestamp/string) and aggregate inputs (int64
  // payload); every column a chunk pass reads is resolved once up front.
  std::vector<size_t> key_idx(key_cols.size());
  std::vector<sql::TypeId> key_types(key_cols.size());
  for (size_t k = 0; k < key_cols.size(); ++k) {
    OFI_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(key_cols[k]));
    const sql::TypeId t = columns_[idx].type;
    if (t != sql::TypeId::kInt64 && t != sql::TypeId::kTimestamp &&
        t != sql::TypeId::kString) {
      return Status::InvalidArgument("group key type unsupported: " +
                                     key_cols[k]);
    }
    key_idx[k] = idx;
    key_types[k] = t;
  }
  std::vector<size_t> agg_idx(aggs.size(), SIZE_MAX);
  for (size_t j = 0; j < aggs.size(); ++j) {
    if (aggs[j].op == GroupedAggOp::kCountStar) continue;
    OFI_ASSIGN_OR_RETURN(agg_idx[j], ColIndex(aggs[j].column, sql::TypeId::kInt64));
  }
  // The distinct columns each chunk pass decodes (the per-column-chunk work
  // unit the scan counters charge).
  std::vector<size_t> used_cols;
  for (size_t idx : key_idx) {
    if (std::find(used_cols.begin(), used_cols.end(), idx) == used_cols.end()) {
      used_cols.push_back(idx);
    }
  }
  for (size_t idx : agg_idx) {
    if (idx != SIZE_MAX &&
        std::find(used_cols.begin(), used_cols.end(), idx) == used_cols.end()) {
      used_cols.push_back(idx);
    }
  }

  const std::vector<uint32_t> bases = ChunkBases();
  const size_t chunk_count = bases.size() - 1;
  const size_t per = std::max<size_t>(1, opts.morsel_chunks);
  const size_t num_morsels =
      chunk_count == 0 ? 0 : (chunk_count + per - 1) / per;

  std::vector<std::unique_ptr<GroupTable>> partials(num_morsels);
  std::vector<ScanStats> morsel_stats(num_morsels);

  RunMorsels(chunk_count, opts, [&](size_t begin, size_t end, size_t m) {
    partials[m] = std::make_unique<GroupTable>(key_types, aggs.size());
    GroupTable& gt = *partials[m];
    ScanStats& st = morsel_stats[m];
    // Per-used-column decode scratch, refilled per chunk.
    std::vector<std::vector<int64_t>> decoded(columns_.size());
    std::vector<KeyRef> key(key_idx.size());
    for (size_t c = begin; c < end; ++c) {
      const uint32_t base = bases[c];
      const uint32_t rows = bases[c + 1] - base;
      // Selected rows of this chunk: [lo, hi) into *sel, or the whole chunk.
      size_t sel_lo = 0, sel_hi = 0;
      if (sel != nullptr) {
        sel_lo = static_cast<size_t>(
            std::lower_bound(sel->begin(), sel->end(), base) - sel->begin());
        sel_hi = static_cast<size_t>(
            std::lower_bound(sel->begin(), sel->end(), base + rows) -
            sel->begin());
      }
      const size_t selected =
          sel != nullptr ? sel_hi - sel_lo : static_cast<size_t>(rows);
      st.chunks_total += used_cols.size();
      if (selected == 0) {
        // Filter already pruned every row here: the grouped kernel never
        // touches the chunk (the zone-map win carries through the group by).
        st.chunks_pruned += used_cols.size();
        continue;
      }
      st.chunks_scanned += used_cols.size();
      st.rows_decoded += selected * used_cols.size();
      for (size_t idx : used_cols) {
        if (columns_[idx].type != sql::TypeId::kString) {
          columns_[idx].int_chunks[c].Decode(&decoded[idx]);
        }
      }
      for (size_t s = 0; s < selected; ++s) {
        const uint32_t row =
            sel != nullptr ? (*sel)[sel_lo + s] : base + static_cast<uint32_t>(s);
        const size_t off = row - base;
        uint64_t h = 0x2545f4914f6cdd1dULL;
        for (size_t k = 0; k < key_idx.size(); ++k) {
          const size_t idx = key_idx[k];
          if (key_types[k] == sql::TypeId::kString) {
            const StringChunk& chunk = columns_[idx].string_chunks[c];
            key[k].valid = chunk.ValidAt(off);
            key[k].s = &chunk.At(off);
            h = HashCombine(h, key[k].valid ? HashString64(*key[k].s)
                                            : kNullKeyHash);
          } else {
            const Int64Chunk& chunk = columns_[idx].int_chunks[c];
            key[k].valid = chunk.ValidAt(off);
            key[k].i = decoded[idx][off];
            h = HashCombine(h, key[k].valid
                                   ? Mix64(static_cast<uint64_t>(key[k].i))
                                   : kNullKeyHash);
          }
        }
        const uint32_t g = gt.FindOrAdd(h, key, aggs);
        for (size_t j = 0; j < aggs.size(); ++j) {
          if (aggs[j].op == GroupedAggOp::kCountStar) {
            gt.Accumulate(g, j, aggs[j].op, true, 0);
            continue;
          }
          const Int64Chunk& chunk = columns_[agg_idx[j]].int_chunks[c];
          gt.Accumulate(g, j, aggs[j].op, chunk.ValidAt(off),
                        decoded[agg_idx[j]][off]);
        }
      }
    }
  });

  // Deterministic merge in morsel order: group order = first appearance in
  // chunk order, identical serial vs parallel.
  GroupTable merged(key_types, aggs.size());
  ScanStats st;
  for (size_t m = 0; m < num_morsels; ++m) {
    merged.MergeFrom(*partials[m], aggs);
    st.MergeFrom(morsel_stats[m]);
  }
  st.morsels = num_morsels;
  st.rows_matched = merged.data.num_groups;
  if (stats != nullptr) stats->MergeFrom(st);
  return std::move(merged.data);
}

Result<std::vector<sql::Row>> ColumnTable::MaterializeRows(
    const std::vector<uint32_t>& sel, ScanStats* stats) const {
  const size_t ncols = columns_.size();
  const std::vector<uint32_t> bases = ChunkBases();
  const size_t chunk_count = bases.size() - 1;
  ScanStats st;
  st.chunks_total = chunk_count * ncols;
  std::vector<sql::Row> out;
  out.reserve(sel.size());
  std::vector<std::vector<int64_t>> decoded(ncols);
  size_t pos = 0;
  for (size_t c = 0; c < chunk_count && pos < sel.size(); ++c) {
    const uint32_t base = bases[c];
    const uint32_t end = bases[c + 1];
    if (sel[pos] >= end) continue;  // no selected row in this chunk
    size_t last = pos;
    while (last < sel.size() && sel[last] < end) ++last;
    st.chunks_scanned += ncols;
    st.rows_decoded += (last - pos) * ncols;
    for (size_t col = 0; col < ncols; ++col) {
      if (columns_[col].type != sql::TypeId::kString) {
        columns_[col].int_chunks[c].Decode(&decoded[col]);
      }
    }
    for (size_t s = pos; s < last; ++s) {
      const size_t off = sel[s] - base;
      sql::Row row;
      row.reserve(ncols);
      for (size_t col = 0; col < ncols; ++col) {
        switch (columns_[col].type) {
          case sql::TypeId::kString: {
            const StringChunk& chunk = columns_[col].string_chunks[c];
            row.push_back(chunk.ValidAt(off) ? sql::Value(chunk.At(off))
                                             : sql::Value::Null());
            break;
          }
          case sql::TypeId::kTimestamp: {
            const Int64Chunk& chunk = columns_[col].int_chunks[c];
            row.push_back(chunk.ValidAt(off)
                              ? sql::Value::Timestamp(decoded[col][off])
                              : sql::Value::Null());
            break;
          }
          case sql::TypeId::kDouble: {
            const Int64Chunk& chunk = columns_[col].int_chunks[c];
            if (!chunk.ValidAt(off)) {
              row.push_back(sql::Value::Null());
              break;
            }
            double d;
            std::memcpy(&d, &decoded[col][off], sizeof(d));
            row.push_back(sql::Value(d));
            break;
          }
          default: {
            const Int64Chunk& chunk = columns_[col].int_chunks[c];
            row.push_back(chunk.ValidAt(off) ? sql::Value(decoded[col][off])
                                             : sql::Value::Null());
          }
        }
      }
      out.push_back(std::move(row));
    }
    pos = last;
  }
  st.chunks_pruned = st.chunks_total - st.chunks_scanned;
  if (stats != nullptr) stats->MergeFrom(st);
  return out;
}

Result<PruneEstimate> ColumnTable::EstimatePruningInt64(const std::string& col,
                                                        int64_t lo,
                                                        int64_t hi) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kInt64));
  PruneEstimate e;
  for (const auto& chunk : columns_[idx].int_chunks) {
    ++e.chunks_total;
    if (chunk.zone.all_null() || chunk.zone.max < lo || chunk.zone.min > hi ||
        (chunk.validity.empty() && chunk.zone.min >= lo && chunk.zone.max <= hi)) {
      ++e.chunks_prunable;
    }
  }
  return e;
}

Result<PruneEstimate> ColumnTable::EstimatePruningStringEq(
    const std::string& col, const std::string& needle) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, ColIndex(col, sql::TypeId::kString));
  PruneEstimate e;
  for (const auto& chunk : columns_[idx].string_chunks) {
    ++e.chunks_total;
    if (chunk.all_null() || needle < chunk.zone_min || needle > chunk.zone_max) {
      ++e.chunks_prunable;
    }
  }
  return e;
}

Result<std::vector<sql::Row>> ColumnTable::Gather(
    const std::vector<uint32_t>& sel) const {
  // Decode every int column fully once, then gather. Fine at bench scale.
  std::vector<std::vector<int64_t>> int_cols(columns_.size());
  std::vector<std::vector<uint8_t>> int_valid(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].type == sql::TypeId::kString) continue;
    std::vector<int64_t> all;
    std::vector<uint8_t> valid;
    std::vector<int64_t> tmp;
    for (const auto& chunk : columns_[c].int_chunks) {
      chunk.Decode(&tmp);
      all.insert(all.end(), tmp.begin(), tmp.end());
      for (size_t i = 0; i < chunk.num_rows; ++i) {
        valid.push_back(chunk.ValidAt(i) ? 1 : 0);
      }
    }
    int_cols[c] = std::move(all);
    int_valid[c] = std::move(valid);
  }
  std::vector<sql::Row> out;
  out.reserve(sel.size());
  for (uint32_t r : sel) {
    sql::Row row;
    row.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      switch (columns_[c].type) {
        case sql::TypeId::kInt64:
          row.push_back(int_valid[c][r] ? sql::Value(int_cols[c][r])
                                        : sql::Value::Null());
          break;
        case sql::TypeId::kTimestamp:
          row.push_back(int_valid[c][r] ? sql::Value::Timestamp(int_cols[c][r])
                                        : sql::Value::Null());
          break;
        case sql::TypeId::kDouble: {
          if (!int_valid[c][r]) {
            row.push_back(sql::Value::Null());
            break;
          }
          double d;
          std::memcpy(&d, &int_cols[c][r], sizeof(d));
          row.push_back(sql::Value(d));
          break;
        }
        case sql::TypeId::kString: {
          // Locate the chunk containing r.
          uint32_t base = 0;
          for (const auto& chunk : columns_[c].string_chunks) {
            if (r < base + chunk.num_rows) {
              row.push_back(chunk.ValidAt(r - base)
                                ? sql::Value(chunk.At(r - base))
                                : sql::Value::Null());
              break;
            }
            base += static_cast<uint32_t>(chunk.num_rows);
          }
          break;
        }
        default:
          row.push_back(sql::Value::Null());
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<ColumnZoneSummary> ColumnTable::ZoneSummary(const std::string& col) const {
  OFI_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(col));
  const ColumnData& c = columns_[idx];
  ColumnZoneSummary s;
  s.type = c.type;
  if (c.type == sql::TypeId::kString) {
    s.num_chunks = c.string_chunks.size();
    bool first = true;
    for (const auto& chunk : c.string_chunks) {
      s.rows += chunk.num_rows;
      s.nulls += chunk.null_count;
      s.dict_ndv = std::max<uint64_t>(
          s.dict_ndv,
          chunk.encoding == Encoding::kDict ? chunk.dict.size() : 0);
      // Plain payload bytes without decoding: dict entry sizes x code counts
      // are not tracked, so charge the encoded representative per row.
      if (chunk.encoding == Encoding::kDict) {
        for (uint32_t code : chunk.codes) s.plain_bytes += chunk.dict[code].size() + 4;
      } else {
        for (const auto& str : chunk.plain) s.plain_bytes += str.size() + 4;
      }
      if (chunk.all_null()) continue;
      if (first || chunk.zone_min < s.str_min) s.str_min = chunk.zone_min;
      if (first || chunk.zone_max > s.str_max) s.str_max = chunk.zone_max;
      first = false;
    }
    s.has_string_range = !first;
  } else {
    s.num_chunks = c.int_chunks.size();
    bool first = true;
    for (const auto& chunk : c.int_chunks) {
      s.rows += chunk.num_rows;
      s.nulls += chunk.zone.null_count;
      s.plain_bytes += chunk.num_rows * 8;
      if (chunk.zone.all_null()) continue;
      if (first || chunk.zone.min < s.min) s.min = chunk.zone.min;
      if (first || chunk.zone.max > s.max) s.max = chunk.zone.max;
      first = false;
    }
    // Double columns store raw IEEE bits; their int span is not an ordering.
    s.has_int_range = !first && c.type != sql::TypeId::kDouble;
  }
  return s;
}

size_t ColumnTable::CompressedBytes() const {
  size_t n = 0;
  for (const auto& c : columns_) {
    for (const auto& chunk : c.int_chunks) n += chunk.CompressedBytes();
    for (const auto& chunk : c.string_chunks) n += chunk.CompressedBytes();
  }
  return n;
}

size_t ColumnTable::PlainBytes() const {
  size_t n = 0;
  for (const auto& c : columns_) {
    for (const auto& chunk : c.int_chunks) n += chunk.num_rows * sizeof(int64_t);
    for (const auto& chunk : c.string_chunks) {
      if (chunk.encoding == Encoding::kDict) {
        for (uint32_t code : chunk.codes) n += chunk.dict[code].size() + 4;
      } else {
        for (const auto& s : chunk.plain) n += s.size() + 4;
      }
    }
  }
  return n;
}

}  // namespace ofi::storage
