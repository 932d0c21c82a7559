/// \file column_store.h
/// \brief Columnar storage with light-weight compression (RLE for integers,
/// dictionary for strings), per-chunk zone maps, NULL validity bitmaps, and
/// vectorized scan kernels with a morsel-parallel driver. FI-MPPDB supports
/// hybrid row-column storage with a SIMD-style vectorized execution engine
/// (paper Fig. 1 / §II); this module is the columnar half. Experiment E11
/// compares it against the row path and E15 measures zone-map pruning.
///
/// Zone maps follow Moerkotte's small materialized aggregates (VLDB 1998):
/// every chunk records min/max/null-count at encode time, so range and
/// equality kernels skip chunks that cannot match, and MIN/MAX/COUNT over a
/// whole column are answered from metadata alone. The scan driver follows
/// HyPer's morsel-driven parallelism (Leis et al., SIGMOD 2014): chunk
/// ranges ("morsels") are dispatched onto the shared thread pool and merged
/// back in chunk order, so parallel results are bit-identical to serial.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "sql/schema.h"

namespace ofi::storage {

/// Encoding picked per column chunk.
enum class Encoding : uint8_t { kPlain, kRle, kDict };

/// \brief Per-chunk zone map over an int64-payload column (min/max span
/// non-null values only; a chunk whose rows are all NULL has no span).
struct ZoneMap {
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  uint32_t null_count = 0;
  uint32_t num_rows = 0;

  bool all_null() const { return null_count == num_rows; }
  uint32_t non_null() const { return num_rows - null_count; }
};

/// Packed validity bitmap helpers (bit i set = row i is non-NULL; an empty
/// bitmap means every row is valid — the common no-NULL case costs nothing).
inline bool BitmapValidAt(const std::vector<uint64_t>& validity, size_t i) {
  return validity.empty() || ((validity[i >> 6] >> (i & 63)) & 1) != 0;
}
/// Count of valid rows in [begin, end) — popcount over whole words where
/// possible, so RLE aggregation over NULL-bearing runs never decodes values.
size_t BitmapCountValid(const std::vector<uint64_t>& validity, size_t begin,
                        size_t end);

/// \brief A compressed chunk of one int64 column.
struct Int64Chunk {
  Encoding encoding = Encoding::kPlain;
  std::vector<int64_t> plain;            // kPlain
  std::vector<int64_t> rle_values;       // kRle
  std::vector<uint32_t> rle_lengths;     // kRle
  /// Validity bitmap; empty = all rows valid. NULL rows hold an arbitrary
  /// placeholder in the value stream and must never be interpreted.
  std::vector<uint64_t> validity;
  ZoneMap zone;
  size_t num_rows = 0;

  bool ValidAt(size_t i) const { return BitmapValidAt(validity, i); }
  size_t CompressedBytes() const;
  /// Decodes into `out` (resized to num_rows; NULL positions hold the
  /// placeholder — consult ValidAt before use).
  void Decode(std::vector<int64_t>* out) const;
};

/// \brief A compressed chunk of one string column (dictionary-encoded when
/// the distinct count is low enough to pay off).
struct StringChunk {
  Encoding encoding = Encoding::kPlain;
  std::vector<std::string> plain;        // kPlain
  std::vector<std::string> dict;         // kDict
  std::vector<uint32_t> codes;           // kDict
  std::vector<uint64_t> validity;        // empty = all valid
  /// Zone map: lexicographic span of non-null values (empty when all-null).
  std::string zone_min, zone_max;
  uint32_t null_count = 0;
  size_t num_rows = 0;

  bool ValidAt(size_t i) const { return BitmapValidAt(validity, i); }
  bool all_null() const { return null_count == num_rows; }
  size_t CompressedBytes() const;
  const std::string& At(size_t i) const {
    return encoding == Encoding::kDict ? dict[codes[i]] : plain[i];
  }
};

/// Builds an Int64Chunk, choosing RLE when it beats plain. `valid` marks
/// non-NULL rows (nullptr = all valid); the zone map is built here.
Int64Chunk EncodeInt64(const std::vector<int64_t>& values,
                       const std::vector<bool>* valid = nullptr);
/// Builds a StringChunk, choosing dictionary when it beats plain.
StringChunk EncodeString(const std::vector<std::string>& values,
                         const std::vector<bool>* valid = nullptr);

/// \brief Counters one scan emits — the machine-independent evidence for
/// zone-map pruning (chunks skipped, values never decoded).
struct ScanStats {
  size_t chunks_total = 0;
  size_t chunks_scanned = 0;
  /// Chunks skipped entirely from zone maps (includes all-NULL chunks and
  /// full-range short-circuits where indices are emitted without decode).
  size_t chunks_pruned = 0;
  /// Values individually examined: plain rows touched, RLE runs touched
  /// (a run counts once regardless of length), dictionary codes compared.
  size_t rows_decoded = 0;
  /// Rows that passed the filter (== selection vector size for filters).
  size_t rows_matched = 0;
  /// Morsels dispatched by the parallel driver (0 for metadata-only scans).
  size_t morsels = 0;
  /// Delta-tail records examined when a scan unions a columnar shard's
  /// row-format delta with its sealed chunks (see storage/delta_store.h);
  /// 0 for pure sealed scans.
  size_t delta_rows = 0;
  /// Rows served by a secondary-index probe instead of a heap or chunk
  /// walk (see storage/secondary_index.h); 0 for scan paths.
  size_t index_rows = 0;

  void MergeFrom(const ScanStats& o);
};

/// \brief Execution knobs for the morsel scan driver. Results are
/// bit-identical between parallel and serial execution: morsels are fixed
/// chunk ranges merged back in chunk order (same contract as the MPP
/// scatter-gather in cluster/distributed_plan). parallel=true must not be used
/// from inside a pool task (ThreadPool::ParallelFor restriction).
struct ScanOptions {
  bool parallel = false;
  /// Pool override; nullptr uses common::ThreadPool::Shared().
  common::ThreadPool* pool = nullptr;
  /// Chunks per morsel (clamped to >= 1).
  size_t morsel_chunks = 4;
};

// --- Grouped aggregation ----------------------------------------------------

/// One aggregate computed per group by ColumnTable::GroupedAggregate. All
/// partial states are int64 (SUM wraps modularly; COUNT/MIN/MAX are exact),
/// so per-morsel partials merge associatively and bit-identically.
enum class GroupedAggOp : uint8_t { kCountStar, kCount, kSum, kMin, kMax };

struct GroupedAggSpec {
  GroupedAggOp op = GroupedAggOp::kCountStar;
  std::string column;  // aggregated column; empty for kCountStar
};

/// \brief Columnar output of one grouped aggregation: per-group key values
/// (SoA, NULL keys form their own group) and per-aggregate partial states.
/// Group order is first-appearance order of the serial chunk scan — the
/// morsel-parallel driver merges per-worker tables in morsel order, so the
/// order (and every value) is identical to the serial kernel.
struct GroupedAggResult {
  struct KeyColumn {
    sql::TypeId type = sql::TypeId::kInt64;
    std::vector<int64_t> ints;        // int64/timestamp keys
    std::vector<std::string> strs;    // string keys
    std::vector<uint8_t> valid;       // 0 = the NULL-key group
  };
  struct AggColumn {
    /// The partial state per group (count for kCountStar/kCount).
    std::vector<int64_t> value;
    /// Non-null inputs folded into the state per group; 0 means SQL NULL
    /// for SUM/MIN/MAX (COUNT aggregates are never NULL).
    std::vector<int64_t> count;
  };
  std::vector<KeyColumn> keys;
  std::vector<AggColumn> aggs;
  size_t num_groups = 0;
};

/// \brief Zone-map-only pruning forecast for one filter — what EXPLAIN
/// reports per DN without touching a chunk.
struct PruneEstimate {
  size_t chunks_total = 0;
  /// Chunks the filter kernel would never decode (zone-pruned or emitted
  /// whole via the full-range short-circuit).
  size_t chunks_prunable = 0;
};

/// \brief Zone-map-derived column summary (no chunk is decoded): exact row,
/// NULL and min/max bounds for ANALYZE-style statistics.
struct ColumnZoneSummary {
  sql::TypeId type = sql::TypeId::kNull;
  uint64_t rows = 0;
  uint64_t nulls = 0;
  /// Int64/timestamp span (meaningless for doubles, which store raw bits).
  bool has_int_range = false;
  int64_t min = 0, max = 0;
  /// String span.
  bool has_string_range = false;
  std::string str_min, str_max;
  /// Strings: largest per-chunk dictionary (a distinct-count lower bound).
  uint64_t dict_ndv = 0;
  /// Total plain-encoded payload bytes (Value::ByteSize convention) — feeds
  /// avg_width for the exchange planner without decoding chunks.
  uint64_t plain_bytes = 0;
  size_t num_chunks = 0;
};

/// \brief An append-optimized columnar table for int64/double/string
/// columns, chunked at kChunkRows, with vectorized filter and aggregate
/// kernels operating on selection vectors of global row ids.
///
/// NULL semantics are SQL's: filters never match NULL, SUM/MIN/MAX/COUNT
/// skip NULLs (aggregates over zero non-null values return nullopt), and
/// Gather materializes NULL back as sql::Value::Null().
class ColumnTable {
 public:
  static constexpr size_t kChunkRows = 4096;

  explicit ColumnTable(sql::Schema schema);

  const sql::Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  /// Rows visible to scans (encoded into chunks; the buffered tail is not).
  size_t sealed_rows() const { return sealed_rows_; }
  /// Chunk count of the first column (all columns chunk identically).
  size_t num_chunks() const;

  /// Appends one row (buffers until a chunk fills, then encodes it).
  Status Append(const sql::Row& row);
  /// Encodes any buffered tail so scans cover every appended row.
  /// Idempotent: re-sealing with no new appends is a no-op. Appending after
  /// a Seal() is allowed; the next Seal() encodes only the new tail (as its
  /// own, possibly short, chunk — zone maps stay per-chunk exact).
  void Seal();

  // --- Filter kernels (selection vectors of global row ids) -----------------
  /// Indices where int64/timestamp column `col` is in [lo, hi] (inclusive).
  /// The primitive the comparison filters lower onto; zone maps prune
  /// chunks with no overlap, full-overlap chunks emit without decoding.
  Result<std::vector<uint32_t>> FilterRangeInt64(
      const std::string& col, int64_t lo, int64_t hi,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  Result<std::vector<uint32_t>> FilterGtInt64(
      const std::string& col, int64_t bound,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  Result<std::vector<uint32_t>> FilterGeInt64(
      const std::string& col, int64_t bound,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  Result<std::vector<uint32_t>> FilterLtInt64(
      const std::string& col, int64_t bound,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  Result<std::vector<uint32_t>> FilterLeInt64(
      const std::string& col, int64_t bound,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  /// Inclusive on both bounds (SQL BETWEEN).
  Result<std::vector<uint32_t>> FilterBetweenInt64(
      const std::string& col, int64_t lo, int64_t hi,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  /// Indices where string column `col` == `needle`.
  Result<std::vector<uint32_t>> FilterEqString(
      const std::string& col, const std::string& needle,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;

  // --- Aggregate kernels ----------------------------------------------------
  /// SUM of int64 column over a selection (nullptr = all rows). RLE runs
  /// aggregate as value x valid-run-length without decoding. nullopt when
  /// no non-null value contributes (SQL SUM of nothing is NULL).
  Result<std::optional<int64_t>> SumInt64(
      const std::string& col, const std::vector<uint32_t>* sel = nullptr,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  /// MIN/MAX over a selection (nullptr = all rows). The unselective form is
  /// answered from zone maps alone — no chunk is decoded.
  Result<std::optional<int64_t>> MinInt64(
      const std::string& col, const std::vector<uint32_t>* sel = nullptr,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  Result<std::optional<int64_t>> MaxInt64(
      const std::string& col, const std::vector<uint32_t>* sel = nullptr,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;
  /// COUNT of non-null values over a selection (nullptr = all rows, answered
  /// from zone maps; selective form reads validity bitmaps only).
  Result<int64_t> CountInt64(
      const std::string& col, const std::vector<uint32_t>* sel = nullptr,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;

  // --- Grouped aggregation --------------------------------------------------
  /// Vectorized hash GROUP BY: builds per-group partial states for `aggs`
  /// keyed by `key_cols` (int64/timestamp and string keys; NULL keys form
  /// their own group, exactly as SQL grouping treats NULL = NULL). `sel`
  /// restricts to a sorted selection (nullptr = all sealed rows); chunks
  /// with no selected row are skipped without decoding. Aggregate inputs
  /// must be int64-payload columns; SUM/MIN/MAX of zero non-null inputs
  /// surface count == 0 (SQL NULL), COUNT/COUNT(*) are never NULL. The
  /// morsel-parallel mode builds one flat hash table per worker and merges
  /// them in morsel order — output is bit-identical to the serial kernel,
  /// including group order (first appearance in chunk order).
  Result<GroupedAggResult> GroupedAggregate(
      const std::vector<std::string>& key_cols,
      const std::vector<GroupedAggSpec>& aggs,
      const std::vector<uint32_t>* sel = nullptr,
      const ScanOptions& opts = ScanOptions{}, ScanStats* stats = nullptr) const;

  /// Materializes selected rows back into row form (NULL-correct).
  Result<std::vector<sql::Row>> Gather(const std::vector<uint32_t>& sel) const;

  /// Gather without the full-table decode: only chunks containing selected
  /// rows are decoded, and the scan counters (charged per column-chunk)
  /// record exactly that — the columnar feed for distributed join sides and
  /// the grouped-aggregate row fallback. `sel` must be sorted ascending.
  Result<std::vector<sql::Row>> MaterializeRows(const std::vector<uint32_t>& sel,
                                                ScanStats* stats = nullptr) const;

  /// Zone-map-only forecasts of how many chunks an int64-range / string-eq
  /// filter would prune — per-DN EXPLAIN evidence, no chunk is decoded.
  Result<PruneEstimate> EstimatePruningInt64(const std::string& col, int64_t lo,
                                             int64_t hi) const;
  Result<PruneEstimate> EstimatePruningStringEq(const std::string& col,
                                                const std::string& needle) const;

  /// Zone-map rollup for one column (exact rows/nulls/min/max, no decode) —
  /// feeds optimizer::AnalyzeColumnTableZones.
  Result<ColumnZoneSummary> ZoneSummary(const std::string& col) const;

  /// Compressed footprint in bytes vs the plain-encoding footprint —
  /// reported by the storage bench.
  size_t CompressedBytes() const;
  size_t PlainBytes() const;

 private:
  struct ColumnData {
    sql::TypeId type;
    std::vector<Int64Chunk> int_chunks;      // int64/timestamp/double-as-bits
    std::vector<StringChunk> string_chunks;
    // Tail buffers not yet encoded (NULL rows hold a placeholder value and
    // a false bit in tail_valid).
    std::vector<int64_t> int_tail;
    std::vector<std::string> string_tail;
    std::vector<bool> tail_valid;
  };

  Result<size_t> ColIndex(const std::string& col, sql::TypeId expect) const;
  /// Global row id of each chunk's first row, plus a trailing sentinel of
  /// sealed_rows() — all columns chunk identically, so one table serves all.
  std::vector<uint32_t> ChunkBases() const;
  void EncodeTail(ColumnData* c);
  /// Runs fn(chunk_begin, chunk_end, morsel_index) over fixed chunk ranges,
  /// on the pool when opts.parallel — ranges are identical either way, so
  /// per-morsel outputs merge deterministically in morsel order.
  void RunMorsels(size_t chunk_count, const ScanOptions& opts,
                  const std::function<void(size_t, size_t, size_t)>& fn) const;

  sql::Schema schema_;
  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
  size_t sealed_rows_ = 0;
};

}  // namespace ofi::storage
