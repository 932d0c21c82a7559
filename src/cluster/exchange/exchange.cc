#include "cluster/exchange/exchange.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>

namespace ofi::cluster::exchange {
namespace {

using sql::Row;
using sql::TypeId;
using sql::Value;

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

bool ReadU8(const std::string& buf, size_t* off, uint8_t* v) {
  if (*off + 1 > buf.size()) return false;
  *v = static_cast<uint8_t>(buf[(*off)++]);
  return true;
}

bool ReadU32(const std::string& buf, size_t* off, uint32_t* v) {
  if (*off + 4 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[*off + i])) << (8 * i);
  }
  *off += 4;
  return true;
}

bool ReadU64(const std::string& buf, size_t* off, uint64_t* v) {
  if (*off + 8 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[*off + i])) << (8 * i);
  }
  *off += 8;
  return true;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<Value> DecodeValue(const std::string& buf, size_t* off) {
  uint8_t tag;
  if (!ReadU8(buf, off, &tag)) {
    return Status::InvalidArgument("exchange batch truncated (value tag)");
  }
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool: {
      uint8_t b;
      if (!ReadU8(buf, off, &b)) {
        return Status::InvalidArgument("exchange batch truncated (bool)");
      }
      return Value(b != 0);
    }
    case TypeId::kInt64: {
      uint64_t v;
      if (!ReadU64(buf, off, &v)) {
        return Status::InvalidArgument("exchange batch truncated (int64)");
      }
      return Value(static_cast<int64_t>(v));
    }
    case TypeId::kTimestamp: {
      uint64_t v;
      if (!ReadU64(buf, off, &v)) {
        return Status::InvalidArgument("exchange batch truncated (timestamp)");
      }
      return Value::Timestamp(static_cast<int64_t>(v));
    }
    case TypeId::kDouble: {
      uint64_t bits;
      if (!ReadU64(buf, off, &bits)) {
        return Status::InvalidArgument("exchange batch truncated (double)");
      }
      return Value(BitsToDouble(bits));
    }
    case TypeId::kString: {
      uint32_t len;
      if (!ReadU32(buf, off, &len) || *off + len > buf.size()) {
        return Status::InvalidArgument("exchange batch truncated (string)");
      }
      std::string s = buf.substr(*off, len);
      *off += len;
      return Value(std::move(s));
    }
  }
  return Status::InvalidArgument("exchange batch: unknown type tag " +
                                 std::to_string(tag));
}

// FNV-1a over normalized payload bytes; see HashForPartition contract.
struct Fnv {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Mix(uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  void Mix64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Mix(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
};

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  AppendU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      AppendU8(out, v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      AppendU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case TypeId::kDouble:
      AppendU64(out, DoubleBits(v.AsDouble()));
      break;
    case TypeId::kString:
      AppendU32(out, static_cast<uint32_t>(v.AsString().size()));
      out->append(v.AsString());
      break;
  }
}

void EncodeRow(const Row& row, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(row.size()));
  for (const auto& v : row) EncodeValue(v, out);
}

std::string EncodeBatch(const std::vector<Row>& rows, size_t begin, size_t end) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(end - begin));
  for (size_t i = begin; i < end; ++i) EncodeRow(rows[i], &out);
  return out;
}

Result<std::vector<Row>> DecodeBatch(const std::string& buf) {
  size_t off = 0;
  uint32_t num_rows;
  if (!ReadU32(buf, &off, &num_rows)) {
    return Status::InvalidArgument("exchange batch truncated (row count)");
  }
  // Sanity-bound the header before reserving: every row needs at least a
  // 4-byte value count, so a count larger than the payload could hold is
  // corruption (e.g. a damaged spill segment), not a huge allocation.
  if (num_rows > (buf.size() - off) / 4) {
    return Status::InvalidArgument("exchange batch: implausible row count " +
                                   std::to_string(num_rows));
  }
  std::vector<Row> rows;
  rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t num_vals;
    if (!ReadU32(buf, &off, &num_vals)) {
      return Status::InvalidArgument("exchange batch truncated (value count)");
    }
    if (num_vals > buf.size() - off) {  // every value is >= 1 byte
      return Status::InvalidArgument(
          "exchange batch: implausible value count " +
          std::to_string(num_vals));
    }
    Row row;
    row.reserve(num_vals);
    for (uint32_t c = 0; c < num_vals; ++c) {
      OFI_ASSIGN_OR_RETURN(Value v, DecodeValue(buf, &off));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (off != buf.size()) {
    return Status::InvalidArgument("exchange batch has trailing bytes");
  }
  return rows;
}

size_t EncodedValueSize(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull: return 1;
    case TypeId::kBool: return 2;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kDouble: return 9;
    case TypeId::kString: return 5 + v.AsString().size();
  }
  return 1;
}

size_t EncodedRowSize(const Row& row) {
  size_t n = 4;
  for (const auto& v : row) n += EncodedValueSize(v);
  return n;
}

size_t EncodedBytes(const std::vector<Row>& rows, size_t batch_rows) {
  if (batch_rows == 0) batch_rows = 1;
  size_t n = 0;
  for (const auto& r : rows) n += EncodedRowSize(r);
  size_t batches = (rows.size() + batch_rows - 1) / batch_rows;
  return n + 4 * std::max<size_t>(batches, 1);  // batch headers
}

uint64_t HashForPartition(const Value& v) {
  // Normalization mirrors Value::Compare equivalence classes: all numeric
  // types that compare equal must hash equal (1 == 1.0 == TIMESTAMP(1)).
  Fnv f;
  switch (v.type()) {
    case TypeId::kNull:
      f.Mix(0);
      break;
    case TypeId::kBool:
      f.Mix(1);
      f.Mix(v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      f.Mix(2);
      f.Mix64(static_cast<uint64_t>(v.AsInt()));
      break;
    case TypeId::kDouble: {
      double d = v.AsDouble();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        f.Mix(2);  // integral double joins the int64 class
        f.Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
      } else {
        f.Mix(3);
        f.Mix64(DoubleBits(d));
      }
      break;
    }
    case TypeId::kString:
      f.Mix(4);
      for (char c : v.AsString()) f.Mix(static_cast<uint8_t>(c));
      break;
  }
  return f.h;
}

// --- SpillFile ---------------------------------------------------------------

Status SpillFile::Append(const std::string& blob, const std::string& dir,
                         size_t* offset_out) {
  if (f_ == nullptr) {
    std::error_code ec;
    std::filesystem::path base =
        dir.empty() ? std::filesystem::temp_directory_path(ec)
                    : std::filesystem::path(dir);
    if (ec) {
      return Status::Internal("spill: no temp directory: " + ec.message());
    }
    if (!dir.empty()) {
      // A configured spill_dir need not pre-exist; fopen still reports the
      // failure if creation was impossible.
      std::filesystem::create_directories(base, ec);
    }
    static std::atomic<uint64_t> counter{0};
    std::string name = "ofi-exchange-" + std::to_string(::getpid()) + "-" +
                       std::to_string(counter.fetch_add(1)) + ".spill";
    path_ = (base / name).string();
    f_ = std::fopen(path_.c_str(), "wb+");
    if (f_ == nullptr) {
      std::string p = std::move(path_);
      path_.clear();
      return Status::Internal("spill: cannot create " + p);
    }
    end_ = 0;
  }
  if (std::fseek(f_, static_cast<long>(end_), SEEK_SET) != 0 ||
      std::fwrite(blob.data(), 1, blob.size(), f_) != blob.size() ||
      std::fflush(f_) != 0) {
    return Status::Internal("spill: short write to " + path_);
  }
  *offset_out = end_;
  end_ += blob.size();
  return Status::OK();
}

Result<std::string> SpillFile::Read(size_t offset, size_t size) {
  if (f_ == nullptr) {
    return Status::Corruption("spill: segment read with no spill file");
  }
  std::string out(size, '\0');
  if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(out.data(), 1, size, f_) != size) {
    return Status::Corruption("spill: truncated segment in " + path_ +
                              " (offset " + std::to_string(offset) + ", " +
                              std::to_string(size) + " bytes)");
  }
  return out;
}

void SpillFile::Remove() {
  if (f_ != nullptr) {
    std::fclose(f_);
    std::remove(path_.c_str());
    f_ = nullptr;
  }
  path_.clear();
  end_ = 0;
}

// --- ExchangeChannel ---------------------------------------------------------

Status ExchangeChannel::Send(std::string batch, const SendLimits& limits) {
  const size_t size = batch.size();
  std::lock_guard lock(mu_);
  if (closed_) {
    return Status::Internal("exchange channel: send after close");
  }
  // Memory path: under the cap and no spill pending (once anything is on
  // disk, newer sends must follow it there or FIFO order would break).
  if (limits.max_queued_bytes == 0 ||
      (spill_segs_.empty() &&
       queued_bytes_ + size <= limits.max_queued_bytes)) {
    queued_bytes_ += size;
    bytes_ += size;
    ++batches_;
    queue_.push_back(MemBatch{++send_seq_, std::move(batch)});
    cv_.notify_one();
    return Status::OK();
  }
  const ExchangeSpillConfig* spill = limits.spill;
  if (spill == nullptr) {
    denied_bytes_ += size;
    return Status::ResourceExhausted(
        "exchange channel over byte limit (" +
        std::to_string(queued_bytes_ + size) + " > " +
        std::to_string(limits.max_queued_bytes) + " queued bytes)");
  }
  if (spill->budget != nullptr && !spill->budget->Reserve(size)) {
    denied_bytes_ += size;
    return Status::ResourceExhausted(
        "exchange spill budget exhausted (" + std::to_string(size) +
        " bytes over " + std::to_string(spill->budget->max_bytes) + ")");
  }
  size_t offset = 0;
  Status st = spill_.Append(batch, spill->temp_dir, &offset);
  if (!st.ok()) {
    if (spill->budget != nullptr) spill->budget->Release(size);
    return st;
  }
  budget_ = spill->budget;
  spill_segs_.push_back(Seg{++send_seq_, offset, size});
  bytes_ += size;
  ++batches_;
  spilled_bytes_ += size;
  ++spill_segments_;
  cv_.notify_one();
  return Status::OK();
}

Result<std::string> ExchangeChannel::PopLocked() {
  if (!queue_.empty()) {
    std::string batch = std::move(queue_.front().payload);
    queue_.pop_front();
    queued_bytes_ -= batch.size();
    return batch;
  }
  Seg seg = spill_segs_.front();
  OFI_ASSIGN_OR_RETURN(std::string batch, spill_.Read(seg.offset, seg.size));
  spill_segs_.pop_front();
  if (budget_ != nullptr) budget_->Release(seg.size);
  // Last segment consumed: the temp file's job is done, delete it now
  // rather than waiting for the network's destructor.
  if (spill_segs_.empty()) spill_.Remove();
  return batch;
}

Result<std::optional<std::string>> ExchangeChannel::PopBatch() {
  std::lock_guard lock(mu_);
  // A producer failure outranks queued payload: the stream is incomplete,
  // so delivering its prefix would let a consumer act on partial data.
  if (closed_ && !close_status_.ok()) return close_status_;
  if (queue_.empty() && spill_segs_.empty()) {
    return std::optional<std::string>();
  }
  OFI_ASSIGN_OR_RETURN(std::string batch, PopLocked());
  return std::optional<std::string>(std::move(batch));
}

Result<std::optional<std::string>> ExchangeChannel::PopBatchWait(
    int64_t timeout_ms) {
  std::unique_lock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (closed_ && !close_status_.ok()) return close_status_;
    if (!queue_.empty() || !spill_segs_.empty()) {
      OFI_ASSIGN_OR_RETURN(std::string batch, PopLocked());
      return std::optional<std::string>(std::move(batch));
    }
    if (closed_) return std::optional<std::string>();  // clean end-of-stream
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status::TimedOut("exchange channel: no batch and no close after " +
                              std::to_string(timeout_ms) + " ms");
    }
  }
}

void ExchangeChannel::Close(Status st) {
  {
    std::lock_guard lock(mu_);
    if (!closed_) {
      closed_ = true;
      close_status_ = std::move(st);
    } else if (close_status_.ok() && !st.ok()) {
      close_status_ = std::move(st);
    }
  }
  cv_.notify_all();
}

Result<std::vector<std::string>> ExchangeChannel::Drain() {
  std::vector<std::string> out;
  while (true) {
    OFI_ASSIGN_OR_RETURN(std::optional<std::string> batch, PopBatch());
    if (!batch.has_value()) break;
    out.push_back(std::move(*batch));
  }
  return out;
}

void ExchangeChannel::Discard() {
  std::lock_guard lock(mu_);
  DiscardLocked();
}

void ExchangeChannel::DiscardLocked() {
  size_t dropped = queued_bytes_;
  size_t dropped_batches = queue_.size() + spill_segs_.size();
  size_t dropped_spill = 0;
  for (const Seg& seg : spill_segs_) dropped_spill += seg.size;
  if (budget_ != nullptr && dropped_spill > 0) budget_->Release(dropped_spill);
  spill_segments_ -= spill_segs_.size();
  queue_.clear();
  spill_segs_.clear();
  spill_.Remove();
  queued_bytes_ = 0;
  bytes_ -= dropped + dropped_spill;
  batches_ -= dropped_batches;
  spilled_bytes_ -= dropped_spill;
  aborted_bytes_ += dropped + dropped_spill;
}

ExchangeChannel::Checkpoint ExchangeChannel::Mark() const {
  std::lock_guard lock(mu_);
  Checkpoint cp;
  cp.batches = batches_;
  cp.bytes = bytes_;
  cp.spilled_bytes = spilled_bytes_;
  cp.spill_segments = spill_segments_;
  cp.spill_end = spill_.logical_end();
  cp.send_seq = send_seq_;
  return cp;
}

void ExchangeChannel::RollbackTo(const Checkpoint& cp) {
  std::lock_guard lock(mu_);
  // Drop the still-queued post-mark batches. They are identified by send
  // sequence, not by queue position: a concurrent consumer may have drained
  // any prefix of the queue (including post-mark batches) since the Mark,
  // and counting positions would then drop pre-mark payload or leave stale
  // post-mark batches deliverable.
  while (!queue_.empty() && queue_.back().seq > cp.send_seq) {
    queued_bytes_ -= queue_.back().payload.size();
    queue_.pop_back();
  }
  size_t dropped_spill = 0;
  while (!spill_segs_.empty() && spill_segs_.back().seq > cp.send_seq) {
    dropped_spill += spill_segs_.back().size;
    spill_segs_.pop_back();
  }
  if (budget_ != nullptr && dropped_spill > 0) budget_->Release(dropped_spill);
  if (spill_segs_.empty()) {
    // No outstanding segments at all — a consumer may even have deleted the
    // file already via delete-on-last-consume; Remove() is a no-op then.
    if (spill_.active()) spill_.Remove();
  } else {
    spill_.TruncateTo(cp.spill_end);
  }
  // Lifetime accounting returns to the mark. Everything accepted after it
  // counts as aborted — drained-then-rolled-back payload too, since the
  // consumer that popped it fails with the producer's close status and
  // never surfaces those rows.
  aborted_bytes_ += bytes_ - cp.bytes;
  bytes_ = cp.bytes;
  batches_ = cp.batches;
  spilled_bytes_ = cp.spilled_bytes;
  spill_segments_ = cp.spill_segments;
}

// --- ExchangeNetwork ---------------------------------------------------------

Result<std::vector<Row>> ExchangeNetwork::ReceiveRowsWait(
    int dst, int64_t timeout_ms, size_t* batches_out) {
  std::vector<Row> out;
  for (int src = 0; src < n_; ++src) {
    ExchangeChannel& ch = channel(src, dst);
    while (true) {
      OFI_ASSIGN_OR_RETURN(std::optional<std::string> batch,
                           ch.PopBatchWait(timeout_ms));
      if (!batch.has_value()) break;
      if (batches_out != nullptr) ++*batches_out;
      OFI_ASSIGN_OR_RETURN(std::vector<Row> rows, DecodeBatch(*batch));
      for (auto& r : rows) out.push_back(std::move(r));
    }
  }
  return out;
}

void ExchangeNetwork::CloseAllFrom(int src, Status st) {
  for (int dst = 0; dst < n_; ++dst) channel(src, dst).Close(st);
}

std::vector<ChannelStats> ExchangeNetwork::Stats() const {
  std::vector<ChannelStats> out;
  for (int src = 0; src < n_; ++src) {
    for (int dst = 0; dst < n_; ++dst) {
      const ExchangeChannel& ch = channel(src, dst);
      size_t batches = ch.batches();
      if (batches == 0) continue;
      out.push_back(ChannelStats{src, dst, ch.bytes(), batches});
    }
  }
  return out;
}

size_t ExchangeNetwork::CrossNodeBytes() const {
  size_t n = 0;
  for (int src = 0; src < n_; ++src) {
    for (int dst = 0; dst < n_; ++dst) {
      if (src != dst) n += channel(src, dst).bytes();
    }
  }
  return n;
}

size_t ExchangeNetwork::CrossNodeBatches() const {
  size_t n = 0;
  for (int src = 0; src < n_; ++src) {
    for (int dst = 0; dst < n_; ++dst) {
      if (src != dst) n += channel(src, dst).batches();
    }
  }
  return n;
}

size_t ExchangeNetwork::OutBytes(int src) const {
  size_t n = 0;
  for (int dst = 0; dst < n_; ++dst) {
    if (dst != src) n += channel(src, dst).bytes();
  }
  return n;
}

size_t ExchangeNetwork::InBytes(int dst) const {
  size_t n = 0;
  for (int src = 0; src < n_; ++src) {
    if (src != dst) n += channel(src, dst).bytes();
  }
  return n;
}

size_t ExchangeNetwork::DeniedBytes() const {
  size_t n = 0;
  for (const auto& ch : channels_) n += ch.denied_bytes();
  return n;
}

size_t ExchangeNetwork::SpilledBytes() const {
  size_t n = 0;
  for (const auto& ch : channels_) n += ch.spilled_bytes();
  return n;
}

size_t ExchangeNetwork::SpillSegments() const {
  size_t n = 0;
  for (const auto& ch : channels_) n += ch.spill_segments();
  return n;
}

size_t ExchangeNetwork::SpilledInBytes(int dst) const {
  size_t n = 0;
  for (int src = 0; src < n_; ++src) n += channel(src, dst).spilled_bytes();
  return n;
}

size_t ExchangeNetwork::AbortedBytes() const {
  size_t n = 0;
  for (const auto& ch : channels_) n += ch.aborted_bytes();
  return n;
}

// --- StreamingScatter --------------------------------------------------------

StreamingScatter::StreamingScatter(ExchangeNetwork* net, int src,
                                   std::optional<size_t> key_idx)
    : net_(net),
      src_(src),
      key_idx_(key_idx),
      limits_(net->send_limits()),
      pending_(static_cast<size_t>(net->num_nodes())) {}

Status StreamingScatter::Push(const Row& row) {
  const int n = net_->num_nodes();
  if (key_idx_.has_value()) {
    int dst = static_cast<int>(HashForPartition(row[*key_idx_]) %
                               static_cast<uint64_t>(n));
    pending_[static_cast<size_t>(dst)].push_back(row);
    if (pending_[static_cast<size_t>(dst)].size() >= net_->batch_rows()) {
      OFI_RETURN_NOT_OK(FlushDst(dst));
    }
  } else {
    for (int dst = 0; dst < n; ++dst) {
      pending_[static_cast<size_t>(dst)].push_back(row);
      if (pending_[static_cast<size_t>(dst)].size() >= net_->batch_rows()) {
        OFI_RETURN_NOT_OK(FlushDst(dst));
      }
    }
  }
  return Status::OK();
}

Status StreamingScatter::Finish() {
  for (int dst = 0; dst < net_->num_nodes(); ++dst) {
    if (!pending_[static_cast<size_t>(dst)].empty()) {
      OFI_RETURN_NOT_OK(FlushDst(dst));
    }
  }
  return Status::OK();
}

Status StreamingScatter::FlushDst(int dst) {
  auto& rows = pending_[static_cast<size_t>(dst)];
  std::string batch = EncodeBatch(rows, 0, rows.size());
  const size_t bytes = batch.size();
  OFI_RETURN_NOT_OK(net_->channel(src_, dst).Send(std::move(batch), limits_));
  log_.push_back(SendRec{dst, bytes});
  rows.clear();
  return Status::OK();
}

Status ScatterRows(ExchangeNetwork* net, int src, const std::vector<Row>& rows,
                   std::optional<size_t> key_idx, int net_idx,
                   std::vector<SentBatch>* log) {
  ScatterGuard guard(net, src);
  StreamingScatter scatter(net, src, key_idx);
  for (const Row& row : rows) OFI_RETURN_NOT_OK(scatter.Push(row));
  OFI_RETURN_NOT_OK(scatter.Finish());
  guard.Commit();
  for (const auto& rec : scatter.send_log()) {
    log->push_back(SentBatch{net_idx, rec.dst, rec.bytes});
  }
  return Status::OK();
}

SimTime ExchangeServiceTime(size_t bytes, size_t batches,
                            const ExchangeLatencyParams& p) {
  SimTime kib = static_cast<SimTime>((bytes + 1023) / 1024);
  return static_cast<SimTime>(batches) * p.batch_service_us +
         kib * p.kb_service_us;
}

SimTime SpillServiceTime(size_t bytes, const ExchangeLatencyParams& p) {
  if (bytes == 0) return 0;
  SimTime kib = static_cast<SimTime>((bytes + 1023) / 1024);
  return kib * (p.spill_write_kb_us + p.spill_read_kb_us);
}

ExchangeSimResult SimulateExchange(
    SimScheduler* scheduler, const std::vector<int>& node_resources,
    const std::vector<size_t>& channel_caps,
    const std::vector<std::vector<SentBatch>>& send_logs,
    const std::vector<SimTime>& start, const ExchangeLatencyParams& p,
    ExchangeSchedule schedule) {
  const bool pipelined = schedule == ExchangeSchedule::kPipelined;
  const size_t n = node_resources.size();
  const size_t nk = channel_caps.size();
  ExchangeSimResult out;
  out.ready.assign(n, 0);
  out.producer_done.assign(n, 0);
  out.first_consume.assign(n, 0);

  struct Batch {
    size_t bytes = 0;
    SimTime sent = 0;  // producer finished encoding it
    SimTime pop = 0;   // provisional consumer drain completion
  };
  // chan[net][src * n + dst], batches in send order.
  std::vector<std::vector<std::vector<Batch>>> chan(
      nk, std::vector<std::vector<Batch>>(n * n));
  // Per-batch encode/decode service with telescoped cumulative KiB: a
  // node's per-batch charges add up to ExchangeServiceTime of its total.
  auto service = [&p](size_t* cum, size_t bytes) {
    auto kib = [](size_t b) {
      return static_cast<SimTime>((b + 1023) / 1024);
    };
    SimTime s = p.batch_service_us +
                (kib(*cum + bytes) - kib(*cum)) * p.kb_service_us;
    *cum += bytes;
    return s;
  };
  auto hop = [&p](size_t i, size_t j) { return i == j ? 0 : p.network_hop_us; };

  // Producers: per-batch encode charges in send order, cross-node only.
  for (size_t i = 0; i < n; ++i) {
    SimTime cursor = start[i];
    size_t cum = 0;
    for (const SentBatch& rec : send_logs[i]) {
      const size_t dst = static_cast<size_t>(rec.dst);
      if (dst != i) {
        cursor = scheduler->Charge(node_resources[i], cursor,
                                   service(&cum, rec.bytes));
      }
      chan[static_cast<size_t>(rec.net)][i * n + dst].push_back(
          Batch{rec.bytes, cursor, 0});
    }
    out.producer_done[i] = cursor;
  }

  // The earliest instant consumer j may decode anything. Under the barrier
  // schedule that is after its own scatter and after the slowest producer
  // sending to it (+1 hop); the pipelined schedule gates per batch only.
  std::vector<SimTime> gate(start.begin(), start.end());
  if (!pipelined) {
    for (size_t j = 0; j < n; ++j) {
      gate[j] = std::max(gate[j], out.producer_done[j]);
      for (size_t i = 0; i < n; ++i) {
        bool sends = false;
        for (size_t k = 0; k < nk; ++k) sends |= !chan[k][i * n + j].empty();
        if (i != j && sends) {
          gate[j] = std::max(gate[j], out.producer_done[i] + hop(i, j));
        }
      }
    }
  }
  auto arrival = [&](const Batch& b, size_t i, size_t j) {
    return std::max(gate[j], b.sent + hop(i, j));
  };

  // Provisional drain times (plain arithmetic, no charges): each consumer
  // walks its deterministic drain order; a batch is popped at
  // max(cursor, arrival) plus its decode service. Used only to model the
  // in-memory window occupancy for the spill decision below.
  for (size_t j = 0; j < n; ++j) {
    SimTime cur = gate[j];
    size_t cum = 0;
    for (size_t k = 0; k < nk; ++k) {
      for (size_t i = 0; i < n; ++i) {
        for (Batch& b : chan[k][i * n + j]) {
          cur = std::max(cur, arrival(b, i, j));
          if (i != j) cur += service(&cum, b.bytes);
          b.pop = cur;
        }
      }
    }
  }

  // Modeled spill: replay each capped channel's window in send order. A
  // batch spills when the in-memory window would overflow at its send time,
  // or an earlier spilled batch is still on disk then (FIFO: memory never
  // overtakes disk). Under the barrier schedule nothing pops before every
  // send is done, so the window only fills — exactly the channel's own
  // counters. Under the pipelined one the model is deterministic, unlike
  // the real counters, which depend on how far the consumer thread
  // happened to lag the producer.
  std::vector<size_t> spilled_in(n, 0);
  for (size_t k = 0; k < nk; ++k) {
    const size_t cap = channel_caps[k];
    if (cap == 0) continue;
    for (size_t c = 0; c < n * n; ++c) {
      const std::vector<Batch>& batches = chan[k][c];
      size_t mem = 0;  // window occupancy at the current send time
      size_t lo = 0;   // first batch not yet provisionally popped
      std::vector<bool> spilled(batches.size(), false);
      SimTime last_spill_pop = -1;
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const Batch& b = batches[bi];
        while (pipelined && lo < bi && batches[lo].pop <= b.sent) {
          if (!spilled[lo]) mem -= batches[lo].bytes;
          ++lo;
        }
        if (last_spill_pop > b.sent || mem + b.bytes > cap) {
          spilled[bi] = true;
          spilled_in[c % n] += b.bytes;
          ++out.spill_segments;
          last_spill_pop = std::max(last_spill_pop, b.pop);
        } else {
          mem += b.bytes;
        }
      }
    }
  }

  // Final consumer replay with real charges: gap-fitting on the node's own
  // resource serializes its decode against its own encode (a DN cannot
  // overlap with itself), which is exactly why a skewed producer — not a
  // uniform one — is where pipelining wins.
  SimTime global_prod_end = 0;
  for (SimTime d : out.producer_done) {
    global_prod_end = std::max(global_prod_end, d);
  }
  for (size_t j = 0; j < n; ++j) {
    SimTime cur = gate[j];
    size_t cum = 0;
    SimTime first = -1;
    for (size_t k = 0; k < nk; ++k) {
      for (size_t i = 0; i < n; ++i) {
        for (const Batch& b : chan[k][i * n + j]) {
          cur = std::max(cur, arrival(b, i, j));
          if (i == j) continue;
          const SimTime s = service(&cum, b.bytes);
          cur = scheduler->Charge(node_resources[j], cur, s);
          if (first < 0) first = cur - s;
        }
      }
    }
    if (spilled_in[j] > 0) {
      cur = scheduler->Charge(node_resources[j], cur,
                              SpillServiceTime(spilled_in[j], p));
      out.spill_bytes += spilled_in[j];
    }
    if (pipelined) {
      // The consumer cannot finish draining a channel before observing its
      // close, which the producer posts after its whole scatter.
      for (size_t i = 0; i < n; ++i) {
        cur = std::max(cur, out.producer_done[i] + hop(i, j));
      }
      if (first >= 0) {
        out.overlap_us += std::max<SimTime>(0, global_prod_end - first);
      }
    }
    out.ready[j] = cur;
    out.first_consume[j] = first >= 0 ? first : cur;
  }
  return out;
}

}  // namespace ofi::cluster::exchange
