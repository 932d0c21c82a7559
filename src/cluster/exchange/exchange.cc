#include "cluster/exchange/exchange.h"

#include <unistd.h>

#include <algorithm>
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

void ExchangeChannel::Close(Status st) {
  std::lock_guard lock(mu_);
  if (!closed_ || (close_status_.ok() && !st.ok())) {
    closed_ = true;
    close_status_ = std::move(st);
  }
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

Result<std::vector<Row>> ExchangeNetwork::ReceiveRows(int dst) {
  std::vector<Row> out;
  for (int src = 0; src < n_; ++src) {
    ExchangeChannel& ch = channel(src, dst);
    while (true) {
      OFI_ASSIGN_OR_RETURN(std::optional<std::string> batch, ch.PopBatch());
      if (!batch.has_value()) break;
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
      out.push_back(ChannelStats{src, dst, ch.bytes(), batches,
                                 ch.spilled_bytes(), ch.spill_segments()});
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
                                   std::optional<size_t> key_idx,
                                   OnFlush on_flush)
    : net_(net),
      src_(src),
      key_idx_(key_idx),
      limits_(net->send_limits()),
      on_flush_(std::move(on_flush)),
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
  rows.clear();
  if (on_flush_) on_flush_(dst, bytes);
  return Status::OK();
}

Status ScatterRows(ExchangeNetwork* net, int src, const std::vector<Row>& rows,
                   std::optional<size_t> key_idx) {
  ScatterGuard guard(net, src);
  StreamingScatter scatter(net, src, key_idx);
  for (const Row& row : rows) OFI_RETURN_NOT_OK(scatter.Push(row));
  OFI_RETURN_NOT_OK(scatter.Finish());
  guard.Commit();
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

ExchangeRun RunExchange(const std::vector<ExchangeNetwork*>& nets,
                        const std::vector<std::vector<ScatterInput>>& inputs,
                        SimScheduler* scheduler,
                        const std::vector<int>& node_resources,
                        const std::vector<SimTime>& start,
                        const ExchangeLatencyParams& p,
                        ExchangeSchedule schedule) {
  const size_t n = node_resources.size();
  const size_t nk = nets.size();
  ExchangeRun out;
  out.rows.assign(nk, std::vector<std::vector<Row>>(n));
  out.producer_status.assign(n, Status::OK());
  out.consumer_status.assign(n, Status::OK());
  out.ready.assign(n, 0);
  out.producer_done.assign(n, 0);
  out.first_consume.assign(n, 0);

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

  struct Producer {
    SimTime clock = 0;  // end of its latest encode
    size_t cum = 0;     // cross-node bytes encoded so far
    size_t input = 0;   // entry of inputs[i] being streamed
    size_t row = 0;     // next row of that entry
    std::optional<ScatterGuard> guard;
    std::optional<StreamingScatter> scatter;
    bool done = false;  // closed its channels
  };
  struct Consumer {
    SimTime clock = 0;  // end of its latest decode or observed close
    size_t cum = 0;     // cross-node bytes decoded so far
    size_t net = 0;     // drain cursor: net-major, then source node
    size_t src = 0;
    SimTime first = -1;  // start of its first decode charge
    bool done = false;
  };
  std::vector<Producer> prod(n);
  std::vector<Consumer> cons(n);
  for (size_t i = 0; i < n; ++i) prod[i].clock = cons[i].clock = start[i];
  size_t open_producers = n;
  // Close state per (net, producer): net k's channels from producer i
  // close as soon as i's last input on k ends, so a consumer draining net k
  // never waits for i's later nets. net_end[k * n + i] is one past the
  // index of i's last input on net k (0 = none: closed from the start).
  struct NetClose {
    bool closed = false;
    SimTime at = 0;  // producer clock at the close
    Status status = Status::OK();
  };
  std::vector<NetClose> net_close(nk * n);
  std::vector<size_t> net_end(nk * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t e = 0; e < inputs[i].size(); ++e) {
      net_end[inputs[i][e].net * n + i] = e + 1;
    }
  }
  auto close_net = [&](size_t k, size_t i, const Status& st) {
    NetClose& c = net_close[k * n + i];
    if (c.closed) return;
    c = NetClose{true, prod[i].clock, st};
    nets[k]->CloseAllFrom(static_cast<int>(i), st);
  };
  for (size_t k = 0; k < nk; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (net_end[k * n + i] == 0) close_net(k, i, Status::OK());
    }
  }
  // arrival[(k * n + i) * n + j]: when each batch queued on net k's i->j
  // channel may be popped, in the channel's FIFO order.
  std::vector<std::deque<SimTime>> arrival(nk * n * n);
  auto arrivals = [&](size_t k, size_t i, size_t j) -> std::deque<SimTime>& {
    return arrival[(k * n + i) * n + j];
  };

  // The producer is done: every net still open (only after a failure)
  // closes with its status.
  auto close = [&](size_t i, Status st) {
    prod[i].done = true;
    out.producer_done[i] = prod[i].clock;
    for (size_t k = 0; k < nk; ++k) close_net(k, i, st);
    out.producer_status[i] = std::move(st);
    if (--open_producers == 0 && schedule == ExchangeSchedule::kBarrier) {
      // The barrier opens: each consumer starts once the last close into
      // it has arrived.
      for (size_t j = 0; j < n; ++j) {
        for (size_t s = 0; s < n; ++s) {
          cons[j].clock =
              std::max(cons[j].clock, out.producer_done[s] + hop(s, j));
        }
      }
    }
  };

  // Producer step: stream rows until at least one batch flushes (or the
  // producer closes), charging each cross-node batch's encode.
  bool flushed = false;
  auto produce = [&](size_t i) {
    Producer& pr = prod[i];
    flushed = false;
    while (!flushed) {
      if (pr.input == inputs[i].size()) {
        close(i, Status::OK());
        return;
      }
      const ScatterInput& in = inputs[i][pr.input];
      if (!pr.scatter) {
        pr.guard.emplace(nets[in.net], static_cast<int>(i));
        pr.scatter.emplace(
            nets[in.net], static_cast<int>(i), in.key_idx,
            [&, i, k = in.net](int dst, size_t bytes) {
              const size_t j = static_cast<size_t>(dst);
              if (j != i) {
                prod[i].clock = scheduler->Charge(
                    node_resources[i], prod[i].clock,
                    service(&prod[i].cum, bytes));
              }
              arrivals(k, i, j).push_back(prod[i].clock + hop(i, j));
              flushed = true;
            });
        pr.row = 0;
      }
      const bool finishing = pr.row == in.rows->size();
      Status st = finishing ? pr.scatter->Finish()
                            : pr.scatter->Push((*in.rows)[pr.row++]);
      if (!st.ok() || finishing) {
        if (st.ok()) pr.guard->Commit();
        pr.scatter.reset();
        pr.guard.reset();  // rolls a failed input's sends back
        if (!st.ok()) {
          close(i, std::move(st));
          return;
        }
        const size_t k = in.net;
        if (net_end[k * n + i] == ++pr.input) close_net(k, i, Status::OK());
      }
    }
  };

  // When consumer j's next step is due; nullopt while it waits on an open,
  // empty channel (under the barrier schedule, on any open producer).
  // Passing a drained, cleanly closed channel takes no step: the consumer
  // notes the close, seen one hop after that net's close.
  auto due = [&](size_t j) -> std::optional<SimTime> {
    Consumer& c = cons[j];
    if (schedule == ExchangeSchedule::kBarrier && open_producers > 0) {
      return std::nullopt;
    }
    while (c.net < nk) {
      const std::deque<SimTime>& q = arrivals(c.net, c.src, j);
      if (!q.empty()) return std::max(c.clock, q.front());
      const NetClose& closed = net_close[c.net * n + c.src];
      if (!closed.closed) return std::nullopt;
      c.clock = std::max(c.clock, closed.at + hop(c.src, j));
      if (!closed.status.ok()) return c.clock;  // pop fails
      if (++c.src == n) {
        c.src = 0;
        ++c.net;
      }
    }
    return c.clock;  // every channel drained and closed: finish
  };

  auto finish = [&](size_t j, Status st) {
    Consumer& c = cons[j];
    c.done = true;
    out.consumer_status[j] = std::move(st);
    out.ready[j] = c.clock;
    out.first_consume[j] = c.first >= 0 ? c.first : c.clock;
  };

  // Consumer step at `at`: pop and decode the next batch, or — input
  // complete — pay the spill I/O of everything that reached j via disk.
  auto consume = [&](size_t j, SimTime at) {
    Consumer& c = cons[j];
    c.clock = at;
    if (c.net == nk) {
      size_t spilled = 0;
      for (const ExchangeNetwork* net : nets) {
        spilled += net->SpilledInBytes(static_cast<int>(j));
      }
      if (spilled > 0) {
        c.clock = scheduler->Charge(node_resources[j], c.clock,
                                    SpillServiceTime(spilled, p));
      }
      finish(j, Status::OK());
      return;
    }
    auto batch = nets[c.net]
                     ->channel(static_cast<int>(c.src), static_cast<int>(j))
                     .PopBatch();
    if (!batch.ok()) {
      finish(j, batch.status());
      return;
    }
    arrivals(c.net, c.src, j).pop_front();
    ++out.batches_popped;
    const std::string& payload = **batch;
    if (c.src != j) {
      const SimTime s = service(&c.cum, payload.size());
      c.clock = scheduler->Charge(node_resources[j], c.clock, s);
      if (c.first < 0) c.first = c.clock - s;
    }
    auto rows = DecodeBatch(payload);
    if (!rows.ok()) {
      finish(j, rows.status());
      return;
    }
    std::vector<Row>& dst_rows = out.rows[c.net][j];
    for (Row& r : *rows) dst_rows.push_back(std::move(r));
  };

  // Always run the due step with the smallest simulated time; ties go to
  // producers, then to the lower node id.
  while (true) {
    size_t next = 2 * n;  // producers are 0..n-1, consumers n..2n-1
    SimTime next_at = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!prod[i].done && (next == 2 * n || prod[i].clock < next_at)) {
        next = i;
        next_at = prod[i].clock;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (cons[j].done) continue;
      std::optional<SimTime> at = due(j);
      if (at.has_value() && (next == 2 * n || *at < next_at)) {
        next = n + j;
        next_at = *at;
      }
    }
    if (next == 2 * n) break;  // every producer and consumer finished
    if (next < n) {
      produce(next);
    } else {
      consume(next - n, next_at);
    }
  }

  SimTime last_close = 0;
  for (SimTime d : out.producer_done) last_close = std::max(last_close, d);
  for (const Consumer& c : cons) {
    if (c.first >= 0) out.overlap_us += std::max<SimTime>(0, last_close - c.first);
  }
  return out;
}

}  // namespace ofi::cluster::exchange
