#include "net/wire.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "util/logging.h"

namespace csj::net {

namespace {

// ---- primitive writers (explicit little-endian, platform-agnostic) ----

void PutU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void PutF64(double v, std::vector<uint8_t>* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

/// Bounds-checked big-to-small reader over one payload span. Every Get
/// reports success; a false return means the payload lied about its
/// length (-> kBadPayload).
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool GetU8(uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool GetU16(uint16_t* v) {
    if (size_ - pos_ < 2) return false;
    *v = static_cast<uint16_t>(data_[pos_] |
                               (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool GetBytes(void* dst, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutFrameHeader(FrameType type, uint32_t request_id,
                    size_t payload_bytes, std::vector<uint8_t>* out) {
  CSJ_CHECK_LE(payload_bytes, kMaxPayloadBytes);
  PutU32(kFrameMagic, out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutU16(0, out);  // reserved
  PutU32(request_id, out);
  PutU32(static_cast<uint32_t>(payload_bytes), out);
}

constexpr uint8_t kReqFlagPrescreen = 1u << 0;
constexpr uint8_t kReqFlagCutoff = 1u << 1;
constexpr uint8_t kReqFlagHasCommunity = 1u << 2;
constexpr uint8_t kRespFlagCacheHit = 1u << 0;
constexpr uint8_t kRespFlagDeadlineExpired = 1u << 1;

bool ValidMethod(uint16_t method) {
  return method <= static_cast<uint16_t>(Method::kExGridHash);
}

bool ValidKind(uint8_t kind) {
  return kind <= static_cast<uint8_t>(service::RequestKind::kRemove);
}

bool ValidStatus(uint8_t status) {
  return status <= static_cast<uint8_t>(service::ServeStatus::kNotFound);
}

bool DecodeRequestPayload(Cursor cursor, WireRequest* request) {
  uint8_t kind = 0;
  uint8_t flags = 0;
  uint16_t method = 0;
  if (!cursor.GetU8(&kind) || !cursor.GetU8(&flags) ||
      !cursor.GetU16(&method) || !cursor.GetU32(&request->k) ||
      !cursor.GetU32(&request->eps) || !cursor.GetU64(&request->id) ||
      !cursor.GetF64(&request->deadline_seconds) ||
      !cursor.GetF64(&request->prescreen_threshold)) {
    return false;
  }
  if (!ValidKind(kind) || !ValidMethod(method) || (flags & ~0x07u) != 0) {
    return false;
  }
  // Deadlines and thresholds are finite numbers; an infinite or NaN one
  // is a malformed frame, not a request to serve.
  if (!std::isfinite(request->deadline_seconds) ||
      !std::isfinite(request->prescreen_threshold)) {
    return false;
  }
  request->kind = static_cast<service::RequestKind>(kind);
  request->method = static_cast<Method>(method);
  // Bound k here, where the frame is still cheap to refuse: entries cost
  // 24 response bytes each, so an unbounded k would let a client force
  // the RESPONSE over kMaxPayloadBytes after the query already ran.
  if (request->kind == service::RequestKind::kTopK &&
      request->k > kMaxTopKEntries) {
    return false;
  }
  request->prescreen = (flags & kReqFlagPrescreen) != 0;
  request->use_bound_cutoff = (flags & kReqFlagCutoff) != 0;
  if ((flags & kReqFlagHasCommunity) == 0) {
    request->community = nullptr;
    return cursor.remaining() == 0;
  }
  uint32_t d = 0;
  uint32_t users = 0;
  uint32_t name_bytes = 0;
  if (!cursor.GetU32(&d) || !cursor.GetU32(&users) ||
      !cursor.GetU32(&name_bytes)) {
    return false;
  }
  if (d == 0) return false;
  // The name can never exceed what is actually buffered; checking BEFORE
  // the allocation keeps a hostile name_bytes=0xFFFFFFFF from forcing a
  // 4 GiB zero-fill that no later bounds check could take back.
  if (name_bytes > cursor.remaining()) return false;
  std::string name(name_bytes, '\0');
  if (name_bytes > 0 && !cursor.GetBytes(name.data(), name_bytes)) {
    return false;
  }
  // The counters must account for EXACTLY the rest of the payload; the
  // multiplication is checked against the buffered size first so a
  // hostile (users, d) pair cannot overflow into a giant allocation.
  const size_t counters = static_cast<size_t>(users) * d;
  if (counters != cursor.remaining() / sizeof(Count) ||
      cursor.remaining() % sizeof(Count) != 0) {
    return false;
  }
  std::vector<Count> flat(counters);
  if constexpr (std::endian::native == std::endian::little) {
    if (counters > 0 &&
        !cursor.GetBytes(flat.data(), counters * sizeof(Count))) {
      return false;
    }
  } else {
    for (Count& c : flat) {
      if (!cursor.GetU32(&c)) return false;
    }
  }
  request->community = std::make_shared<const Community>(
      d, std::move(flat), std::move(name));
  return true;
}

bool DecodeResponsePayload(Cursor cursor, WireResponse* response) {
  uint8_t status = 0;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  uint32_t entry_count = 0;
  if (!cursor.GetU8(&status) || !cursor.GetU8(&flags) ||
      !cursor.GetU16(&reserved) || !cursor.GetU32(&entry_count) ||
      !cursor.GetU64(&response->version) ||
      !cursor.GetU64(&response->state_version) ||
      !cursor.GetU64(&response->sequence) ||
      !cursor.GetF64(&response->queue_seconds) ||
      !cursor.GetF64(&response->total_seconds)) {
    return false;
  }
  if (!ValidStatus(status) || (flags & ~0x03u) != 0 || reserved != 0) {
    return false;
  }
  response->status = static_cast<service::ServeStatus>(status);
  response->cache_hit = (flags & kRespFlagCacheHit) != 0;
  response->deadline_expired = (flags & kRespFlagDeadlineExpired) != 0;
  // Entries claim 24 bytes each and the trailing stats 24 more; check
  // the claimed count against what is actually buffered before sizing
  // the vector.
  if (cursor.remaining() < static_cast<size_t>(entry_count) * 24 + 24) {
    return false;
  }
  response->entries.resize(entry_count);
  for (service::TopKEntry& entry : response->entries) {
    uint64_t bits = 0;
    if (!cursor.GetU64(&entry.id) || !cursor.GetU64(&entry.version) ||
        !cursor.GetU64(&bits)) {
      return false;
    }
    entry.similarity = std::bit_cast<double>(bits);
  }
  if (!cursor.GetU32(&response->catalog_entries) ||
      !cursor.GetU32(&response->refined) ||
      !cursor.GetU32(&response->bound_skipped) ||
      !cursor.GetU32(&response->prescreen_probed) ||
      !cursor.GetU32(&response->prescreen_skipped) ||
      !cursor.GetU32(&response->fallback)) {
    return false;
  }
  return cursor.remaining() == 0;
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kNeedMore: return "need_more";
    case WireStatus::kBadMagic: return "bad_magic";
    case WireStatus::kBadVersion: return "bad_version";
    case WireStatus::kBadFrameType: return "bad_frame_type";
    case WireStatus::kOversized: return "oversized";
    case WireStatus::kBadPayload: return "bad_payload";
    case WireStatus::kTruncated: return "truncated";
  }
  return "unknown";
}

void EncodeRequestFrame(uint32_t request_id, const WireRequest& request,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  const bool has_community = request.community != nullptr;
  uint8_t flags = 0;
  if (request.prescreen) flags |= kReqFlagPrescreen;
  if (request.use_bound_cutoff) flags |= kReqFlagCutoff;
  if (has_community) flags |= kReqFlagHasCommunity;
  PutU8(static_cast<uint8_t>(request.kind), &payload);
  PutU8(flags, &payload);
  PutU16(static_cast<uint16_t>(request.method), &payload);
  PutU32(request.k, &payload);
  PutU32(request.eps, &payload);
  PutU64(request.id, &payload);
  PutF64(request.deadline_seconds, &payload);
  PutF64(request.prescreen_threshold, &payload);
  if (has_community) {
    const Community& community = *request.community;
    PutU32(community.d(), &payload);
    PutU32(community.size(), &payload);
    PutU32(static_cast<uint32_t>(community.name().size()), &payload);
    payload.insert(payload.end(), community.name().begin(),
                   community.name().end());
    payload.reserve(payload.size() +
                    community.flat().size() * sizeof(Count));
    if constexpr (std::endian::native == std::endian::little) {
      const auto* raw =
          reinterpret_cast<const uint8_t*>(community.flat().data());
      payload.insert(payload.end(), raw,
                     raw + community.flat().size() * sizeof(Count));
    } else {
      for (const Count c : community.flat()) PutU32(c, &payload);
    }
  }
  PutFrameHeader(FrameType::kRequest, request_id, payload.size(), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

void EncodeResponseFrame(uint32_t request_id, const WireResponse& response,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  uint8_t flags = 0;
  if (response.cache_hit) flags |= kRespFlagCacheHit;
  if (response.deadline_expired) flags |= kRespFlagDeadlineExpired;
  PutU8(static_cast<uint8_t>(response.status), &payload);
  PutU8(flags, &payload);
  PutU16(0, &payload);
  PutU32(static_cast<uint32_t>(response.entries.size()), &payload);
  PutU64(response.version, &payload);
  PutU64(response.state_version, &payload);
  PutU64(response.sequence, &payload);
  PutF64(response.queue_seconds, &payload);
  PutF64(response.total_seconds, &payload);
  for (const service::TopKEntry& entry : response.entries) {
    PutU64(entry.id, &payload);
    PutU64(entry.version, &payload);
    PutU64(std::bit_cast<uint64_t>(entry.similarity), &payload);
  }
  PutU32(response.catalog_entries, &payload);
  PutU32(response.refined, &payload);
  PutU32(response.bound_skipped, &payload);
  PutU32(response.prescreen_probed, &payload);
  PutU32(response.prescreen_skipped, &payload);
  PutU32(response.fallback, &payload);
  PutFrameHeader(FrameType::kResponse, request_id, payload.size(), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

WireResponse ToWireResponse(const service::ServeResponse& response) {
  WireResponse wire;
  wire.status = response.status;
  wire.cache_hit = response.cache_hit;
  wire.deadline_expired = response.topk.deadline_expired;
  wire.version = response.version;
  wire.state_version = response.state_version;
  wire.sequence = response.sequence;
  wire.queue_seconds = response.queue_seconds;
  wire.total_seconds = response.total_seconds;
  wire.entries = response.topk.entries;
  wire.catalog_entries = response.topk.stats.catalog_entries;
  wire.refined = response.topk.stats.refined;
  wire.bound_skipped = response.topk.stats.bound_skipped;
  wire.prescreen_probed = response.topk.stats.prescreen_probed;
  wire.prescreen_skipped = response.topk.stats.prescreen_skipped;
  wire.fallback = response.topk.stats.fallback;
  return wire;
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  if (error_ != WireStatus::kOk) return;  // poisoned: drop everything
  // Compact lazily: only when the decoded prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

WireStatus FrameDecoder::Next(DecodedFrame* frame) {
  if (error_ != WireStatus::kOk) return error_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return WireStatus::kNeedMore;
  Cursor header(buffer_.data() + consumed_, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint16_t reserved = 0;
  uint32_t request_id = 0;
  uint32_t payload_bytes = 0;
  CSJ_CHECK(header.GetU32(&magic) && header.GetU8(&version) &&
            header.GetU8(&type) && header.GetU16(&reserved) &&
            header.GetU32(&request_id) && header.GetU32(&payload_bytes));
  if (magic != kFrameMagic) return error_ = WireStatus::kBadMagic;
  if (version != kWireVersion) return error_ = WireStatus::kBadVersion;
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    return error_ = WireStatus::kBadFrameType;
  }
  if (reserved != 0) return error_ = WireStatus::kBadPayload;
  if (payload_bytes > kMaxPayloadBytes) {
    // An oversized length prefix is rejected BEFORE buffering the body:
    // a hostile peer cannot make the server allocate 4 GiB by writing 16
    // bytes.
    return error_ = WireStatus::kOversized;
  }
  if (available < kFrameHeaderBytes + payload_bytes) {
    return WireStatus::kNeedMore;
  }
  Cursor payload(buffer_.data() + consumed_ + kFrameHeaderBytes,
                 payload_bytes);
  frame->type = static_cast<FrameType>(type);
  frame->request_id = request_id;
  bool ok = false;
  if (frame->type == FrameType::kRequest) {
    ok = DecodeRequestPayload(payload, &frame->request);
  } else {
    ok = DecodeResponsePayload(payload, &frame->response);
  }
  if (!ok) return error_ = WireStatus::kBadPayload;
  consumed_ += kFrameHeaderBytes + payload_bytes;
  ++frames_decoded_;
  return WireStatus::kOk;
}

WireStatus FrameDecoder::Finish() {
  if (error_ != WireStatus::kOk) return error_;
  if (buffer_.size() != consumed_) return error_ = WireStatus::kTruncated;
  return WireStatus::kOk;
}

}  // namespace csj::net
