#ifndef CSJ_NET_WIRE_H_
#define CSJ_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/community.h"
#include "core/method.h"
#include "core/types.h"
#include "service/server.h"

namespace csj::net {

/// The csjoin binary wire protocol, version 1.
///
/// Every message is one length-prefixed frame (all integers little-
/// endian, doubles as IEEE-754 bit patterns):
///
///   offset  size  field
///   0       4     magic = 0x314A5343 ("CSJ1" on a little-endian wire)
///   4       1     protocol version = 1
///   5       1     frame type (1 = request, 2 = response)
///   6       2     reserved, must be 0
///   8       4     request id (correlation: echoed in the response)
///   12      4     payload length in bytes (<= kMaxPayloadBytes)
///   16      ...   payload
///
/// Request payload:
///   u8  kind (0 top-k, 1 upsert, 2 remove)
///   u8  flags: bit0 prescreen, bit1 use_bound_cutoff, bit2 has community
///   u16 method (Method enum index; must name an exact method for top-k)
///   u32 k (top-k: must be <= kMaxTopKEntries, see below)
///   u32 eps
///   u64 id (upsert/remove target)
///   f64 deadline_seconds (0 = none)
///   f64 prescreen_threshold
///       (both must be finite: an infinite or NaN value is kBadPayload)
///   if has-community: u32 d, u32 users, u32 name bytes, name,
///                     users*d u32 counters (row-major)
///
/// Response payload:
///   u8  status (ServeStatus)
///   u8  flags: bit0 cache_hit, bit1 deadline_expired (top-k partial)
///   u16 reserved = 0
///   u32 entry count
///   u64 upsert version
///   u64 state_version (catalog mutation-clock tag; 0 = unstable)
///   u64 sequence (server execution order)
///   f64 queue_seconds, f64 total_seconds
///   entries: { u64 id, u64 version, u64 similarity bit pattern } each —
///     the similarity crosses the wire as raw double BITS, so the
///     "byte-identical ranking" contract survives serialization exactly
///   stats: u32 catalog_entries, u32 refined, u32 bound_skipped,
///          u32 prescreen_probed, u32 prescreen_skipped, u32 fallback
///
/// A decoder that sees a bad magic/version/type, a payload length above
/// kMaxPayloadBytes, or a malformed payload is POISONED: the stream has
/// lost framing and the connection must be dropped (there is no way to
/// resynchronize a length-prefixed stream). Truncation (EOF mid-frame) is
/// reported by Finish().
inline constexpr uint32_t kFrameMagic = 0x314A5343;  // "CSJ1"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr size_t kMaxPayloadBytes = size_t{64} << 20;  // 64 MiB

/// Largest k a top-k request frame may carry. A response holds 48 fixed
/// payload bytes + 24 per entry + 24 stats bytes, and the entry count is
/// min(k, catalog size) — so k must be bounded at DECODE time or a remote
/// request with a huge k against a large catalog would make the response
/// exceed kMaxPayloadBytes while ENCODING, after the work is already
/// done. A request above this bound is kBadPayload.
inline constexpr uint32_t kMaxTopKEntries =
    static_cast<uint32_t>((kMaxPayloadBytes - 48 - 24) / 24);

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

enum class WireStatus : uint8_t {
  kOk,             ///< a frame was produced
  kNeedMore,       ///< no complete frame buffered yet
  kBadMagic,       ///< stream is not csjoin traffic
  kBadVersion,     ///< protocol version mismatch
  kBadFrameType,   ///< neither request nor response
  kOversized,      ///< length prefix exceeds kMaxPayloadBytes
  kBadPayload,     ///< payload malformed (garbage enum, length mismatch)
  kTruncated,      ///< EOF landed mid-frame
};

const char* WireStatusName(WireStatus status);

/// The request fields that cross the wire. The server merges them over
/// its own TopKOptions template (cache pointers, pool, query_threads stay
/// server policy — a client cannot pick them).
struct WireRequest {
  service::RequestKind kind = service::RequestKind::kTopK;
  uint64_t id = 0;
  uint32_t k = 10;
  Epsilon eps = 1;
  Method method = Method::kExMinMax;
  bool prescreen = false;
  bool use_bound_cutoff = true;
  double prescreen_threshold = 0.10;
  double deadline_seconds = 0.0;
  /// Null when the request carries no community (kRemove).
  std::shared_ptr<const Community> community;
};

/// The response fields that cross the wire (ServeResponse minus the
/// server-local stats that have no client meaning).
struct WireResponse {
  service::ServeStatus status = service::ServeStatus::kOk;
  bool cache_hit = false;
  bool deadline_expired = false;
  uint64_t version = 0;
  uint64_t state_version = 0;
  uint64_t sequence = 0;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<service::TopKEntry> entries;
  uint32_t catalog_entries = 0;
  uint32_t refined = 0;
  uint32_t bound_skipped = 0;
  uint32_t prescreen_probed = 0;
  uint32_t prescreen_skipped = 0;
  uint32_t fallback = 0;
};

/// One decoded frame; exactly one of request/response is meaningful,
/// selected by `type`.
struct DecodedFrame {
  FrameType type = FrameType::kRequest;
  uint32_t request_id = 0;
  WireRequest request;
  WireResponse response;
};

/// Appends one request frame to `out` (which may already hold frames —
/// encoders never clear).
void EncodeRequestFrame(uint32_t request_id, const WireRequest& request,
                        std::vector<uint8_t>* out);

/// Appends one response frame to `out`.
void EncodeResponseFrame(uint32_t request_id, const WireResponse& response,
                         std::vector<uint8_t>* out);

/// Builds the wire view of a ServeResponse.
WireResponse ToWireResponse(const service::ServeResponse& response);

/// Incremental frame decoder for one byte stream (one per connection).
/// Feed() buffers raw bytes; Next() yields frames until kNeedMore. Any
/// error status is STICKY — the connection owning this decoder must be
/// closed. Finish() reports whether EOF at this point is clean.
class FrameDecoder {
 public:
  void Feed(const uint8_t* data, size_t size);

  /// Decodes the next buffered frame into `*frame`. Returns kOk per
  /// frame, kNeedMore when the buffer holds no complete frame, or the
  /// sticky error that poisoned the stream.
  WireStatus Next(DecodedFrame* frame);

  /// EOF check: kOk when no partial frame is buffered (a clean close),
  /// kTruncated (sticky) when the peer died mid-frame, or the earlier
  /// sticky error.
  WireStatus Finish();

  /// Total frames successfully decoded (connection stats).
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  ///< bytes of buffer_ already decoded
  WireStatus error_ = WireStatus::kOk;  ///< sticky once != kOk
  uint64_t frames_decoded_ = 0;
};

}  // namespace csj::net

#endif  // CSJ_NET_WIRE_H_
