// The binary wire protocol and the loopback serving stack. Decoder unit
// tests cover the hostile-input surface (bad magic/version/type, an
// oversized length prefix rejected before any body is buffered, garbage
// enum values, mid-frame EOF) and the roundtrip contracts (chunked
// feeds, multi-frame buffers, double BIT patterns surviving the wire).
// Loopback tests then prove the end-to-end identity — a top-k answered
// over TCP, computed or served from the result cache, is byte-identical
// to the direct in-process query — plus
// admission control (kRejected frames for shed requests) and the
// drop-on-broken-framing connection policy.

#include <algorithm>
#include "net/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/dimension_reach.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "service/server.h"
#include "service/workload.h"
#include "test_seed.h"

namespace csj::net {
namespace {

std::shared_ptr<const Community> MakeTestCommunity() {
  // 3 profile attributes, 4 users, non-trivial counters and a name.
  std::vector<Count> flat = {1, 0, 2, 3, 1, 0, 0, 5, 1, 2, 2, 2};
  return std::make_shared<const Community>(3, std::move(flat), "brand_x");
}

// ---------------------------------------------------------------------
// FrameDecoder: roundtrips.
// ---------------------------------------------------------------------

TEST(NetWire, RequestRoundtripSurvivesByteByByteFeed) {
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.k = 7;
  request.eps = 2;
  request.method = Method::kExMinMax;
  request.prescreen = true;
  request.use_bound_cutoff = false;
  request.prescreen_threshold = 0.125;
  request.deadline_seconds = 1.5;
  request.community = MakeTestCommunity();

  std::vector<uint8_t> bytes;
  EncodeRequestFrame(41, request, &bytes);

  // Worst-case TCP segmentation: one byte per Feed.
  FrameDecoder decoder;
  DecodedFrame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    ASSERT_EQ(decoder.Next(&frame), WireStatus::kNeedMore);
  }
  decoder.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.Next(&frame), WireStatus::kOk);

  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.request_id, 41u);
  const WireRequest& decoded = frame.request;
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.k, 7u);
  EXPECT_EQ(decoded.eps, 2u);
  EXPECT_EQ(decoded.method, Method::kExMinMax);
  EXPECT_TRUE(decoded.prescreen);
  EXPECT_FALSE(decoded.use_bound_cutoff);
  EXPECT_EQ(decoded.prescreen_threshold, 0.125);
  EXPECT_EQ(decoded.deadline_seconds, 1.5);
  ASSERT_NE(decoded.community, nullptr);
  EXPECT_EQ(decoded.community->d(), request.community->d());
  EXPECT_EQ(decoded.community->size(), request.community->size());
  EXPECT_EQ(decoded.community->name(), request.community->name());
  EXPECT_TRUE(std::ranges::equal(decoded.community->flat(), request.community->flat()));
  EXPECT_EQ(decoder.Finish(), WireStatus::kOk);
}

TEST(NetWire, ResponseRoundtripPreservesDoubleBits) {
  WireResponse response;
  response.status = service::ServeStatus::kOk;
  response.cache_hit = true;
  response.state_version = 17;
  response.sequence = 99;
  response.queue_seconds = 0.001;
  response.total_seconds = 0.25;
  // Similarities chosen so any decimal re-parse would change the bits.
  response.entries = {{5, 2, 0.1 + 0.2},
                      {9, 1, 1.0 / 3.0},
                      {2, 4, std::nextafter(0.5, 1.0)}};
  response.catalog_entries = 24;
  response.refined = 7;

  std::vector<uint8_t> bytes;
  EncodeResponseFrame(12, response, &bytes);

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  ASSERT_EQ(decoder.Next(&frame), WireStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 12u);
  const WireResponse& decoded = frame.response;
  EXPECT_EQ(decoded.status, service::ServeStatus::kOk);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.deadline_expired);
  EXPECT_EQ(decoded.state_version, 17u);
  EXPECT_EQ(decoded.sequence, 99u);
  EXPECT_EQ(decoded.catalog_entries, 24u);
  EXPECT_EQ(decoded.refined, 7u);
  ASSERT_EQ(decoded.entries.size(), response.entries.size());
  for (size_t i = 0; i < response.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].id, response.entries[i].id);
    EXPECT_EQ(decoded.entries[i].version, response.entries[i].version);
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.entries[i].similarity),
              std::bit_cast<uint64_t>(response.entries[i].similarity));
  }
}

TEST(NetWire, MultipleFramesDecodeFromOneBuffer) {
  std::vector<uint8_t> bytes;
  WireRequest remove;
  remove.kind = service::RequestKind::kRemove;
  remove.id = 9;
  for (uint32_t id = 1; id <= 3; ++id) EncodeRequestFrame(id, remove, &bytes);

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  for (uint32_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(decoder.Next(&frame), WireStatus::kOk);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.request.kind, service::RequestKind::kRemove);
    EXPECT_EQ(frame.request.id, 9u);
  }
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kNeedMore);
  EXPECT_EQ(decoder.frames_decoded(), 3u);
}

// ---------------------------------------------------------------------
// FrameDecoder: the hostile-input surface. Every framing error must be
// sticky: once the stream lost framing there is no resync.
// ---------------------------------------------------------------------

std::vector<uint8_t> ValidRemoveFrame(uint32_t request_id) {
  WireRequest remove;
  remove.kind = service::RequestKind::kRemove;
  remove.id = 1;
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(request_id, remove, &bytes);
  return bytes;
}

TEST(NetWire, BadMagicPoisonsTheStream) {
  std::vector<uint8_t> bytes = ValidRemoveFrame(1);
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadMagic);
  // Sticky: even a pristine frame fed afterwards must not decode.
  const std::vector<uint8_t> good = ValidRemoveFrame(2);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadMagic);
  EXPECT_EQ(decoder.Finish(), WireStatus::kBadMagic);
}

TEST(NetWire, BadVersionAndTypeAndReservedRejected) {
  {
    std::vector<uint8_t> bytes = ValidRemoveFrame(1);
    bytes[4] = 99;  // protocol version
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    DecodedFrame frame;
    EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadVersion);
  }
  {
    std::vector<uint8_t> bytes = ValidRemoveFrame(1);
    bytes[5] = 7;  // frame type: neither request nor response
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    DecodedFrame frame;
    EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadFrameType);
  }
  {
    std::vector<uint8_t> bytes = ValidRemoveFrame(1);
    bytes[6] = 1;  // reserved header bytes must be zero
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    DecodedFrame frame;
    EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload);
  }
}

TEST(NetWire, OversizedLengthPrefixRejectedBeforeBuffering) {
  // A hand-crafted header claiming a 1 GiB payload: the decoder must
  // reject from the 16 header bytes alone, never waiting for (or
  // allocating) the body.
  std::vector<uint8_t> bytes = ValidRemoveFrame(1);
  bytes.resize(kFrameHeaderBytes);
  const uint32_t huge = 1u << 30;  // little-endian by spec
  bytes[12] = static_cast<uint8_t>(huge);
  bytes[13] = static_cast<uint8_t>(huge >> 8);
  bytes[14] = static_cast<uint8_t>(huge >> 16);
  bytes[15] = static_cast<uint8_t>(huge >> 24);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kOversized);
}

TEST(NetWire, GarbageMethodIsBadPayload) {
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.community = MakeTestCommunity();
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  // Payload layout: u8 kind, u8 flags, u16 method — patch the method to
  // an id no Method enum names.
  bytes[kFrameHeaderBytes + 2] = 0xFF;
  bytes[kFrameHeaderBytes + 3] = 0xFF;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload);
}

TEST(NetWire, HugeNameLengthRejectedBeforeAllocating) {
  // The community name length is an untrusted u32. A tiny frame claiming
  // a 4 GiB name must be refused from the bytes actually buffered —
  // BEFORE sizing the string — or 16 header bytes plus a short payload
  // would buy the peer a multi-gigabyte zero-fill.
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.community = MakeTestCommunity();
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  // Payload layout up to the name: u8 kind, u8 flags, u16 method, u32 k,
  // u32 eps, u64 id, f64 deadline, f64 threshold (36 bytes), then u32 d,
  // u32 users, u32 name_bytes.
  const size_t name_bytes_offset = kFrameHeaderBytes + 36 + 4 + 4;
  for (size_t i = 0; i < 4; ++i) bytes[name_bytes_offset + i] = 0xFF;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload);
}

TEST(NetWire, TopKAboveResponseCapIsBadPayload) {
  // k bounds the response entry count; above kMaxTopKEntries the
  // response could not be encoded within kMaxPayloadBytes, so the
  // REQUEST must already be refused at decode.
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.community = MakeTestCommunity();
  request.k = kMaxTopKEntries + 1;
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload);

  // Exactly at the cap decodes fine: the bound is the contract, not a
  // fuzzy safety margin.
  request.k = kMaxTopKEntries;
  bytes.clear();
  EncodeRequestFrame(2, request, &bytes);
  FrameDecoder ok_decoder;
  ok_decoder.Feed(bytes.data(), bytes.size());
  ASSERT_EQ(ok_decoder.Next(&frame), WireStatus::kOk);
  EXPECT_EQ(frame.request.k, kMaxTopKEntries);
}

TEST(NetWire, NonFiniteDeadlineOrThresholdIsBadPayload) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const bool threshold : {false, true}) {
    for (const double bad : {kInf, -kInf, kNaN}) {
      WireRequest request;
      request.kind = service::RequestKind::kTopK;
      request.community = MakeTestCommunity();
      (threshold ? request.prescreen_threshold : request.deadline_seconds) =
          bad;
      std::vector<uint8_t> bytes;
      EncodeRequestFrame(1, request, &bytes);
      FrameDecoder decoder;
      decoder.Feed(bytes.data(), bytes.size());
      DecodedFrame frame;
      EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload)
          << (threshold ? "threshold " : "deadline ") << bad;
    }
  }
  // A huge but finite deadline is well formed; serving treats it as none.
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.community = MakeTestCommunity();
  request.deadline_seconds = 1e10;
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  ASSERT_EQ(decoder.Next(&frame), WireStatus::kOk);
  EXPECT_EQ(frame.request.deadline_seconds, 1e10);
}

TEST(NetWire, CounterLengthMismatchIsBadPayload) {
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.community = MakeTestCommunity();
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  // Drop the last 4 payload bytes and fix up the length prefix: the
  // (users, d) product no longer matches the counters actually present.
  bytes.resize(bytes.size() - sizeof(Count));
  const auto payload =
      static_cast<uint32_t>(bytes.size() - kFrameHeaderBytes);
  bytes[12] = static_cast<uint8_t>(payload);
  bytes[13] = static_cast<uint8_t>(payload >> 8);
  bytes[14] = static_cast<uint8_t>(payload >> 16);
  bytes[15] = static_cast<uint8_t>(payload >> 24);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kBadPayload);
}

TEST(NetWire, ShortReadThenEofIsTruncated) {
  const std::vector<uint8_t> bytes = ValidRemoveFrame(1);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size() / 2);
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), WireStatus::kNeedMore);
  // The peer hung up mid-frame.
  EXPECT_EQ(decoder.Finish(), WireStatus::kTruncated);
  EXPECT_EQ(decoder.Finish(), WireStatus::kTruncated);  // sticky
}

// ---------------------------------------------------------------------
// Loopback: NetServer + NetClient against a live CsjServer.
// ---------------------------------------------------------------------

service::WorkloadOptions LoopbackWorkload(uint64_t seed) {
  service::WorkloadOptions options;
  options.catalog_size = 10;
  options.community_size = 50;
  options.upsert_fraction = 0.0;
  options.seed = seed;
  return options;
}

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

TEST(NetLoopback, TopKOverTcpIsByteIdenticalToDirectQuery) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4E7)));
  // The result-cache arm asks every query twice: the first answer is
  // computed, the second is a cache hit that crosses the same wire.
  for (const bool result_cache : {false, true}) {
    SCOPED_TRACE(result_cache ? "result cache on" : "result cache off");
    service::CsjServer::Options server_options;
    server_options.result_cache = result_cache;
    service::CsjServer server(server_options);
    workload.Populate(&server);

    NetServer::Options net_options;
    NetServer net_server(&server, net_options);
    std::unique_ptr<NetClient> client =
        NetClient::Connect("127.0.0.1", net_server.port());
    ASSERT_NE(client, nullptr);

    const int rounds = result_cache ? 2 : 1;
    service::TopKOptions topk;
    topk.k = 5;
    for (const std::shared_ptr<const Community>& community :
         workload.communities()) {
      const service::TopKResult reference =
          server.topk().Query(*community, topk);

      WireRequest request;
      request.kind = service::RequestKind::kTopK;
      request.k = 5;
      request.community = community;
      for (int round = 0; round < rounds; ++round) {
        WireResponse response;
        ASSERT_TRUE(client->Call(request, &response));
        ASSERT_EQ(response.status, service::ServeStatus::kOk);
        EXPECT_EQ(response.cache_hit, round == 1) << "round " << round;
        // Byte identity across serialization: same (id, version) and the
        // same similarity BIT patterns (TopKEntry::operator== compares
        // doubles by value; the bit check below is the stronger claim).
        ASSERT_EQ(response.entries.size(), reference.entries.size());
        for (size_t i = 0; i < reference.entries.size(); ++i) {
          EXPECT_EQ(response.entries[i].id, reference.entries[i].id);
          EXPECT_EQ(response.entries[i].version,
                    reference.entries[i].version);
          EXPECT_EQ(std::bit_cast<uint64_t>(response.entries[i].similarity),
                    std::bit_cast<uint64_t>(reference.entries[i].similarity));
        }
        EXPECT_NE(response.state_version, 0u);
      }
    }

    net_server.Shutdown();
    const NetServer::Stats stats = net_server.GetStats();
    const uint64_t calls = workload.communities().size() *
                           static_cast<uint64_t>(rounds);
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.frames_decoded, calls);
    EXPECT_EQ(stats.frames_sent, calls);
  }
}

TEST(NetLoopback, UpsertAndRemoveOverTcp) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4E8)));
  service::CsjServer server(service::CsjServer::Options{});
  workload.Populate(&server);

  NetServer net_server(&server, NetServer::Options{});
  std::unique_ptr<NetClient> client =
      NetClient::Connect("127.0.0.1", net_server.port());
  ASSERT_NE(client, nullptr);

  // Upsert over entry 3: a new version must be installed.
  WireRequest upsert;
  upsert.kind = service::RequestKind::kUpsert;
  upsert.id = 3;
  upsert.community = workload.communities()[0];
  WireResponse response;
  ASSERT_TRUE(client->Call(upsert, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kOk);
  const uint64_t first_version = response.version;
  EXPECT_GT(first_version, 0u);
  ASSERT_TRUE(client->Call(upsert, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kOk);
  EXPECT_GT(response.version, first_version);

  // Remove an absent id: kNotFound, connection stays healthy.
  WireRequest remove;
  remove.kind = service::RequestKind::kRemove;
  remove.id = 9999;
  ASSERT_TRUE(client->Call(remove, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kNotFound);

  // Remove a present id, then again: kOk then kNotFound.
  remove.id = 3;
  ASSERT_TRUE(client->Call(remove, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kOk);
  ASSERT_TRUE(client->Call(remove, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kNotFound);
}

TEST(NetLoopback, FullQueueAnswersRejectedFrames) {
  // Heavy queries + workers=1 + capacity=1: of 6 requests pipelined in
  // one write, at most 2 can be admitted (1 executing, 1 queued); the
  // rest must come back kRejected — admission control crosses the wire.
  service::WorkloadOptions workload_options;
  workload_options.catalog_size = 8;
  workload_options.community_size = 400;
  workload_options.upsert_fraction = 0.0;
  workload_options.seed = csj::testing::TestSeed(0x4E9);
  const service::ServeWorkload workload(workload_options);

  service::CsjServer::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  service::CsjServer server(options);
  workload.Populate(&server);

  NetServer net_server(&server, NetServer::Options{});
  const int fd = RawConnect(net_server.port());
  ASSERT_GE(fd, 0);

  constexpr uint32_t kRequests = 6;
  std::vector<uint8_t> bytes;
  for (uint32_t id = 1; id <= kRequests; ++id) {
    WireRequest request;
    request.kind = service::RequestKind::kTopK;
    request.k = 5;
    request.community = workload.communities()[id % 8];
    EncodeRequestFrame(id, request, &bytes);
  }
  ASSERT_TRUE(SendAll(fd, bytes));

  FrameDecoder decoder;
  uint32_t ok = 0;
  uint32_t rejected = 0;
  uint32_t received = 0;
  while (received < kRequests) {
    uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "server closed before all responses arrived";
    decoder.Feed(chunk, static_cast<size_t>(n));
    DecodedFrame frame;
    WireStatus status;
    while ((status = decoder.Next(&frame)) == WireStatus::kOk) {
      ASSERT_EQ(frame.type, FrameType::kResponse);
      ++received;
      if (frame.response.status == service::ServeStatus::kOk) ++ok;
      if (frame.response.status == service::ServeStatus::kRejected) {
        ++rejected;
      }
    }
    ASSERT_EQ(status, WireStatus::kNeedMore);
  }
  ::close(fd);

  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_GE(ok, 1u);       // the executing request always completes
  EXPECT_GE(rejected, 4u); // at most 1 executing + 1 queued slip through
}

void ExpectConnectionDropped(int fd, NetServer* net_server) {
  // The server answers broken framing by closing the connection; recv
  // draining to EOF proves the drop, the stats counter names the cause.
  uint8_t chunk[256];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
  }
  ::close(fd);
  for (int spin = 0; spin < 100; ++spin) {
    if (net_server->GetStats().decode_errors >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(net_server->GetStats().decode_errors, 1u);
}

TEST(NetLoopback, GarbageStreamDropsTheConnection) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4EA)));
  service::CsjServer server(service::CsjServer::Options{});
  workload.Populate(&server);
  NetServer net_server(&server, NetServer::Options{});

  const int fd = RawConnect(net_server.port());
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(SendAll(fd, garbage));
  ExpectConnectionDropped(fd, &net_server);
}

TEST(NetLoopback, MalformedPayloadDropsTheConnection) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4EB)));
  service::CsjServer server(service::CsjServer::Options{});
  workload.Populate(&server);
  NetServer net_server(&server, NetServer::Options{});

  const int fd = RawConnect(net_server.port());
  ASSERT_GE(fd, 0);
  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.k = 5;
  request.community = MakeTestCommunity();
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, request, &bytes);
  bytes[kFrameHeaderBytes + 2] = 0xFF;  // garbage method id
  bytes[kFrameHeaderBytes + 3] = 0xFF;
  ASSERT_TRUE(SendAll(fd, bytes));
  ExpectConnectionDropped(fd, &net_server);
}

TEST(NetLoopback, EmptyUpsertIsMalformedAndTheServerKeepsServing) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4EC)));
  service::CsjServer server(service::CsjServer::Options{});
  workload.Populate(&server);
  NetServer net_server(&server, NetServer::Options{});
  const uint64_t version_before = server.catalog().Get(3).version;

  // A well-formed frame whose upsert community has d = 3 but no users:
  // the catalog cannot hold it, so the frame is malformed.
  WireRequest upsert;
  upsert.kind = service::RequestKind::kUpsert;
  upsert.id = 3;
  upsert.community = std::make_shared<const Community>(
      3, std::vector<Count>{}, "empty");
  const int fd = RawConnect(net_server.port());
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> bytes;
  EncodeRequestFrame(1, upsert, &bytes);
  ASSERT_TRUE(SendAll(fd, bytes));
  ExpectConnectionDropped(fd, &net_server);

  // In-process callers are refused at admission, before any worker.
  service::ServeRequest direct;
  direct.kind = service::RequestKind::kUpsert;
  direct.id = 3;
  direct.community = upsert.community;
  std::future<service::ServeResponse> ignored;
  EXPECT_FALSE(server.Submit(std::move(direct), &ignored));

  // The server is still up and answers a normal request; entry 3 is
  // untouched.
  std::unique_ptr<NetClient> client =
      NetClient::Connect("127.0.0.1", net_server.port());
  ASSERT_NE(client, nullptr);
  WireRequest topk;
  topk.kind = service::RequestKind::kTopK;
  topk.k = 5;
  topk.community = workload.communities()[0];
  WireResponse response;
  ASSERT_TRUE(client->Call(topk, &response));
  EXPECT_EQ(response.status, service::ServeStatus::kOk);
  EXPECT_FALSE(response.entries.empty());
  EXPECT_EQ(server.catalog().Get(3).version, version_before);
}

TEST(NetLoopback, HugeDeadlineIsNoDeadlineAndNonFiniteIsMalformed) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4EE)));
  service::CsjServer server(service::CsjServer::Options{});
  workload.Populate(&server);
  NetServer net_server(&server, NetServer::Options{});
  std::unique_ptr<NetClient> client =
      NetClient::Connect("127.0.0.1", net_server.port());
  ASSERT_NE(client, nullptr);

  WireRequest request;
  request.kind = service::RequestKind::kTopK;
  request.k = 5;
  request.community = workload.communities()[0];
  WireResponse want;
  ASSERT_TRUE(client->Call(request, &want));
  ASSERT_EQ(want.status, service::ServeStatus::kOk);
  ASSERT_FALSE(want.entries.empty());

  // Deadlines past the steady clock's range (~292 years of nanoseconds)
  // are no deadline: the answer is the deadline-free one.
  for (const double seconds : {1e10, 1e300}) {
    request.deadline_seconds = seconds;
    WireResponse response;
    ASSERT_TRUE(client->Call(request, &response)) << seconds;
    EXPECT_EQ(response.status, service::ServeStatus::kOk) << seconds;
    EXPECT_FALSE(response.deadline_expired) << seconds;
    ASSERT_EQ(response.entries.size(), want.entries.size()) << seconds;
    for (size_t i = 0; i < want.entries.size(); ++i) {
      EXPECT_EQ(response.entries[i].id, want.entries[i].id);
      EXPECT_EQ(std::bit_cast<uint64_t>(response.entries[i].similarity),
                std::bit_cast<uint64_t>(want.entries[i].similarity));
    }
  }

  // In process, where no decoder stands guard, inf and NaN are no
  // deadline either.
  for (const double seconds : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    service::ServeRequest direct;
    direct.kind = service::RequestKind::kTopK;
    direct.community = request.community;
    direct.topk.k = 5;
    direct.deadline_seconds = seconds;
    const service::ServeResponse response =
        server.SubmitAndWait(std::move(direct));
    EXPECT_EQ(response.status, service::ServeStatus::kOk) << seconds;
    EXPECT_EQ(response.topk.entries.size(), want.entries.size()) << seconds;
  }

  // Over the wire they are malformed frames: each drops its connection.
  uint64_t dropped = 0;
  for (const double seconds : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    request.deadline_seconds = seconds;
    std::vector<uint8_t> bytes;
    EncodeRequestFrame(1, request, &bytes);
    const int fd = RawConnect(net_server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, bytes));
    uint8_t chunk[256];
    while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
    }
    ::close(fd);
    ++dropped;
    for (int spin = 0; spin < 100; ++spin) {
      if (net_server.GetStats().decode_errors >= dropped) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(net_server.GetStats().decode_errors, dropped) << seconds;
  }

  // The server keeps serving.
  request.deadline_seconds = 0.0;
  WireResponse after;
  ASSERT_TRUE(client->Call(request, &after));
  EXPECT_EQ(after.status, service::ServeStatus::kOk);
  EXPECT_EQ(after.entries.size(), want.entries.size());
}

TEST(NetLoopback, HostileTopKQueriesMatchTheExhaustivePath) {
  const service::ServeWorkload workload(
      LoopbackWorkload(csj::testing::TestSeed(0x4ED)));
  const Dim d = workload.communities()[0]->d();

  // Counters near UINT32_MAX at the catalog's dimensionality: no bitmap
  // over [0, max + eps] fits the reach filter's memory guard.
  constexpr Count kMax = std::numeric_limits<Count>::max();
  std::vector<Count> heavy_flat(size_t{50} * d);
  for (size_t i = 0; i < heavy_flat.size(); ++i) {
    heavy_flat[i] = kMax - static_cast<Count>(i % 5);
  }
  const auto heavy =
      std::make_shared<const Community>(d, std::move(heavy_flat), "heavy");

  // One user over a very large d, with two catalog entries of that d to
  // meet: an exact copy, and a copy missing one dimension by 2.
  const Dim wide_d = Dim{1} << 20;
  std::vector<Count> row(wide_d);
  for (Dim k = 0; k < wide_d; ++k) row[k] = k % 3 == 0 ? kMax - k % 7 : k;
  const auto wide = std::make_shared<const Community>(wide_d, row, "wide");
  std::vector<Count> near_row = row;
  near_row[wide_d / 2] += 2;

  struct Case {
    std::shared_ptr<const Community> query;
    Epsilon eps;
    bool reachable;  ///< some entry scores above 0
  };
  const Case cases[] = {{heavy, 1, false},
                        {heavy, kMax, true},
                        {wide, 1, true},
                        {wide, kMax, true}};
  // The prescreen arm sweeps a signature index: the wide and the
  // near-UINT32_MAX queries reach the sweep's kernel over TCP.
  for (const bool prescreen : {false, true}) {
    SCOPED_TRACE(prescreen ? "prescreen on" : "prescreen off");
    service::CsjServer::Options server_options;
    if (prescreen) server_options.catalog.signatures = SignatureOptions{};
    service::CsjServer server(server_options);
    workload.Populate(&server);
    server.catalog().Upsert(1001, Community(wide_d, row));
    server.catalog().Upsert(1002, Community(wide_d, near_row));

    NetServer net_server(&server, NetServer::Options{});
    std::unique_ptr<NetClient> client =
        NetClient::Connect("127.0.0.1", net_server.port());
    ASSERT_NE(client, nullptr);

    for (const Case& c : cases) {
      const std::string where = "d " + std::to_string(c.query->d()) +
                                " eps " + std::to_string(c.eps);
      const DimensionReach reach(*c.query, c.eps);
      EXPECT_LE(reach.MemoryBytes(), DimensionReach::kMemoryMultiple *
                                         c.query->flat().size() *
                                         sizeof(Count))
          << where;

      WireRequest request;
      request.kind = service::RequestKind::kTopK;
      request.k = 5;
      request.eps = c.eps;
      request.prescreen = prescreen;
      request.community = c.query;
      WireResponse response;
      ASSERT_TRUE(client->Call(request, &response)) << where;
      ASSERT_EQ(response.status, service::ServeStatus::kOk) << where;
      if (prescreen && c.reachable) {
        // The sweep passed at least one slot to the exact path.
        EXPECT_GT(response.prescreen_probed, 0u) << where;
      }

      service::TopKOptions exhaustive;
      exhaustive.k = 5;
      exhaustive.join.eps = c.eps;
      exhaustive.use_bound_cutoff = false;
      const service::TopKResult want =
          server.topk().Query(*c.query, exhaustive);
      ASSERT_EQ(response.entries.size(), want.entries.size()) << where;
      EXPECT_FALSE(want.entries.empty()) << where;
      for (size_t i = 0; i < want.entries.size(); ++i) {
        EXPECT_EQ(response.entries[i].id, want.entries[i].id) << where;
        EXPECT_EQ(response.entries[i].version, want.entries[i].version)
            << where;
        EXPECT_EQ(std::bit_cast<uint64_t>(response.entries[i].similarity),
                  std::bit_cast<uint64_t>(want.entries[i].similarity))
            << where;
      }
      EXPECT_EQ(!want.entries.empty() && want.entries[0].similarity > 0.0,
                c.reachable)
          << where;
    }
    net_server.Shutdown();
    EXPECT_EQ(net_server.GetStats().decode_errors, 0u);
  }
}

}  // namespace
}  // namespace csj::net
