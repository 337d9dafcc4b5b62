#ifndef CSJ_NET_NET_SERVER_H_
#define CSJ_NET_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/wire.h"
#include "service/server.h"
#include "service/topk.h"

namespace csj::net {

/// The networked front end: one epoll reactor thread accepting loopback
/// TCP connections, decoding request frames (wire.h) and feeding them into
/// an existing CsjServer through its callback Submit. Admission control is
/// unchanged — a full queue rejects on the spot and the reactor answers
/// kRejected itself; everything admitted is executed by the CsjServer
/// workers in EDF order and the completing worker encodes the response
/// straight into the connection's outbox (the reactor only ferries bytes).
///
/// Response frames carry the request id of the frame that caused them, and
/// MAY arrive out of submission order (deadline reordering, worker races):
/// correlation is by id, not position.
///
/// A connection whose byte stream breaks framing (bad magic, oversized
/// length prefix, malformed payload — see FrameDecoder) or carries a
/// request no catalog could execute (a top-k or upsert without a
/// community, an upsert of a community without users) is dropped: a
/// length-prefixed stream cannot be resynchronized. Responses already in
/// flight for that connection are discarded harmlessly.
///
/// Lifetime: `server` is not owned and must outlive this object.
/// Shutdown() stops reading, waits for in-flight requests to drain their
/// responses, then tears the reactor down; worker callbacks hold shared
/// ownership of everything they touch, so a response completing during
/// teardown is safe.
class NetServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is `port()` after construction.
    uint16_t port = 0;
    /// Server-policy top-k template: per-request wire fields (k, eps,
    /// method, prescreen, cutoff, threshold, deadline) are merged over
    /// it; pool/threading/cache plumbing always comes from here — a
    /// client cannot pick them.
    service::TopKOptions topk_template;
  };

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t frames_decoded = 0;
    uint64_t frames_sent = 0;
    /// Connections dropped for broken framing (including mid-frame EOF).
    uint64_t decode_errors = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };

  /// Binds, listens and starts the reactor; the server is reachable when
  /// the constructor returns. Aborts (CSJ_CHECK) when the address cannot
  /// be bound — the callers are tools and tests, not layers that could
  /// meaningfully recover.
  NetServer(service::CsjServer* server, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolves ephemeral requests).
  uint16_t port() const { return port_; }

  Stats GetStats() const;

  /// Stops accepting and reading, waits for admitted requests to flush
  /// their responses (a peer that stopped reading gets a bounded grace
  /// period), closes every connection, joins the reactor. Idempotent;
  /// the destructor calls it.
  void Shutdown();

 private:
  struct Core;
  struct Connection;

  void ReactorLoop();
  bool HandleFrame(const std::shared_ptr<Connection>& connection,
                   DecodedFrame frame);
  void FlushOutbox(const std::shared_ptr<Connection>& connection);
  /// Appends one encoded frame to the connection's outbox unless it is
  /// closed, keeping the core's undelivered-byte count in step; true when
  /// the reactor should be asked to flush.
  static bool EnqueueFrame(Core* core, Connection* connection,
                           const std::vector<uint8_t>& frame);

  service::CsjServer* server_;
  Options options_;
  std::shared_ptr<Core> core_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread reactor_;
  bool shut_down_ = false;
};

}  // namespace csj::net

#endif  // CSJ_NET_NET_SERVER_H_
