#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace csj::net {

/// One accepted TCP connection. The reactor thread owns the fd and the
/// decoder; the outbox is shared with worker callbacks under `mu`.
struct NetServer::Connection {
  int fd = -1;
  FrameDecoder decoder;  ///< reactor thread only

  std::mutex mu;
  bool closed = false;            ///< guarded by mu
  std::vector<uint8_t> outbox;    ///< guarded by mu
  size_t out_pos = 0;             ///< guarded by mu

  bool want_write = false;  ///< reactor thread only: EPOLLOUT armed
};

/// Reactor state that worker callbacks touch. Held by shared_ptr from the
/// NetServer AND from every in-flight completion callback, so a response
/// finishing during (or even after) Shutdown still lands on live memory.
struct NetServer::Core {
  std::atomic<bool> accepting{true};
  std::atomic<bool> running{true};
  int wake_fd = -1;

  std::mutex pending_mu;
  std::vector<std::shared_ptr<Connection>> pending;  ///< outboxes to flush

  std::atomic<uint64_t> in_flight{0};  ///< submitted, response not enqueued
  /// Undelivered response bytes across every connection outbox. Shutdown
  /// drains this to zero (bounded grace) so admitted responses are not
  /// silently dropped when the reactor exits.
  std::atomic<uint64_t> outbox_bytes{0};
  /// Completed reactor-loop iterations. Shutdown uses it as a handshake:
  /// once two more passes finish after `accepting` flips, no read that
  /// began before the flip can still be admitting requests.
  std::atomic<uint64_t> reactor_passes{0};

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_decoded{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> decode_errors{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};

  ~Core() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void Wake() const {
    const uint64_t one = 1;
    // The eventfd is a counter: concurrent wakes coalesce, and the write
    // cannot block short of 2^64-1 unconsumed wakes.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd, &one, sizeof(one));
  }
};

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CSJ_CHECK(flags >= 0);
  CSJ_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void SetNoDelay(int fd) {
  // Request/response traffic: without TCP_NODELAY every small frame can
  // eat a Nagle delay, which would swamp sub-millisecond cache-hit
  // latencies.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

bool NetServer::EnqueueFrame(Core* core, Connection* connection,
                             const std::vector<uint8_t>& frame) {
  std::lock_guard lock(connection->mu);
  if (connection->closed) return false;
  connection->outbox.insert(connection->outbox.end(), frame.begin(),
                            frame.end());
  core->outbox_bytes.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

NetServer::NetServer(service::CsjServer* server, Options options)
    : server_(server), options_(std::move(options)) {
  CSJ_CHECK(server_ != nullptr);
  core_ = std::make_shared<Core>();
  core_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  CSJ_CHECK(core_->wake_fd >= 0);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  CSJ_CHECK(listen_fd_ >= 0);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  CSJ_CHECK(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) ==
            1)
      << "bad listen host " << options_.host;
  CSJ_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0)
      << "cannot bind " << options_.host << ":" << options_.port;
  CSJ_CHECK(::listen(listen_fd_, 128) == 0);

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  CSJ_CHECK(::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CSJ_CHECK(epoll_fd_ >= 0);
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  CSJ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = core_->wake_fd;
  CSJ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, core_->wake_fd, &ev) ==
            0);

  reactor_ = std::thread([this] { ReactorLoop(); });
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Phase 1: stop taking new work (accepts and reads) but keep the
  // reactor flushing, so every admitted request still delivers its
  // response before the socket dies under it.
  core_->accepting.store(false, std::memory_order_release);
  core_->Wake();
  // Handshake: wait for two further complete reactor passes. The pass in
  // progress when `accepting` flipped may still be reading frames (and
  // bumping in_flight); the NEXT full pass provably started after the
  // flip and admitted nothing, so after it finishes the in_flight==0
  // observation below cannot be raced by buffered reads.
  const uint64_t pass =
      core_->reactor_passes.load(std::memory_order_acquire);
  while (core_->reactor_passes.load(std::memory_order_acquire) <
         pass + 2) {
    core_->Wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (core_->in_flight.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every admitted response now sits in some outbox; keep the reactor
  // flushing until the outboxes are empty. A peer that stopped reading
  // (send stuck on EAGAIN) gets a bounded grace period rather than an
  // unbounded hang — only then may its bytes be dropped.
  const auto flush_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (core_->outbox_bytes.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < flush_deadline) {
    core_->Wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 2: stop the reactor and tear the fds down.
  core_->running.store(false, std::memory_order_release);
  core_->Wake();
  if (reactor_.joinable()) reactor_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = -1;
  epoll_fd_ = -1;
}

NetServer::Stats NetServer::GetStats() const {
  Stats stats;
  stats.connections_accepted =
      core_->connections_accepted.load(std::memory_order_relaxed);
  stats.connections_closed =
      core_->connections_closed.load(std::memory_order_relaxed);
  stats.frames_decoded =
      core_->frames_decoded.load(std::memory_order_relaxed);
  stats.frames_sent = core_->frames_sent.load(std::memory_order_relaxed);
  stats.decode_errors =
      core_->decode_errors.load(std::memory_order_relaxed);
  stats.bytes_in = core_->bytes_in.load(std::memory_order_relaxed);
  stats.bytes_out = core_->bytes_out.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::ReactorLoop() {
  std::unordered_map<int, std::shared_ptr<Connection>> connections;
  // Connections torn down during the CURRENT event batch. The fd is only
  // ::close()d after the batch: closing mid-batch would let an accept
  // later in the same batch reuse the fd number, and a stale queued
  // event (say an EPOLLHUP for the old socket) would then resolve to —
  // and spuriously kill — the brand-new connection.
  std::vector<std::shared_ptr<Connection>> dead;

  const auto close_connection =
      [&](const std::shared_ptr<Connection>& connection) {
        {
          std::lock_guard lock(connection->mu);
          if (connection->closed) return;
          connection->closed = true;
          core_->outbox_bytes.fetch_sub(
              connection->outbox.size() - connection->out_pos,
              std::memory_order_relaxed);
        }
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
        dead.push_back(connection);
        core_->connections_closed.fetch_add(1, std::memory_order_relaxed);
      };

  const auto flush =
      [&](const std::shared_ptr<Connection>& connection) {
        bool drained = true;
        bool broken = false;
        {
          std::lock_guard lock(connection->mu);
          if (connection->closed) return;
          while (connection->out_pos < connection->outbox.size()) {
            const size_t left =
                connection->outbox.size() - connection->out_pos;
            const ssize_t n = ::send(
                connection->fd,
                connection->outbox.data() + connection->out_pos, left,
                MSG_NOSIGNAL);
            if (n > 0) {
              connection->out_pos += static_cast<size_t>(n);
              core_->bytes_out.fetch_add(static_cast<uint64_t>(n),
                                         std::memory_order_relaxed);
              core_->outbox_bytes.fetch_sub(static_cast<uint64_t>(n),
                                            std::memory_order_relaxed);
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              drained = false;
              break;
            }
            broken = true;  // peer gone; responses are undeliverable
            break;
          }
          if (connection->out_pos == connection->outbox.size()) {
            connection->outbox.clear();
            connection->out_pos = 0;
          }
        }
        if (broken) {
          close_connection(connection);
          return;
        }
        if (drained == connection->want_write) {
          // Arm EPOLLOUT only while bytes are stuck; disarm as soon as
          // the outbox drains so an idle connection costs no wakeups.
          connection->want_write = !drained;
          epoll_event ev;
          std::memset(&ev, 0, sizeof(ev));
          ev.events =
              connection->want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
          ev.data.fd = connection->fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &ev);
        }
      };

  const auto read_ready =
      [&](const std::shared_ptr<Connection>& connection) {
        uint8_t buffer[64 * 1024];
        while (true) {
          const ssize_t n =
              ::recv(connection->fd, buffer, sizeof(buffer), 0);
          if (n > 0) {
            core_->bytes_in.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
            connection->decoder.Feed(buffer, static_cast<size_t>(n));
            while (true) {
              DecodedFrame frame;
              const WireStatus status = connection->decoder.Next(&frame);
              if (status == WireStatus::kNeedMore) break;
              if (status != WireStatus::kOk ||
                  !HandleFrame(connection, std::move(frame))) {
                core_->decode_errors.fetch_add(1,
                                              std::memory_order_relaxed);
                close_connection(connection);
                return;
              }
              core_->frames_decoded.fetch_add(1,
                                              std::memory_order_relaxed);
            }
            continue;
          }
          if (n == 0) {  // EOF
            if (connection->decoder.Finish() != WireStatus::kOk) {
              core_->decode_errors.fetch_add(1, std::memory_order_relaxed);
            }
            close_connection(connection);
            return;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          close_connection(connection);
          return;
        }
      };

  epoll_event events[64];
  while (core_->running.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, 100);
    if (n < 0) {
      CSJ_CHECK(errno == EINTR);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == core_->wake_fd) {
        uint64_t drained = 0;
        while (::read(core_->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> pending;
        {
          std::lock_guard lock(core_->pending_mu);
          pending.swap(core_->pending);
        }
        for (const auto& connection : pending) flush(connection);
        continue;
      }
      if (fd == listen_fd_) {
        while (core_->accepting.load(std::memory_order_acquire)) {
          const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
          if (conn_fd < 0) break;  // EAGAIN or transient failure
          SetNonBlocking(conn_fd);
          SetNoDelay(conn_fd);
          auto connection = std::make_shared<Connection>();
          connection->fd = conn_fd;
          epoll_event ev;
          std::memset(&ev, 0, sizeof(ev));
          ev.events = EPOLLIN;
          ev.data.fd = conn_fd;
          CSJ_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &ev) ==
                    0);
          connections[conn_fd] = std::move(connection);
          core_->connections_accepted.fetch_add(
              1, std::memory_order_relaxed);
        }
        continue;
      }
      const auto it = connections.find(fd);
      if (it == connections.end()) continue;
      const std::shared_ptr<Connection> connection = it->second;
      {
        // Dying this batch (fd not yet closed, see `dead`): stale queued
        // events for it are ignored.
        std::lock_guard lock(connection->mu);
        if (connection->closed) continue;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(connection);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) flush(connection);
      if ((events[i].events & EPOLLIN) != 0 &&
          core_->accepting.load(std::memory_order_acquire)) {
        read_ready(connection);
      }
    }
    // End of batch: now the fd numbers can be recycled safely.
    for (const std::shared_ptr<Connection>& connection : dead) {
      ::close(connection->fd);
      connections.erase(connection->fd);
    }
    dead.clear();
    core_->reactor_passes.fetch_add(1, std::memory_order_release);
  }

  for (auto& [fd, connection] : connections) {
    {
      std::lock_guard lock(connection->mu);
      connection->closed = true;
      core_->outbox_bytes.fetch_sub(
          connection->outbox.size() - connection->out_pos,
          std::memory_order_relaxed);
    }
    ::close(fd);
    core_->connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
  connections.clear();
}

bool NetServer::HandleFrame(const std::shared_ptr<Connection>& connection,
                            DecodedFrame frame) {
  if (frame.type != FrameType::kRequest) return false;  // protocol abuse
  WireRequest& wire = frame.request;
  const bool needs_community =
      wire.kind != service::RequestKind::kRemove;
  if (needs_community && wire.community == nullptr) return false;
  // A catalog entry must have users: an upsert of an empty community is
  // as malformed as one without a community.
  if (wire.kind == service::RequestKind::kUpsert && wire.community->empty()) {
    return false;
  }

  service::ServeRequest request;
  request.kind = wire.kind;
  request.id = wire.id;
  request.community = std::move(wire.community);
  request.deadline_seconds = wire.deadline_seconds;
  request.topk = options_.topk_template;
  request.topk.k = wire.k;
  request.topk.method = wire.method;
  request.topk.join.eps = wire.eps;
  request.topk.prescreen = wire.prescreen;
  request.topk.use_bound_cutoff = wire.use_bound_cutoff;
  request.topk.prescreen_threshold = wire.prescreen_threshold;

  const uint32_t request_id = frame.request_id;
  const std::shared_ptr<Core> core = core_;
  core->in_flight.fetch_add(1, std::memory_order_acq_rel);
  const bool admitted = server_->Submit(
      std::move(request),
      [core, connection, request_id](service::ServeResponse response) {
        std::vector<uint8_t> encoded;
        EncodeResponseFrame(request_id, ToWireResponse(response),
                            &encoded);
        if (EnqueueFrame(core.get(), connection.get(), encoded)) {
          core->frames_sent.fetch_add(1, std::memory_order_relaxed);
          {
            std::lock_guard lock(core->pending_mu);
            core->pending.push_back(connection);
          }
          core->Wake();
        }
        core->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      });
  if (!admitted) {
    // Admission control verdicts do not enter the queue; the reactor
    // answers on the spot so the client sees kRejected instead of a
    // hang.
    core->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    WireResponse rejected;
    rejected.status = service::ServeStatus::kRejected;
    std::vector<uint8_t> encoded;
    EncodeResponseFrame(request_id, rejected, &encoded);
    if (EnqueueFrame(core.get(), connection.get(), encoded)) {
      core->frames_sent.fetch_add(1, std::memory_order_relaxed);
      FlushOutbox(connection);
    }
  }
  return true;
}

void NetServer::FlushOutbox(const std::shared_ptr<Connection>& connection) {
  // Reactor-thread path for immediate sends (rejections): queue through
  // the same pending list the wake handler drains, so flush logic lives
  // in exactly one place.
  {
    std::lock_guard lock(core_->pending_mu);
    core_->pending.push_back(connection);
  }
  core_->Wake();
}

}  // namespace csj::net
