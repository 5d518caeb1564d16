// The fault-tolerant characterization daemon.
//
// Architecture (one paragraph): the run() thread accepts connections and
// hands them to a bounded pool of *session* threads (capacity = workers +
// queue_depth); overflow is shed at accept with a `retry_after_ms` reply.
// Each session reads framed JSON requests off its connection, answers
// protocol errors and the `stats` verb inline, and pushes real work onto
// one FIFO request queue. A separate pool of `workers` *executor* threads
// pops that queue, runs the handler under its Watchdog, and hands the
// reply back to the waiting session — so an idle keep-alive connection
// holds a session, never a worker. Sessions are window-of-1 (one request
// in flight per connection), which bounds the queue by the session count
// without a limit of its own. Every request runs under the typed-error
// catch, so a failing request costs one reply, never the process. A
// SIGTERM drain stops accepting, sheds every queued request with a typed
// drain reply, lets in-flight requests finish or deadline out, and
// returns from run() with every connection closed (accepted == shed +
// closed).
//
// Failure-model testing: ServeOptions::conn_filter lets tests wrap every
// accepted connection in a FaultConn, driving torn frames, short reads,
// EAGAIN storms, resets, and slow-loris assembly through the exact code
// paths production traffic uses.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "serve/handler.hpp"
#include "serve/transport.hpp"

namespace limsynth::serve {

struct ServeOptions {
  int workers = 4;      ///< executor threads (requests served concurrently)
  int queue_depth = 8;  ///< extra connections held beyond the workers
  std::size_t max_frame_bytes = 1 << 20;
  /// Per-request compute budget (Watchdog) and the cap on any
  /// per-request deadline_ms override.
  double request_deadline_seconds = 30.0;
  /// Closing an idle keep-alive connection frees its session (ms waiting
  /// for the first byte of the next request).
  int idle_timeout_ms = 30000;
  /// Slow-loris bound: first byte of a frame to its completion (ms).
  int frame_timeout_ms = 2000;
  int write_timeout_ms = 2000;
  int retry_after_ms = 250;  ///< advertised in accept and drain shed replies
  int accept_poll_ms = 50;   ///< accept/drain responsiveness granularity
  /// Set by the SIGTERM handler: run() drains and returns.
  const std::atomic<bool>* shutdown = nullptr;
  /// Test seam: wraps every accepted connection (e.g. in a FaultConn).
  std::function<std::unique_ptr<Conn>(std::unique_ptr<Conn>)> conn_filter;
};

/// Monotonic counters; all connections and requests are accounted for
/// once run() returns: accepted == shed + closed (no leaked connections)
/// and requests == replies_ok + replies_error (no unanswered request).
struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;           ///< refused with retry_after_ms
  std::uint64_t closed = 0;         ///< served connections fully closed
  std::uint64_t drained = 0;        ///< requests/conns answered at drain
  std::uint64_t requests = 0;       ///< complete frames dispatched
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;  ///< typed error replies (incl. drain sheds)
  std::uint64_t deadline_exceeded = 0;  ///< watchdog kills in flight
  std::uint64_t batches = 0;            ///< batch frames executed
  std::uint64_t batch_items = 0;        ///< items carried by those frames
  std::uint64_t protocol_errors = 0;  ///< oversized/garbage frames
  std::uint64_t disconnects = 0;    ///< peer vanished (reset/torn/EOF mid-op)
  std::uint64_t slow_loris = 0;     ///< frame-assembly timeouts
  std::uint64_t idle_closed = 0;    ///< keep-alive reaped after idling
};

class Server {
 public:
  /// The listener stays owned by the caller (the CLI prints its address);
  /// the server closes it when draining.
  Server(Listener& listener, const HandlerContext& ctx,
         const ServeOptions& options);

  /// Serves until `options.shutdown` becomes true (or forever without
  /// one). Blocks; returns after the drain completes with all sessions
  /// and executors joined and every connection closed.
  void run();

  ServeStats stats() const;

 private:
  struct WorkItem;

  void session_loop();
  void executor_loop();
  void serve_connection(std::unique_ptr<Conn> conn);
  /// Parses one frame, queues real work and waits out its reply;
  /// returns the reply payload.
  std::string dispatch(const std::string& payload);
  std::string stats_reply(const std::string& id) const;
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  int session_count() const { return opt_.workers + opt_.queue_depth; }

  Listener& listener_;
  HandlerContext ctx_;
  ServeOptions opt_;

  // mu_ guards both queues and busy_sessions_; draining_ flips under it.
  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< sessions: a connection or drain
  std::condition_variable work_cv_;  ///< executors: a request or drain
  std::deque<std::unique_ptr<Conn>> conn_queue_;
  std::deque<std::shared_ptr<WorkItem>> work_queue_;
  int busy_sessions_ = 0;
  std::atomic<bool> draining_{false};

  // Stats counters are individually atomic; stats() snapshots them.
  struct Counters {
    std::atomic<std::uint64_t> accepted{0}, shed{0}, closed{0}, drained{0},
        requests{0}, replies_ok{0}, replies_error{0}, deadline_exceeded{0},
        batches{0}, batch_items{0}, protocol_errors{0}, disconnects{0},
        slow_loris{0}, idle_closed{0};
  };
  Counters n_;
};

}  // namespace limsynth::serve
