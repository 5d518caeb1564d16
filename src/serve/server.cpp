#include "serve/server.hpp"

#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "brick/cache.hpp"
#include "brick/store.hpp"
#include "serve/framing.hpp"

namespace limsynth::serve {

/// One queued request. Exactly one party sets the reply: the executor
/// that popped it, or the drain that swept it off the queue.
struct Server::WorkItem {
  Request req;
  std::promise<std::string> reply;
};

Server::Server(Listener& listener, const HandlerContext& ctx,
               const ServeOptions& options)
    : listener_(listener), ctx_(ctx), opt_(options) {
  // The handler's drain flag is the server's, so in-flight long ops stop
  // at their next stage boundary once the drain begins.
  ctx_.cancel = &draining_;
  if (ctx_.max_deadline_seconds <= 0.0 ||
      ctx_.max_deadline_seconds > opt_.request_deadline_seconds)
    ctx_.max_deadline_seconds = opt_.request_deadline_seconds;
}

ServeStats Server::stats() const {
  ServeStats s;
  s.accepted = n_.accepted.load();
  s.shed = n_.shed.load();
  s.closed = n_.closed.load();
  s.drained = n_.drained.load();
  s.requests = n_.requests.load();
  s.replies_ok = n_.replies_ok.load();
  s.replies_error = n_.replies_error.load();
  s.deadline_exceeded = n_.deadline_exceeded.load();
  s.batches = n_.batches.load();
  s.batch_items = n_.batch_items.load();
  s.protocol_errors = n_.protocol_errors.load();
  s.disconnects = n_.disconnects.load();
  s.slow_loris = n_.slow_loris.load();
  s.idle_closed = n_.idle_closed.load();
  return s;
}

std::string Server::stats_reply(const std::string& id) const {
  const ServeStats s = stats();
  std::uint64_t backlog = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    backlog = work_queue_.size();
  }
  JsonWriter w;
  w.add("id", id).add("ok", true);
  w.add("op", std::string("stats"));
  w.add("accepted", s.accepted).add("shed", s.shed).add("closed", s.closed);
  w.add("requests", s.requests);
  w.add("replies_ok", s.replies_ok).add("replies_error", s.replies_error);
  w.add("deadline_exceeded", s.deadline_exceeded);
  w.add("batches", s.batches).add("batch_items", s.batch_items);
  w.add("backlog", backlog);
  w.add("protocol_errors", s.protocol_errors);
  w.add("disconnects", s.disconnects).add("slow_loris", s.slow_loris);
  w.add("idle_closed", s.idle_closed);
  const brick::BrickCache& cache = brick::BrickCache::global();
  w.add("cache_entries", static_cast<std::uint64_t>(cache.size()));
  w.add("cache_hits", cache.hits()).add("cache_misses", cache.misses());
  w.add("disk_hits", cache.disk_hits());
  if (const auto store = brick::BrickCache::global().store()) {
    const brick::StoreStats ss = store->stats();
    w.add("store_saves", ss.saves).add("store_quarantined", ss.quarantined);
    w.add("store_writes_disabled", ss.writes_disabled);
  }
  return w.str();
}

std::string Server::dispatch(const std::string& payload) {
  n_.requests.fetch_add(1);
  Request req;
  std::string parse_error;
  if (!parse_request(payload, &req, &parse_error)) {
    n_.replies_error.fetch_add(1);
    n_.protocol_errors.fetch_add(1);
    return make_error_reply("", ErrorCode::kInvalidConfig,
                            "malformed request: " + parse_error);
  }
  if (req.op == Op::kStats) {
    // Answered inline: the session owns no worker.
    n_.replies_ok.fetch_add(1);
    return stats_reply(req.id);
  }
  auto item = std::make_shared<WorkItem>();
  std::future<std::string> reply = item->reply.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A frame read just before the drain swept the queue would wait
    // forever once queued: refuse it like the swept ones.
    if (draining()) {
      n_.replies_error.fetch_add(1);
      n_.drained.fetch_add(1);
      return make_drain_shed_reply(req.id, opt_.retry_after_ms);
    }
    item->req = std::move(req);
    work_queue_.push_back(item);
  }
  work_cv_.notify_one();
  // Window-of-1 per connection: the session blocks here, so there is
  // exactly one writer per conn and replies can never interleave.
  return reply.get();
}

void Server::executor_loop() {
  for (;;) {
    std::shared_ptr<WorkItem> item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return !work_queue_.empty() || draining(); });
      if (work_queue_.empty()) return;  // drained and empty
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    const Handled h = handle_request(item->req, ctx_);
    if (h.ok) {
      n_.replies_ok.fetch_add(1);
    } else {
      n_.replies_error.fetch_add(1);
      if (h.code == ErrorCode::kResourceExhausted)
        n_.deadline_exceeded.fetch_add(1);
    }
    if (item->req.op == Op::kBatch) {
      n_.batches.fetch_add(1);
      n_.batch_items.fetch_add(static_cast<std::uint64_t>(h.batch_items));
    }
    item->reply.set_value(h.payload);
  }
}

void Server::serve_connection(std::unique_ptr<Conn> conn) {
  FrameReader reader(opt_.max_frame_bytes);
  int idle_spent_ms = 0;
  for (;;) {
    if (draining() && !reader.mid_frame()) {
      // Between requests at drain time: nothing in flight here. (A
      // half-received frame is also not in-flight work — it can never
      // complete once we stop waiting — so it falls through to close
      // via the slices below only if it finishes in time.)
      break;
    }
    std::string payload;
    const int slice = opt_.accept_poll_ms;
    const FrameStatus st =
        reader.poll(*conn, slice, opt_.frame_timeout_ms, &payload);
    switch (st) {
      case FrameStatus::kFrame: {
        idle_spent_ms = 0;
        const std::string reply = dispatch(payload);
        if (write_frame(*conn, reply, opt_.write_timeout_ms) !=
            TxErr::kNone) {
          n_.disconnects.fetch_add(1);
          goto done;
        }
        break;
      }
      case FrameStatus::kNeedMore:
        if (!reader.mid_frame()) {
          idle_spent_ms += slice;
          if (idle_spent_ms >= opt_.idle_timeout_ms) {
            n_.idle_closed.fetch_add(1);
            goto done;
          }
        }
        break;
      case FrameStatus::kEof:
        goto done;  // orderly close between frames
      case FrameStatus::kTorn:
      case FrameStatus::kReset:
        n_.disconnects.fetch_add(1);
        goto done;
      case FrameStatus::kSlowLoris:
        n_.slow_loris.fetch_add(1);
        // Best effort: tell the client why before hanging up.
        write_frame(*conn,
                    make_error_reply("", ErrorCode::kResourceExhausted,
                                     "frame assembly exceeded " +
                                         std::to_string(opt_.frame_timeout_ms) +
                                         " ms"),
                    opt_.write_timeout_ms);
        goto done;
      case FrameStatus::kOversized:
        n_.protocol_errors.fetch_add(1);
        write_frame(*conn,
                    make_error_reply("", ErrorCode::kInvalidConfig,
                                     "frame exceeds " +
                                         std::to_string(opt_.max_frame_bytes) +
                                         " bytes"),
                    opt_.write_timeout_ms);
        goto done;  // framing may be unsynchronized; do not continue
      case FrameStatus::kOther:
        n_.protocol_errors.fetch_add(1);
        goto done;
    }
  }
done:
  conn->close();
  n_.closed.fetch_add(1);
}

void Server::session_loop() {
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return !conn_queue_.empty() || draining(); });
      if (conn_queue_.empty()) return;  // draining and nothing left
      conn = std::move(conn_queue_.front());
      conn_queue_.pop_front();
      busy_sessions_ += 1;
    }
    serve_connection(std::move(conn));
    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_sessions_ -= 1;
    }
  }
}

void Server::run() {
  std::vector<std::thread> executors;
  executors.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i)
    executors.emplace_back([this] { executor_loop(); });
  std::vector<std::thread> sessions;
  sessions.reserve(static_cast<std::size_t>(session_count()));
  for (int i = 0; i < session_count(); ++i)
    sessions.emplace_back([this] { session_loop(); });

  // Acceptor loop (this thread). Connection-level shedding happens here:
  // when every session slot is spoken for the client gets an immediate
  // typed refusal instead of an unbounded wait.
  while (!(opt_.shutdown != nullptr &&
           opt_.shutdown->load(std::memory_order_relaxed))) {
    std::unique_ptr<Conn> conn = listener_.accept(opt_.accept_poll_ms);
    if (!conn) continue;
    if (opt_.conn_filter) conn = opt_.conn_filter(std::move(conn));
    n_.accepted.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (busy_sessions_ + static_cast<int>(conn_queue_.size()) <
          session_count()) {
        conn_queue_.push_back(std::move(conn));
        cv_.notify_one();
        continue;
      }
    }
    // Saturated: shed with a retry hint. The write gets a short timeout
    // so a non-reading client cannot stall the acceptor.
    write_frame(*conn, make_shed_reply(opt_.retry_after_ms),
                opt_.write_timeout_ms);
    conn->close();
    n_.shed.fetch_add(1);
  }

  // ---- graceful drain -------------------------------------------------
  listener_.close();  // stop accepting
  // One critical section sweeps both queues and only then flips the
  // drain flag: queued requests get typed drain replies (their sessions
  // wake and write them) before any executor freed by the cancel could
  // pop one and answer it `interrupted`, and no session can grab a
  // leftover connection and close it replyless.
  std::deque<std::unique_ptr<Conn>> leftover;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftover.swap(conn_queue_);
    for (auto& item : work_queue_) {
      n_.replies_error.fetch_add(1);
      n_.drained.fetch_add(1);
      item->reply.set_value(
          make_drain_shed_reply(item->req.id, opt_.retry_after_ms));
    }
    work_queue_.clear();
    // Sessions stop reading at the next request boundary, in-flight
    // handlers stop at their next stage boundary, and executors exit
    // once the (now empty) queue stays empty.
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  work_cv_.notify_all();
  // Connections still waiting for a session have no request in flight:
  // answer each with a shed reply (retry elsewhere/later) and close.
  for (auto& conn : leftover) {
    write_frame(*conn, make_shed_reply(opt_.retry_after_ms),
                opt_.write_timeout_ms);
    conn->close();
    n_.drained.fetch_add(1);
    n_.closed.fetch_add(1);
  }
  for (auto& t : sessions) t.join();
  for (auto& t : executors) t.join();
}

}  // namespace limsynth::serve
