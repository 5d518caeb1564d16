// Blocking client for the characterization daemon.
//
// Used by `limsynth call`, the serve bench, and the integration tests.
// One connection, sequential framed request/reply calls; every failure is
// a classified CallResult, never an exception — client code (CI scripts,
// load generators) must distinguish "server said no" (a typed reply)
// from "the wire broke" (a transport error).
#pragma once

#include <memory>
#include <string>

#include "serve/codec.hpp"
#include "serve/framing.hpp"
#include "serve/transport.hpp"

namespace limsynth::serve {

struct CallResult {
  bool transport_ok = false;  ///< a complete reply frame arrived
  TxErr write_err = TxErr::kNone;
  FrameStatus read_status = FrameStatus::kOther;
  std::string payload;   ///< raw reply JSON when transport_ok
  ReplyFields fields;    ///< decoded when transport_ok and parseable
  bool reply_parsed = false;

  /// A shed reply: the server said "not now" with a retry_after_ms hint
  /// (saturation at accept, drain) — the retryable refusals.
  bool shed() const {
    return transport_ok && reply_parsed && !fields.ok &&
           fields.retry_after_ms >= 0.0;
  }
};

/// Backoff policy for call_retry(). Sleeps honor the server's
/// retry_after_ms hint when one is present, otherwise exponential from
/// base_backoff_ms; every sleep is half-jittered (deterministic from
/// jitter_seed) and capped at max_backoff_ms.
struct RetryPolicy {
  int max_retries = 0;        ///< retries after the first attempt
  int base_backoff_ms = 100;  ///< exponential base absent a server hint
  int max_backoff_ms = 2000;  ///< cap on any single sleep
  std::uint64_t jitter_seed = 1;
};

struct RetryResult {
  CallResult last;           ///< the final attempt's outcome
  int attempts = 1;          ///< calls made (1 = no retry needed)
  int total_backoff_ms = 0;  ///< summed sleeps
};

class Client {
 public:
  /// Connects immediately; connected() reports the outcome.
  Client(Transport& transport, const Endpoint& ep, int timeout_ms = 2000);

  bool connected() const { return conn_ != nullptr; }

  /// Sends one request payload and waits up to `timeout_ms` for the
  /// reply frame. The reply is read even when the write fails, so a
  /// shed reply the server sent before closing still arrives (write_err
  /// then records the failed write).
  CallResult call(const std::string& request_json, int timeout_ms = 30000);

  /// call() plus shed handling: a reply carrying retry_after_ms is
  /// retried up to policy.max_retries times with capped, jittered
  /// backoff (the server's hint wins over the exponential schedule when
  /// larger). Every retry reconnects, because the server closes the
  /// connection after every shed. Non-shed outcomes — success, typed
  /// errors, transport faults — return immediately; retries exhausted
  /// returns the last shed reply, which the caller maps to the shed
  /// taxonomy exit.
  RetryResult call_retry(const std::string& request_json,
                         const RetryPolicy& policy, int timeout_ms = 30000);

  /// Raw access for fault-shaped clients (torn frames, partial bytes).
  Conn* conn() { return conn_.get(); }
  std::unique_ptr<Conn> release() { return std::move(conn_); }

  void close();

 private:
  void reconnect();

  Transport* transport_;
  Endpoint ep_;
  int connect_timeout_ms_;
  std::unique_ptr<Conn> conn_;
  FrameReader reader_{1 << 20};
};

}  // namespace limsynth::serve
