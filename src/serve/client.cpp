#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace limsynth::serve {

Client::Client(Transport& transport, const Endpoint& ep, int timeout_ms)
    : transport_(&transport),
      ep_(ep),
      connect_timeout_ms_(timeout_ms),
      conn_(transport.connect(ep, timeout_ms)) {}

void Client::reconnect() {
  if (conn_) conn_->close();
  conn_ = transport_->connect(ep_, connect_timeout_ms_);
  reader_ = FrameReader(1 << 20);  // discard any stale partial frame
}

CallResult Client::call(const std::string& request_json, int timeout_ms) {
  CallResult res;
  if (!conn_) return res;
  // A failed write does not end the call: a server that sheds at accept
  // writes its reply and closes before reading our request, so the write
  // fails (reset) with the retry_after_ms frame already in our receive
  // buffer. Read it anyway; on a dead wire the read returns at once.
  res.write_err = write_frame(*conn_, request_json, timeout_ms);
  const FrameStatus st =
      reader_.poll(*conn_, timeout_ms, timeout_ms, &res.payload);
  res.read_status = st;
  if (st != FrameStatus::kFrame) return res;
  res.transport_ok = true;
  res.reply_parsed = parse_reply(res.payload, &res.fields);
  return res;
}

RetryResult Client::call_retry(const std::string& request_json,
                               const RetryPolicy& policy, int timeout_ms) {
  RetryResult out;
  // xorshift64 for the jitter: deterministic per seed, no global RNG.
  std::uint64_t rng = policy.jitter_seed ? policy.jitter_seed : 1;
  const auto next_rng = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  out.last = call(request_json, timeout_ms);
  for (int retry = 0; retry < policy.max_retries && out.last.shed(); ++retry) {
    // Schedule: half-jitter the exponential step (uniform in
    // [step/2, step]) so a thundering herd of shed clients decorrelates,
    // but never sleep less than the server's own hint. Cap wins last.
    const int exp_ms = policy.base_backoff_ms
                       << std::min(retry, 20);  // no overflow
    const int jittered =
        exp_ms / 2 + static_cast<int>(next_rng() %
                                      static_cast<std::uint64_t>(exp_ms / 2 +
                                                                 1));
    int backoff =
        std::max(jittered, static_cast<int>(out.last.fields.retry_after_ms));
    backoff = std::min(backoff, policy.max_backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    out.total_backoff_ms += backoff;
    // Every shed closes the connection server-side (accept-time and
    // drain sheds alike), so each retry reconnects and resends.
    reconnect();
    out.last = call(request_json, timeout_ms);
    out.attempts += 1;
  }
  return out;
}

void Client::close() {
  if (conn_) conn_->close();
  conn_.reset();
}

}  // namespace limsynth::serve
