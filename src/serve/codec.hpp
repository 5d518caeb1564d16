// JSON request/reply codec for the characterization daemon.
//
// The dialect is the repo's journal dialect (util/jsonl.hpp): one flat
// JSON object per frame, string/number/bool fields, no nesting. Requests
// carry an `op` plus op-specific fields; every reply echoes the request's
// `id` and carries `"ok": true` with result fields, or `"ok": false`
// with the typed error taxonomy (`error_code` = util/error.hpp names,
// `error` = message) — the same codes the CLI maps to exit codes, so a
// remote caller can classify failures exactly like a local script.
//
// Parsing never throws and never trusts the input: garbage bytes,
// non-UTF-8 payloads, missing or mistyped fields all come back as
// `false` with a message that the server turns into a typed
// invalid_config reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace limsynth::serve {

enum class Op {
  kPing = 0,       ///< liveness check, echoes the id
  kCharacterize,   ///< compile + estimate one brick (cache-served)
  kDsePoint,       ///< evaluate one DSE partition point
  kAnalyze,        ///< full SRAM flow: synthesize + place + STA + power
  kStats,          ///< server / cache / store counters
  kSleep,          ///< hold a worker for sleep_ms (tests, load probes)
  kBatch,          ///< many items in one frame, one dispatch
};

/// Upper bound on items in one batch frame: keeps a single queued frame
/// from representing unbounded work.
constexpr int kMaxBatchItems = 256;

const char* op_name(Op op);

/// One decoded request. Fields default to the same values the CLI
/// defaults to, so a minimal request is small.
struct Request {
  std::string id;  ///< caller correlation id, echoed verbatim (may be "")
  Op op = Op::kPing;

  /// op == kBatch: the decoded item payloads, one flat JSON object per
  /// entry (wire form: the `items` field holds them newline-separated
  /// inside one JSON string — the codec splits and bounds them).
  std::vector<std::string> batch;

  // characterize / dse_point / analyze
  std::string kind = "sram8t";  ///< bitcell kind (parse_kind names)
  int words = 0;
  int bits = 0;
  int stack = 1;        ///< characterize: bricks stacked per bank
  int brick_words = 0;  ///< dse_point / analyze: rows per brick
  int banks = 1;        ///< analyze
  bool ecc = false;
  int spare_rows = 0;
  int yield_chips = 0;  ///< dse_point: defect-aware yield axis
  std::uint64_t seed = 1;
  int cycles = 50;      ///< analyze: activity-simulation cycles

  /// Per-request deadline override in ms; 0 = server default. The server
  /// clamps it to its own configured maximum.
  double deadline_ms = 0.0;

  double sleep_ms = 0.0;  ///< op == kSleep
};

/// Decodes one request payload. Returns false with a human-readable
/// reason on any malformed input (not JSON, unknown op, mistyped field).
bool parse_request(const std::string& payload, Request* out,
                   std::string* error);

/// Flat JSON object writer for replies (insertion-ordered, jsonl dialect).
class JsonWriter {
 public:
  JsonWriter& add(const std::string& key, const std::string& value);
  JsonWriter& add_raw(const std::string& key, const std::string& raw);
  JsonWriter& add(const std::string& key, double value);
  JsonWriter& add(const std::string& key, std::uint64_t value);
  JsonWriter& add(const std::string& key, int value);
  JsonWriter& add(const std::string& key, bool value);
  std::string str() const;

 private:
  std::string body_;
};

/// `{"id":…,"ok":false,"error_code":…,"error":…}` — the typed error
/// reply for a failed request.
std::string make_error_reply(const std::string& id, ErrorCode code,
                             const std::string& message);

/// Load-shed reply: `ok:false`, `error_code:"resource_exhausted"` and a
/// `retry_after_ms` hint. Sent when the accept queue is full (id is
/// unknown at shed time, so it is empty) and to queued connections at
/// drain time.
std::string make_shed_reply(int retry_after_ms);

/// Drain shed: sent to requests queued (or arriving) while the server is
/// draining. Echoes the id and advertises `retry_after_ms`.
std::string make_drain_shed_reply(const std::string& id, int retry_after_ms);

/// Decoded reply fields a client cares about (raw payload kept by the
/// caller for op-specific fields).
struct ReplyFields {
  bool ok = false;
  std::string id;
  std::string error_code;  ///< taxonomy name when !ok ("" when ok)
  std::string error;
  double retry_after_ms = -1.0;  ///< >= 0 only on shed replies
};

/// Returns false when the payload is not a well-formed reply object.
bool parse_reply(const std::string& payload, ReplyFields* out);

/// Reads a numeric reply field (for tests/bench asserting metrics).
bool reply_number(const std::string& payload, const std::string& field,
                  double* out);

}  // namespace limsynth::serve
