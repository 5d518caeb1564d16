#include "serve/codec.hpp"

#include "util/jsonl.hpp"

namespace limsynth::serve {

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCharacterize: return "characterize";
    case Op::kDsePoint: return "dse_point";
    case Op::kAnalyze: return "analyze";
    case Op::kStats: return "stats";
    case Op::kSleep: return "sleep";
    case Op::kBatch: return "batch";
  }
  return "ping";
}

namespace {

bool op_from_name(const std::string& name, Op* out) {
  for (Op op : {Op::kPing, Op::kCharacterize, Op::kDsePoint, Op::kAnalyze,
                Op::kStats, Op::kSleep, Op::kBatch}) {
    if (name == op_name(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

/// Reads an optional string field; absent fields keep the default.
/// Present-but-malformed fields fail the parse (torn or hostile input).
bool opt_string(const std::string& line, const std::string& name,
                std::string* out, std::string* error) {
  const std::size_t pos = jsonl::find_field(line, name);
  if (pos == std::string::npos) return true;
  if (!jsonl::read_string(line, pos, out)) {
    *error = "field \"" + name + "\" is not a valid string";
    return false;
  }
  return true;
}

bool opt_number(const std::string& line, const std::string& name, double* out,
                std::string* error) {
  const std::size_t pos = jsonl::find_field(line, name);
  if (pos == std::string::npos) return true;
  if (!jsonl::read_double(line, pos, out)) {
    *error = "field \"" + name + "\" is not a number";
    return false;
  }
  return true;
}

bool opt_int(const std::string& line, const std::string& name, int* out,
             std::string* error) {
  double v = *out;
  if (!opt_number(line, name, &v, error)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool opt_bool(const std::string& line, const std::string& name, bool* out,
              std::string* error) {
  const std::size_t pos = jsonl::find_field(line, name);
  if (pos == std::string::npos) return true;
  if (!jsonl::read_bool(line, pos, out)) {
    *error = "field \"" + name + "\" is not a bool";
    return false;
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& payload, Request* out,
                   std::string* error) {
  *out = Request{};
  // A quick shape gate before field probing: the jsonl readers themselves
  // never scan past the line, but insisting on an object brace up front
  // gives garbage and binary payloads one crisp diagnostic.
  const std::size_t first = payload.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || payload[first] != '{') {
    *error = "request is not a JSON object";
    return false;
  }
  const std::size_t last = payload.find_last_not_of(" \t\r\n");
  if (payload[last] != '}') {
    *error = "request object is not closed (torn payload?)";
    return false;
  }
  std::string op;
  const std::size_t op_pos = jsonl::find_field(payload, "op");
  if (op_pos == std::string::npos) {
    *error = "request has no \"op\" field";
    return false;
  }
  if (!jsonl::read_string(payload, op_pos, &op)) {
    *error = "\"op\" is not a string";
    return false;
  }
  if (!op_from_name(op, &out->op)) {
    *error = "unknown op \"" + op + "\"";
    return false;
  }
  if (!opt_string(payload, "id", &out->id, error)) return false;
  if (out->op == Op::kBatch) {
    const std::size_t items_pos = jsonl::find_field(payload, "items");
    if (items_pos == std::string::npos) {
      *error = "batch request has no \"items\" field";
      return false;
    }
    std::string items;
    if (!jsonl::read_string(payload, items_pos, &items)) {
      *error = "field \"items\" is not a valid string";
      return false;
    }
    // Items travel newline-separated inside the one string field the
    // flat dialect allows. Blank lines are dropped (a trailing '\n' is
    // not an item); an empty or oversized batch is malformed up front so
    // the queue never holds phantom or unbounded work.
    std::size_t start = 0;
    while (start <= items.size()) {
      const std::size_t nl = items.find('\n', start);
      const std::size_t end = (nl == std::string::npos) ? items.size() : nl;
      if (end > start) out->batch.push_back(items.substr(start, end - start));
      if (static_cast<int>(out->batch.size()) > kMaxBatchItems) {
        *error = "batch exceeds " + std::to_string(kMaxBatchItems) + " items";
        return false;
      }
      if (nl == std::string::npos) break;
      start = nl + 1;
    }
    if (out->batch.empty()) {
      *error = "batch request carries no items";
      return false;
    }
  }
  if (!opt_string(payload, "kind", &out->kind, error)) return false;
  if (!opt_int(payload, "words", &out->words, error)) return false;
  if (!opt_int(payload, "bits", &out->bits, error)) return false;
  if (!opt_int(payload, "stack", &out->stack, error)) return false;
  if (!opt_int(payload, "brick_words", &out->brick_words, error)) return false;
  if (!opt_int(payload, "banks", &out->banks, error)) return false;
  if (!opt_bool(payload, "ecc", &out->ecc, error)) return false;
  if (!opt_int(payload, "spare_rows", &out->spare_rows, error)) return false;
  if (!opt_int(payload, "yield_chips", &out->yield_chips, error)) return false;
  if (!opt_int(payload, "cycles", &out->cycles, error)) return false;
  double seed = static_cast<double>(out->seed);
  if (!opt_number(payload, "seed", &seed, error)) return false;
  out->seed = static_cast<std::uint64_t>(seed);
  if (!opt_number(payload, "deadline_ms", &out->deadline_ms, error))
    return false;
  if (!opt_number(payload, "sleep_ms", &out->sleep_ms, error)) return false;
  return true;
}

JsonWriter& JsonWriter::add_raw(const std::string& key,
                                const std::string& raw) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += jsonl::json_escape(key);
  body_ += "\":";
  body_ += raw;
  return *this;
}

JsonWriter& JsonWriter::add(const std::string& key, const std::string& value) {
  return add_raw(key, '"' + jsonl::json_escape(value) + '"');
}

JsonWriter& JsonWriter::add(const std::string& key, double value) {
  return add_raw(key, jsonl::format_g17(value));
}

JsonWriter& JsonWriter::add(const std::string& key, std::uint64_t value) {
  return add_raw(key, std::to_string(value));
}

JsonWriter& JsonWriter::add(const std::string& key, int value) {
  return add_raw(key, std::to_string(value));
}

JsonWriter& JsonWriter::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}

std::string JsonWriter::str() const { return '{' + body_ + '}'; }

std::string make_error_reply(const std::string& id, ErrorCode code,
                             const std::string& message) {
  JsonWriter w;
  w.add("id", id).add("ok", false);
  w.add("error_code", std::string(error_code_name(code)));
  w.add("error", message);
  return w.str();
}

std::string make_shed_reply(int retry_after_ms) {
  JsonWriter w;
  w.add("id", std::string()).add("ok", false);
  w.add("error_code",
        std::string(error_code_name(ErrorCode::kResourceExhausted)));
  w.add("error", std::string("server saturated; retry later"));
  w.add("retry_after_ms", retry_after_ms);
  return w.str();
}

std::string make_drain_shed_reply(const std::string& id, int retry_after_ms) {
  JsonWriter w;
  w.add("id", id).add("ok", false);
  w.add("error_code",
        std::string(error_code_name(ErrorCode::kResourceExhausted)));
  w.add("error", std::string("server draining; retry later"));
  w.add("retry_after_ms", retry_after_ms);
  return w.str();
}

bool parse_reply(const std::string& payload, ReplyFields* out) {
  *out = ReplyFields{};
  const std::size_t ok_pos = jsonl::find_field(payload, "ok");
  if (ok_pos == std::string::npos) return false;
  if (!jsonl::read_bool(payload, ok_pos, &out->ok)) return false;
  std::string unused_error;
  if (!opt_string(payload, "id", &out->id, &unused_error)) return false;
  if (!opt_string(payload, "error_code", &out->error_code, &unused_error))
    return false;
  if (!opt_string(payload, "error", &out->error, &unused_error)) return false;
  if (!opt_number(payload, "retry_after_ms", &out->retry_after_ms,
                  &unused_error))
    return false;
  return true;
}

bool reply_number(const std::string& payload, const std::string& field,
                  double* out) {
  const std::size_t pos = jsonl::find_field(payload, field);
  if (pos == std::string::npos) return false;
  return jsonl::read_double(payload, pos, out);
}

}  // namespace limsynth::serve
