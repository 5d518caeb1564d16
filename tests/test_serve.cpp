// Characterization-daemon robustness: framing against torn/short/stormy
// wires, codec against garbage and mistyped payloads, the handler's typed
// error taxonomy, and the full server against its failure model — load
// shedding at saturation, per-request deadlines, mid-request disconnects,
// slow-loris clients, injected transport faults (serve::FaultConn via
// ServeOptions::conn_filter), and the SIGTERM-style graceful drain. Every
// fault must end in a typed reply or a classified close — never a crash,
// a hang, or a leaked connection (accepted == shed + closed).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/framing.hpp"
#include "serve/handler.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "lim/flow.hpp"
#include "lim/sram_builder.hpp"
#include "util/jsonl.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::serve {
namespace {

const tech::Process& proc() {
  static const tech::Process p = tech::default_process();
  return p;
}

const tech::StdCellLib& cells() {
  static const tech::StdCellLib c(proc());
  return c;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool wait_for(const std::function<bool()>& pred, int budget_ms = 3000) {
  for (int spent = 0; spent < budget_ms; spent += 10) {
    if (pred()) return true;
    sleep_ms(10);
  }
  return pred();
}

/// In-memory Conn for deterministic framing tests: serves `input` to
/// reads, records writes. An exhausted input is kEof (peer closed) or
/// kTimeout (quiet wire), per `eof_at_end`.
class MemConn : public Conn {
 public:
  std::string input;
  bool eof_at_end = true;
  std::string written;

  TxResult read_some(char* buf, std::size_t max, int /*timeout_ms*/) override {
    if (pos_ >= input.size())
      return TxResult::fail(eof_at_end ? TxErr::kEof : TxErr::kTimeout);
    const std::size_t n = std::min(max, input.size() - pos_);
    std::memcpy(buf, input.data() + pos_, n);
    pos_ += n;
    return TxResult::good(n);
  }
  TxResult write_some(const char* buf, std::size_t n,
                      int /*timeout_ms*/) override {
    written.append(buf, n);
    return TxResult::good(n);
  }
  void close() override {}

 private:
  std::size_t pos_ = 0;
};

TxErr send_all(Conn& conn, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const TxResult r =
        conn.write_some(bytes.data() + off, bytes.size() - off, 1000);
    if (!r.ok()) return r.err;
    off += r.bytes;
  }
  return TxErr::kNone;
}

// ===================================================================
// Framing
// ===================================================================

TEST(Framing, EncodeRoundTrip) {
  for (const std::string& payload : {std::string("{\"op\":\"ping\"}"),
                                     std::string(""), std::string(1000, 'x')}) {
    MemConn conn;
    conn.input = encode_frame(payload);
    FrameReader reader(1 << 20);
    std::string got;
    EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(reader.poll(conn, 10, 1000, &got), FrameStatus::kEof);
  }
}

TEST(Framing, PipelinedFramesExtractedInOrder) {
  MemConn conn;
  conn.input = encode_frame("first") + encode_frame("second");
  FrameReader reader(1 << 20);
  std::string got;
  ASSERT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "first");
  ASSERT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "second");
}

TEST(Framing, TruncatedLengthPrefixIsTorn) {
  MemConn conn;
  conn.input = encode_frame("hello").substr(0, 2);  // half a prefix, then EOF
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kTorn);
}

TEST(Framing, TruncatedPayloadIsTorn) {
  MemConn conn;
  const std::string wire = encode_frame("hello world");
  conn.input = wire.substr(0, wire.size() - 4);
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kTorn);
}

TEST(Framing, OversizedDeclaredLengthRejectedBeforePayload) {
  // The declared length alone must trigger rejection — no allocation of
  // (and no waiting for) a phantom gigabyte payload.
  MemConn conn;
  conn.input = encode_frame(std::string(1000, 'x')).substr(0, 4);
  FrameReader reader(64);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kOversized);
}

TEST(Framing, OneByteReadsStillAssemble) {
  auto base = std::make_unique<MemConn>();
  base->input = encode_frame("{\"op\":\"ping\",\"id\":\"x\"}");
  FaultConn conn(std::move(base));
  conn.max_chunk = 1;
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 5000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "{\"op\":\"ping\",\"id\":\"x\"}");
  EXPECT_GE(conn.reads, 20u);
}

TEST(Framing, EagainStormAbsorbedWithinDeadline) {
  auto base = std::make_unique<MemConn>();
  base->input = encode_frame("payload");
  FaultConn conn(std::move(base));
  conn.timeout_reads = 5;  // five spurious EAGAINs before any data
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 5000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "payload");
}

TEST(Framing, QuietWireIsNeedMoreNotError) {
  MemConn conn;
  conn.eof_at_end = false;  // nothing arrives, wire stays up
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 30, 1000, &got), FrameStatus::kNeedMore);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(Framing, StalledMidFrameIsSlowLoris) {
  MemConn conn;
  conn.input = encode_frame("a long payload").substr(0, 6);  // then silence
  conn.eof_at_end = false;
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 50, &got), FrameStatus::kSlowLoris);
  EXPECT_TRUE(reader.mid_frame());
}

TEST(Framing, WriteFrameLoopsOverShortWrites) {
  auto base = std::make_unique<MemConn>();
  MemConn* mem = base.get();
  FaultConn conn(std::move(base));
  conn.max_chunk = 3;
  EXPECT_EQ(write_frame(conn, "short-write payload", 1000), TxErr::kNone);
  EXPECT_EQ(mem->written, encode_frame("short-write payload"));
  EXPECT_GE(conn.writes, 7u);
}

TEST(Framing, TornWriteReportsReset) {
  FaultConn conn(std::make_unique<MemConn>());
  conn.torn_write_bytes = 2;  // two bytes leave, then the peer vanishes
  EXPECT_EQ(write_frame(conn, "doomed payload", 1000), TxErr::kReset);
}

// ===================================================================
// Codec
// ===================================================================

TEST(Codec, MinimalPingParsesWithDefaults) {
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request("{\"op\":\"ping\"}", &req, &err)) << err;
  EXPECT_EQ(req.op, Op::kPing);
  EXPECT_EQ(req.id, "");
  EXPECT_EQ(req.kind, "sram8t");
  EXPECT_EQ(req.banks, 1);
  EXPECT_EQ(req.seed, 1u);
}

TEST(Codec, GarbageBytesRejected) {
  Request req;
  std::string err;
  const std::string cases[] = {
      "",
      "not json at all",
      "[1,2,3]",
      "\xff\xfe\x00\x01 binary junk",
      std::string("\0\0\0\0", 4),
      "{\"op\":\"ping\"",  // truncated object
  };
  for (const std::string& payload : cases) {
    err.clear();
    EXPECT_FALSE(parse_request(payload, &req, &err))
        << "accepted garbage: " << payload;
    EXPECT_FALSE(err.empty());
  }
}

TEST(Codec, NonUtf8OpRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("{\"op\":\"\xff\xfe\"}", &req, &err));
}

TEST(Codec, MissingAndUnknownOpRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("{\"id\":\"x\"}", &req, &err));
  EXPECT_FALSE(parse_request("{\"op\":\"frobnicate\"}", &req, &err));
}

TEST(Codec, MistypedFieldsRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request(
      "{\"op\":\"characterize\",\"words\":\"sixty-four\"}", &req, &err));
  EXPECT_FALSE(
      parse_request("{\"op\":\"ping\",\"id\":42}", &req, &err));
  EXPECT_FALSE(parse_request(
      "{\"op\":\"analyze\",\"ecc\":\"maybe\"}", &req, &err));
}

TEST(Codec, ErrorReplyRoundTrips) {
  const std::string payload =
      make_error_reply("req-7", ErrorCode::kNonConvergence, "did not settle");
  ReplyFields f;
  ASSERT_TRUE(parse_reply(payload, &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.id, "req-7");
  EXPECT_EQ(f.error_code, "non_convergence");
  EXPECT_EQ(f.error, "did not settle");
  EXPECT_LT(f.retry_after_ms, 0.0);
}

TEST(Codec, ShedReplyCarriesRetryAfter) {
  ReplyFields f;
  ASSERT_TRUE(parse_reply(make_shed_reply(250), &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error_code, "resource_exhausted");
  EXPECT_EQ(f.retry_after_ms, 250.0);
}

TEST(Codec, ReplyNumberReadsMetricFields) {
  JsonWriter w;
  w.add("id", std::string("x")).add("ok", true).add("read_delay_s", 4.2e-10);
  double v = 0.0;
  ASSERT_TRUE(reply_number(w.str(), "read_delay_s", &v));
  EXPECT_DOUBLE_EQ(v, 4.2e-10);
  EXPECT_FALSE(reply_number(w.str(), "absent_field", &v));
}

// ===================================================================
// Handler (direct, no sockets)
// ===================================================================

HandlerContext make_ctx(double deadline_s = 30.0) {
  HandlerContext ctx;
  ctx.process = &proc();
  ctx.cells = &cells();
  ctx.max_deadline_seconds = deadline_s;
  return ctx;
}

Request parse_ok(const std::string& payload) {
  Request req;
  std::string err;
  EXPECT_TRUE(parse_request(payload, &req, &err)) << err;
  return req;
}

TEST(Handler, PingEchoesId) {
  const Handled h = handle_request(parse_ok("{\"op\":\"ping\",\"id\":\"p1\"}"),
                                   make_ctx());
  EXPECT_TRUE(h.ok);
  ReplyFields f;
  ASSERT_TRUE(parse_reply(h.payload, &f));
  EXPECT_TRUE(f.ok);
  EXPECT_EQ(f.id, "p1");
}

TEST(Handler, CharacterizeReturnsPositiveMetrics) {
  const Handled h = handle_request(
      parse_ok("{\"op\":\"characterize\",\"words\":64,\"bits\":16}"),
      make_ctx());
  ASSERT_TRUE(h.ok) << h.payload;
  double v = 0.0;
  for (const char* field : {"read_delay_s", "write_energy_j", "min_cycle_s",
                            "leakage_w", "bank_area_m2"}) {
    ASSERT_TRUE(reply_number(h.payload, field, &v)) << field;
    EXPECT_GT(v, 0.0) << field;
  }
}

TEST(Handler, AnalyzeRepliesWithTheLibraryFlowReport) {
  // The analyze verb is the SRAM flow behind a socket: its numbers are
  // the library's, bit for bit (replies print doubles round-trip exact).
  const Handled h = handle_request(
      parse_ok("{\"op\":\"analyze\",\"words\":32,\"bits\":8,"
               "\"brick_words\":16,\"cycles\":20,\"seed\":3}"),
      make_ctx());
  ASSERT_TRUE(h.ok) << h.payload;
  lim::SramConfig cfg;
  cfg.words = 32;
  cfg.bits = 8;
  cfg.brick_words = 16;
  lim::SramDesign d = lim::build_sram(cfg, proc(), cells());
  lim::FlowOptions fopt;
  fopt.activity_cycles = 20;
  fopt.stimulus_seed = 3;
  const lim::FlowReport rep = lim::run_sram_flow(d, cells(), proc(), fopt);
  double v = 0.0;
  ASSERT_TRUE(reply_number(h.payload, "fmax_hz", &v));
  EXPECT_EQ(v, rep.fmax);
  ASSERT_TRUE(reply_number(h.payload, "area_m2", &v));
  EXPECT_EQ(v, rep.area);
  ASSERT_TRUE(reply_number(h.payload, "power_w", &v));
  EXPECT_EQ(v, rep.power.total());
  EXPECT_GT(v, 0.0);
}

TEST(Handler, UnknownKindIsInvalidConfig) {
  const Handled h = handle_request(
      parse_ok(
          "{\"op\":\"characterize\",\"kind\":\"mystery\",\"words\":64,"
          "\"bits\":16}"),
      make_ctx());
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kInvalidConfig);
}

TEST(Handler, SleepDeadlineIsResourceExhausted) {
  const auto t0 = std::chrono::steady_clock::now();
  const Handled h = handle_request(
      parse_ok("{\"op\":\"sleep\",\"sleep_ms\":30000,\"deadline_ms\":80}"),
      make_ctx());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kResourceExhausted);
  // The deadline preempted the sleep, not the other way round.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Handler, CancelFlagInterruptsPromptly) {
  std::atomic<bool> cancel{true};
  HandlerContext ctx = make_ctx();
  ctx.cancel = &cancel;
  const Handled h = handle_request(
      parse_ok("{\"op\":\"sleep\",\"sleep_ms\":30000}"), ctx);
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kInterrupted);
}

// ===================================================================
// Server integration over Unix sockets
// ===================================================================

/// One server on a unique Unix socket, run() on a background thread,
/// drained and joined by stop() (or the destructor).
class TestServer {
 public:
  /// Listens on a Unix socket, or with `tcp` on an ephemeral loopback
  /// port.
  explicit TestServer(ServeOptions opt = {}, bool tcp = false) {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    if (!tcp)
      ep_.socket_path = testing::TempDir() + "lims_" +
                        std::to_string(::getpid()) + "_" + info->name() +
                        ".sock";
    opt.shutdown = &shutdown_;
    std::string err;
    listener_ = Transport::real().listen(ep_, &err);
    EXPECT_NE(listener_, nullptr) << err;
    if (tcp && listener_) {
      // "tcp:127.0.0.1:PORT" names the kernel-chosen port.
      const std::string addr = listener_->address();
      ep_.port = std::atoi(addr.substr(addr.rfind(':') + 1).c_str());
      EXPECT_GT(ep_.port, 0) << addr;
    }
    HandlerContext ctx = make_ctx(opt.request_deadline_seconds);
    server_ = std::make_unique<Server>(*listener_, ctx, opt);
    thread_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { stop(); }

  const Endpoint& endpoint() const { return ep_; }
  ServeStats stats() const { return server_->stats(); }

  /// Drains, joins, and asserts the no-leak invariant.
  ServeStats stop() {
    if (thread_.joinable()) {
      shutdown_.store(true);
      thread_.join();
    }
    const ServeStats s = server_->stats();
    EXPECT_EQ(s.accepted, s.shed + s.closed)
        << "leaked connections: accepted=" << s.accepted
        << " shed=" << s.shed << " closed=" << s.closed;
    return s;
  }

  Client connect() { return Client(Transport::real(), ep_, 2000); }

 private:
  Endpoint ep_;
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(Server, PingAndCharacterizeOverOneConnection) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  CallResult r = client.call("{\"op\":\"ping\",\"id\":\"c1\"}");
  ASSERT_TRUE(r.transport_ok);
  ASSERT_TRUE(r.reply_parsed);
  EXPECT_TRUE(r.fields.ok);
  EXPECT_EQ(r.fields.id, "c1");

  r = client.call(
      "{\"op\":\"characterize\",\"id\":\"c2\",\"words\":64,\"bits\":16,"
      "\"stack\":2}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  double v = 0.0;
  ASSERT_TRUE(reply_number(r.payload, "min_cycle_s", &v));
  EXPECT_GT(v, 0.0);

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.replies_ok, 2u);
  EXPECT_EQ(s.replies_error, 0u);
}

TEST(Server, MalformedPayloadGetsTypedReplyAndConnectionSurvives) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  CallResult r = client.call("\xff\xfe not even json");
  ASSERT_TRUE(r.transport_ok);
  ASSERT_TRUE(r.reply_parsed);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "invalid_config");

  // The connection must still be usable: framing never lost sync.
  r = client.call("{\"op\":\"ping\",\"id\":\"after\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  EXPECT_EQ(r.fields.id, "after");

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.protocol_errors, 1u);
}

TEST(Server, TypedErrorReplyThenPingIsServed) {
  TestServer server;
  Client client = server.connect();
  CallResult r = client.call(
      "{\"op\":\"sleep\",\"sleep_ms\":30000,\"deadline_ms\":80}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "resource_exhausted");

  // Still alive afterwards.
  r = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  server.stop();
}

TEST(Server, OversizedFrameRejectedThenClosed) {
  TestServer server;
  ServeOptions opt;  // server default max_frame_bytes = 1 MiB
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  // A prefix declaring 256 MiB — reject on sight, do not wait for it.
  std::string prefix(4, '\0');
  prefix[0] = 0x10;
  ASSERT_EQ(send_all(*client.conn(), prefix), TxErr::kNone);

  FrameReader reader(1 << 20);
  std::string payload;
  ASSERT_EQ(reader.poll(*client.conn(), 2000, 2000, &payload),
            FrameStatus::kFrame);
  ReplyFields f;
  ASSERT_TRUE(parse_reply(payload, &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error_code, "invalid_config");
  EXPECT_NE(f.error.find("frame exceeds"), std::string::npos);

  // Framing may be unsynchronized after an oversized frame: the server
  // hangs up rather than guessing where the next frame starts.
  const FrameStatus after =
      reader.poll(*client.conn(), 2000, 2000, &payload);
  EXPECT_TRUE(after == FrameStatus::kEof || after == FrameStatus::kReset);

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_EQ(s.requests, 0u);
}

TEST(Server, MidRequestDisconnectCountedAndSurvived) {
  TestServer server;
  {
    Client client = server.connect();
    ASSERT_TRUE(client.connected());
    const std::string wire = encode_frame("{\"op\":\"ping\"}");
    ASSERT_EQ(send_all(*client.conn(), wire.substr(0, wire.size() / 2)),
              TxErr::kNone);
    client.close();  // vanish mid-frame
  }
  ASSERT_TRUE(wait_for([&] { return server.stats().disconnects >= 1; }));

  // The daemon shrugs it off and keeps serving.
  Client client = server.connect();
  const CallResult r = client.call("{\"op\":\"ping\",\"id\":\"ok\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.disconnects, 1u);
  EXPECT_EQ(s.replies_ok, 1u);
}

TEST(Server, SlowLorisClientIsTimedOutWithTypedReply) {
  ServeOptions opt;
  opt.frame_timeout_ms = 100;  // tight assembly budget for the test
  TestServer server(opt);
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  // Two bytes of prefix, then silence: a frame that will never finish.
  ASSERT_EQ(send_all(*client.conn(), std::string(2, '\0')), TxErr::kNone);
  ASSERT_TRUE(wait_for([&] { return server.stats().slow_loris >= 1; }));

  // Best-effort courtesy reply before the hangup.
  FrameReader reader(1 << 20);
  std::string payload;
  if (reader.poll(*client.conn(), 1000, 1000, &payload) ==
      FrameStatus::kFrame) {
    ReplyFields f;
    ASSERT_TRUE(parse_reply(payload, &f));
    EXPECT_EQ(f.error_code, "resource_exhausted");
  }
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.slow_loris, 1u);
}

TEST(Server, DeadlineExceededIsTypedNotHung) {
  ServeOptions opt;
  opt.request_deadline_seconds = 30.0;
  TestServer server(opt);
  Client client = server.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult r = client.call(
      "{\"op\":\"sleep\",\"id\":\"d\",\"sleep_ms\":60000,"
      "\"deadline_ms\":100}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "resource_exhausted");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.deadline_exceeded, 1u);
}

TEST(Server, SaturationShedsWithRetryAfterAndNothingHangs) {
  // Capacity is workers + queue_depth = 3 concurrent connections; six
  // simultaneous clients (2x capacity) each hold a worker with a sleep
  // op. The overflow must get immediate retry_after_ms refusals — not
  // queue growth, not hangs — and the books must balance afterwards.
  ServeOptions opt;
  opt.workers = 2;
  opt.queue_depth = 1;
  TestServer server(opt);

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = server.connect();
      if (!client.connected()) {
        ++other;
        return;
      }
      const CallResult r = client.call(
          "{\"op\":\"sleep\",\"id\":\"c" + std::to_string(i) +
          "\",\"sleep_ms\":400}");
      if (!r.transport_ok || !r.reply_parsed)
        ++other;
      else if (r.fields.ok)
        ++ok;
      else if (r.fields.retry_after_ms >= 0.0)
        ++shed;
      else
        ++other;
      client.close();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok + shed, kClients) << "unclassified outcomes: " << other;
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1) << "2x overload produced no shedding";
  const ServeStats s = server.stop();
  EXPECT_EQ(s.shed, static_cast<std::uint64_t>(shed.load()));
}

TEST(Server, InjectedShortReadsAndEagainStillServe) {
  // Every accepted connection goes through a FaultConn forcing 1-byte
  // reads and a leading EAGAIN storm — the production read path must
  // reassemble frames regardless.
  ServeOptions opt;
  opt.conn_filter = [](std::unique_ptr<Conn> base) -> std::unique_ptr<Conn> {
    auto fc = std::make_unique<FaultConn>(std::move(base));
    fc->max_chunk = 1;
    fc->timeout_reads = 3;
    return fc;
  };
  TestServer server(opt);
  Client client = server.connect();
  const CallResult r = client.call(
      "{\"op\":\"characterize\",\"id\":\"f\",\"words\":32,\"bits\":8}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok) << r.payload;
  client.close();
  server.stop();
}

TEST(Server, TornReplyWriteIsCountedDisconnect) {
  // First accepted connection gets a wire that tears after 5 reply
  // bytes; the server must classify it as a disconnect and keep serving
  // later clients (whose wires are honest).
  std::atomic<int> accepted{0};
  ServeOptions opt;
  opt.conn_filter =
      [&accepted](std::unique_ptr<Conn> base) -> std::unique_ptr<Conn> {
    if (accepted.fetch_add(1) > 0) return base;
    auto fc = std::make_unique<FaultConn>(std::move(base));
    fc->torn_write_bytes = 5;
    return fc;
  };
  TestServer server(opt);
  {
    Client client = server.connect();
    const CallResult r = client.call("{\"op\":\"ping\"}", 2000);
    EXPECT_FALSE(r.transport_ok && r.fields.ok);
    client.close();
  }
  ASSERT_TRUE(wait_for([&] { return server.stats().disconnects >= 1; }));

  Client client = server.connect();
  const CallResult r = client.call("{\"op\":\"ping\",\"id\":\"ok\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.disconnects, 1u);
}

TEST(Server, StatsOpReportsLiveCounters) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.call("{\"op\":\"ping\"}").fields.ok);
  const CallResult r = client.call("{\"op\":\"stats\",\"id\":\"s\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  double v = 0.0;
  ASSERT_TRUE(reply_number(r.payload, "accepted", &v));
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(reply_number(r.payload, "requests", &v));
  EXPECT_GE(v, 2.0);
  ASSERT_TRUE(reply_number(r.payload, "cache_entries", &v));
  client.close();
  server.stop();
}

TEST(Server, GracefulDrainAnswersInFlightAndQueued) {
  // One worker: client A's sleep holds it while client B waits in the
  // queue. The drain must answer A (completed or interrupted — a typed
  // reply either way) and give B an explicit shed reply, leaving no
  // connection unaccounted for.
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 4;
  TestServer server(opt);

  CallResult ra, rb;
  std::thread ta([&] {
    Client a = server.connect();
    ra = a.call("{\"op\":\"sleep\",\"id\":\"a\",\"sleep_ms\":1500}");
    a.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 1; }));
  std::thread tb([&] {
    Client b = server.connect();
    rb = b.call("{\"op\":\"sleep\",\"id\":\"b\",\"sleep_ms\":1500}");
    b.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().accepted >= 2; }));

  const auto t0 = std::chrono::steady_clock::now();
  const ServeStats s = server.stop();  // the drain
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ta.join();
  tb.join();

  // A was in flight: it gets a real reply — ok if the sleep finished,
  // interrupted if the drain flag preempted it.
  ASSERT_TRUE(ra.transport_ok);
  ASSERT_TRUE(ra.reply_parsed);
  if (!ra.fields.ok) {
    EXPECT_EQ(ra.fields.error_code, "interrupted");
  }
  // B never reached a worker: an explicit shed reply, not an abandoned
  // socket.
  ASSERT_TRUE(rb.transport_ok);
  ASSERT_TRUE(rb.reply_parsed);
  EXPECT_FALSE(rb.fields.ok);
  EXPECT_GE(rb.fields.retry_after_ms, 0.0);
  EXPECT_GE(s.drained, 1u);
}

// ===================================================================
// Codec: batch frames (fuzz-shaped malformed input)
// ===================================================================

TEST(Codec, BatchItemsSplitOnNewlines) {
  JsonWriter w;
  w.add("op", std::string("batch"));
  w.add("items",
        std::string("{\"op\":\"ping\",\"id\":\"a\"}\n"
                    "{\"op\":\"ping\",\"id\":\"b\"}\n"));
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(w.str(), &req, &err)) << err;
  EXPECT_EQ(req.op, Op::kBatch);
  ASSERT_EQ(req.batch.size(), 2u);  // trailing newline is not an item
  EXPECT_EQ(req.batch[0], "{\"op\":\"ping\",\"id\":\"a\"}");
}

TEST(Codec, MalformedBatchFramesRejected) {
  Request req;
  std::string err;
  // No items field at all.
  EXPECT_FALSE(parse_request("{\"op\":\"batch\"}", &req, &err));
  // items is not a string.
  EXPECT_FALSE(parse_request("{\"op\":\"batch\",\"items\":42}", &req, &err));
  // items present but carries nothing (only blank lines).
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"items\":\"\"}", &req, &err));
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"items\":\"\\n\\n\"}", &req, &err));
}

TEST(Codec, OversizedBatchRejectedAtParse) {
  std::string items;
  for (int i = 0; i <= kMaxBatchItems; ++i)
    items += "{\"op\":\"ping\"}\n";
  JsonWriter w;
  w.add("op", std::string("batch")).add("items", items);
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request(w.str(), &req, &err));
  EXPECT_NE(err.find("exceeds"), std::string::npos);
}

TEST(Codec, DuplicateIdBatchItemsParseIndividually) {
  // Duplicate ids are the caller's business: the codec keeps both items
  // and each reply line echoes its own id.
  JsonWriter w;
  w.add("op", std::string("batch"));
  w.add("items",
        std::string("{\"op\":\"ping\",\"id\":\"dup\"}\n"
                    "{\"op\":\"ping\",\"id\":\"dup\"}"));
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(w.str(), &req, &err)) << err;
  EXPECT_EQ(req.batch.size(), 2u);
}

// ===================================================================
// Server: accept-time shed replies, retries, batches, drain accounting
// ===================================================================

std::string batch_request(const std::string& id,
                          const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined += '\n';
    joined += item;
  }
  JsonWriter w;
  w.add("op", std::string("batch")).add("id", id).add("items", joined);
  return w.str();
}

std::string batch_results(const std::string& reply_payload) {
  std::string results;
  const std::size_t pos = jsonl::find_field(reply_payload, "results");
  EXPECT_NE(pos, std::string::npos) << reply_payload;
  if (pos != std::string::npos) {
    EXPECT_TRUE(jsonl::read_string(reply_payload, pos, &results));
  }
  return results;
}

/// Starts a client thread whose `sleep_ms` request holds one worker (and
/// its session); returns once the request is dispatched.
std::thread hold_worker(TestServer& server, int sleep_ms) {
  std::thread holder([&server, sleep_ms] {
    Client c = server.connect();
    c.call("{\"op\":\"sleep\",\"id\":\"hold\",\"sleep_ms\":" +
           std::to_string(sleep_ms) + "}");
    c.close();
  });
  EXPECT_TRUE(wait_for([&] { return server.stats().requests >= 1; }));
  return holder;
}

/// One session, held by a sleep; a second client connects, is shed at
/// accept (reply written, connection closed before anything is read),
/// and only then sends its request. The call must still return the shed
/// reply — it is the only overload signal.
void expect_accept_shed_reply_arrives(bool tcp) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 0;
  TestServer server(opt, tcp);
  std::thread holder = hold_worker(server, 1000);

  Client late = server.connect();
  EXPECT_TRUE(late.connected());
  EXPECT_TRUE(wait_for([&] { return server.stats().shed >= 1; }));
  const CallResult r = late.call("{\"op\":\"ping\",\"id\":\"late\"}", 2000);
  late.close();
  holder.join();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.shed, 1u);
  ASSERT_TRUE(r.transport_ok)
      << "write " << tx_err_name(r.write_err) << ", read "
      << frame_status_name(r.read_status);
  EXPECT_TRUE(r.shed()) << r.payload;
  EXPECT_EQ(r.fields.error_code, "resource_exhausted");
  EXPECT_EQ(r.fields.retry_after_ms, 250.0);
}

TEST(Server, AcceptShedReplySurvivesRequestWriteReset) {
  // Over a Unix socket the request write fails (the peer is gone) with
  // the shed frame already in the receive buffer.
  expect_accept_shed_reply_arrives(false);
}

TEST(Server, AcceptShedReplyArrivesOverTcpLoopback) {
  // Over TCP the write itself is accepted (the peer's kernel answers it
  // with a reset); the buffered shed frame must still be read.
  expect_accept_shed_reply_arrives(true);
}

TEST(Server, CallRetryHonorsRetryAfterAndSucceeds) {
  // One session, held by a 600 ms sleep: every other connection is shed
  // at accept. call_retry must read the shed reply, back off at least
  // retry_after_ms, and reconnect-and-resend until the session frees.
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 0;
  opt.retry_after_ms = 100;
  TestServer server(opt);
  std::thread holder = hold_worker(server, 600);

  // With no retry budget the shed comes straight back.
  Client first = server.connect();
  EXPECT_TRUE(wait_for([&] { return server.stats().shed >= 1; }));
  const RetryResult rr0 =
      first.call_retry("{\"op\":\"ping\",\"id\":\"r0\"}", RetryPolicy{});
  first.close();

  Client client = server.connect();
  EXPECT_TRUE(wait_for([&] { return server.stats().shed >= 2; }));
  RetryPolicy policy;
  policy.max_retries = 8;
  policy.jitter_seed = 42;
  const RetryResult rr =
      client.call_retry("{\"op\":\"ping\",\"id\":\"r1\"}", policy);
  client.close();
  holder.join();
  server.stop();

  EXPECT_TRUE(rr0.last.shed()) << rr0.last.payload;
  EXPECT_EQ(rr0.attempts, 1);
  EXPECT_TRUE(rr.last.fields.ok) << rr.last.payload;
  EXPECT_GE(rr.attempts, 2);  // first attempt was shed
  EXPECT_GE(rr.total_backoff_ms, 100);
}

TEST(Server, BatchResultsByteIdenticalToIndividualCalls) {
  TestServer server;
  Client client = server.connect();
  const std::vector<std::string> items = {
      "{\"op\":\"ping\",\"id\":\"i1\"}",
      "{\"op\":\"characterize\",\"id\":\"i2\",\"words\":32,\"bits\":8}",
      "{\"op\":\"characterize\",\"id\":\"i3\",\"kind\":\"mystery\","
      "\"words\":8,\"bits\":4}",
      "this is not json",
      "{\"op\":\"dse_point\",\"id\":\"i5\",\"words\":64,\"bits\":8,"
      "\"brick_words\":16}",
  };
  std::vector<std::string> individual;
  for (const std::string& item : items) {
    const CallResult r = client.call(item);
    ASSERT_TRUE(r.transport_ok) << item;
    individual.push_back(r.payload);
  }
  const CallResult br = client.call(batch_request("b1", items));
  ASSERT_TRUE(br.transport_ok);
  ASSERT_TRUE(br.fields.ok) << br.payload;  // envelope ok; verdicts inside
  double v = 0.0;
  ASSERT_TRUE(reply_number(br.payload, "count", &v));
  EXPECT_EQ(v, 5.0);
  ASSERT_TRUE(reply_number(br.payload, "failed", &v));
  EXPECT_EQ(v, 2.0);  // bad kind + malformed line
  std::string joined;
  for (const std::string& payload : individual) {
    if (!joined.empty()) joined += '\n';
    joined += payload;
  }
  EXPECT_EQ(batch_results(br.payload), joined);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_items, 5u);
}

TEST(Server, DrainFulfillsQueuedWithTypedShedReplies) {
  // One worker held by an in-flight sleep; two more connections each
  // queue a request behind it. The drain must answer both queued
  // requests with the typed drain shed (id echoed, retry hint) instead
  // of running them, and the executors must still exit.
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 4;
  TestServer server(opt);
  std::thread holder = hold_worker(server, 1500);
  CallResult rb, rc;
  std::thread tb([&] {
    Client b = server.connect();
    rb = b.call("{\"op\":\"sleep\",\"id\":\"b\",\"sleep_ms\":1}");
    b.close();
  });
  std::thread tc([&] {
    Client c = server.connect();
    rc = c.call("{\"op\":\"sleep\",\"id\":\"c\",\"sleep_ms\":1}");
    c.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 3; }));

  const auto t0 = std::chrono::steady_clock::now();
  const ServeStats s = server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  holder.join();
  tb.join();
  tc.join();
  for (const auto& [r, id] :
       {std::pair<const CallResult*, std::string>{&rb, "b"}, {&rc, "c"}}) {
    ASSERT_TRUE(r->transport_ok) << id;
    ASSERT_TRUE(r->reply_parsed) << r->payload;
    EXPECT_FALSE(r->fields.ok);
    EXPECT_EQ(r->fields.id, id);
    EXPECT_EQ(r->fields.error_code, "resource_exhausted");
    EXPECT_EQ(r->fields.error, "server draining; retry later");
    EXPECT_EQ(r->fields.retry_after_ms, 250.0);
  }
  EXPECT_EQ(s.drained, 2u);
}

TEST(Server, DrainFlushesConservedAccounting) {
  // Mixed traffic, then a drain with one request in flight and two
  // queued: afterwards every connection and every request is accounted
  // for exactly once.
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 6;
  TestServer server(opt);
  {
    Client c = server.connect();
    ASSERT_TRUE(c.call("{\"op\":\"ping\"}").fields.ok);
    ASSERT_TRUE(c.call("{\"op\":\"stats\"}").fields.ok);
    EXPECT_FALSE(c.call("not json").fields.ok);
    c.close();
  }
  CallResult ra, rb, rc;
  std::thread ta([&] {
    Client a = server.connect();
    ra = a.call("{\"op\":\"sleep\",\"id\":\"a\",\"sleep_ms\":1500}");
    a.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 4; }));
  std::thread tb([&] {
    Client b = server.connect();
    rb = b.call("{\"op\":\"sleep\",\"id\":\"b\",\"sleep_ms\":1500}");
    b.close();
  });
  std::thread tc([&] {
    Client c = server.connect();
    rc = c.call("{\"op\":\"sleep\",\"id\":\"c\",\"sleep_ms\":1500}");
    c.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 6; }));

  const ServeStats s = server.stop();  // also asserts accepted == shed + closed
  ta.join();
  tb.join();
  tc.join();
  EXPECT_EQ(s.accepted, 4u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.closed, 4u);
  EXPECT_EQ(s.requests, 6u);
  EXPECT_EQ(s.requests, s.replies_ok + s.replies_error);
  EXPECT_EQ(s.drained, 2u);
  EXPECT_EQ(s.protocol_errors, 1u);
  // The in-flight request got a real reply; the queued ones typed sheds.
  ASSERT_TRUE(ra.transport_ok && ra.reply_parsed);
  if (!ra.fields.ok) {
    EXPECT_EQ(ra.fields.error_code, "interrupted");
  }
  for (const CallResult* r : {&rb, &rc}) {
    ASSERT_TRUE(r->transport_ok);
    EXPECT_FALSE(r->fields.ok);
    EXPECT_GE(r->fields.retry_after_ms, 0.0);
  }
}

}  // namespace
}  // namespace limsynth::serve
