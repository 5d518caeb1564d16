#include "serve/handler.hpp"

#include <chrono>
#include <thread>

#include "brick/cache.hpp"
#include "lim/dse.hpp"
#include "lim/flow.hpp"
#include "lim/sram_builder.hpp"
#include "util/watchdog.hpp"

namespace limsynth::serve {

namespace {

tech::BitcellKind parse_kind_or_fail(const std::string& s) {
  if (s == "sram6t") return tech::BitcellKind::kSram6T;
  if (s == "sram8t") return tech::BitcellKind::kSram8T;
  if (s == "cam10t") return tech::BitcellKind::kCamNor10T;
  if (s == "edram") return tech::BitcellKind::kEdram1T1C;
  LIMS_FAIL(ErrorCode::kInvalidConfig,
            "unknown bitcell kind \"" << s
                                      << "\" (sram6t sram8t cam10t edram)");
}

void check_cancelled(const HandlerContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed))
    LIMS_FAIL(ErrorCode::kInterrupted, "server draining; request abandoned");
}

bool cancelled(const HandlerContext& ctx) {
  return ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed);
}

double effective_deadline_seconds(const Request& req,
                                  const HandlerContext& ctx) {
  const double cap = ctx.max_deadline_seconds;
  if (req.deadline_ms <= 0.0) return cap;
  const double want = req.deadline_ms / 1000.0;
  return (cap > 0.0 && want > cap) ? cap : want;
}

std::string run_characterize(const Request& req, const HandlerContext& ctx,
                             const Watchdog& wd) {
  DIAG_CONTEXT("serve characterize " + std::to_string(req.words) + "x" +
               std::to_string(req.bits));
  brick::BrickSpec spec;
  spec.bitcell = parse_kind_or_fail(req.kind);
  spec.words = req.words;
  spec.bits = req.bits;
  spec.stack = req.stack;
  wd.check();
  const auto compiled =
      brick::BrickCache::global().get(spec, *ctx.process);
  wd.check();
  const brick::BrickEstimate& e = compiled->estimate;
  JsonWriter w;
  w.add("id", req.id).add("ok", true);
  w.add("op", std::string(op_name(req.op)));
  w.add("brick", spec.name());
  w.add("read_delay_s", e.read_delay).add("read_energy_j", e.read_energy);
  w.add("write_delay_s", e.write_delay).add("write_energy_j", e.write_energy);
  if (e.match_delay > 0.0) {
    w.add("match_delay_s", e.match_delay);
    w.add("match_energy_j", e.match_energy);
  }
  w.add("min_cycle_s", e.min_cycle).add("leakage_w", e.leakage);
  w.add("bank_area_m2", e.bank_area);
  w.add("brick_area_m2", compiled->brick.layout.area);
  return w.str();
}

std::string run_dse_point(const Request& req, const HandlerContext& ctx,
                          const Watchdog& wd) {
  DIAG_CONTEXT("serve dse_point " + std::to_string(req.words) + "x" +
               std::to_string(req.bits) + " bw" +
               std::to_string(req.brick_words));
  lim::PartitionChoice choice;
  choice.words = req.words;
  choice.bits = req.bits;
  choice.brick_words = req.brick_words;
  choice.bitcell = parse_kind_or_fail(req.kind);
  lim::SweepOptions sopt;
  sopt.ecc = req.ecc;
  sopt.spare_rows = req.spare_rows;
  sopt.yield_chips = req.yield_chips;
  sopt.yield_seed = req.seed;
  wd.check();
  // The sweep's own per-point degradation: a sick point comes back with
  // its taxonomy code captured instead of throwing.
  const lim::DsePoint p =
      lim::evaluate_partition_caught(choice, *ctx.process, sopt);
  wd.check();
  if (!p.ok) throw Error(p.error_code, p.error);
  JsonWriter w;
  w.add("id", req.id).add("ok", true);
  w.add("op", std::string(op_name(req.op)));
  w.add("point", choice.label());
  w.add("read_delay_s", p.read_delay).add("read_energy_j", p.read_energy);
  w.add("area_m2", p.area);
  w.add("post_repair_yield", p.post_repair_yield);
  return w.str();
}

std::string run_analyze(const Request& req, const HandlerContext& ctx,
                        const Watchdog& wd) {
  lim::SramConfig cfg;
  cfg.words = req.words;
  cfg.bits = req.bits;
  cfg.banks = req.banks;
  cfg.brick_words = req.brick_words;
  cfg.bitcell = parse_kind_or_fail(req.kind);
  cfg.ecc = req.ecc;
  cfg.spare_rows = req.spare_rows;
  DIAG_CONTEXT("serve analyze " + cfg.name());
  cfg.validate();
  wd.check();
  check_cancelled(ctx);
  lim::SramDesign d = lim::build_sram(cfg, *ctx.process, *ctx.cells);
  wd.check();
  check_cancelled(ctx);
  lim::FlowOptions fopt;
  fopt.activity_cycles = req.cycles;
  fopt.stimulus_seed = req.seed;
  const lim::FlowReport rep =
      lim::run_sram_flow(d, *ctx.cells, *ctx.process, fopt);
  wd.check();
  JsonWriter w;
  w.add("id", req.id).add("ok", true);
  w.add("op", std::string(op_name(req.op)));
  w.add("config", cfg.name());
  w.add("fmax_hz", rep.fmax);
  w.add("area_m2", rep.area);
  w.add("power_w", rep.power.total());
  w.add("energy_per_cycle_j", rep.power.energy_per_cycle);
  w.add("critical_endpoint", rep.timing.critical_endpoint);
  return w.str();
}

std::string run_sleep(const Request& req, const HandlerContext& ctx,
                      const Watchdog& wd) {
  DIAG_CONTEXT("serve sleep");
  const auto t0 = std::chrono::steady_clock::now();
  const auto until =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(req.sleep_ms));
  // Cooperative: the nap is sliced so deadlines and drain both preempt
  // it — this is the op the backpressure and deadline tests lean on.
  while (std::chrono::steady_clock::now() < until) {
    wd.check();
    check_cancelled(ctx);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wd.check();
  JsonWriter w;
  w.add("id", req.id).add("ok", true);
  w.add("op", std::string(op_name(req.op)));
  w.add("slept_ms", req.sleep_ms);
  return w.str();
}

/// One executed item: the reply payload plus its classification. This is
/// THE execution path — a request sent alone and the same request sent
/// inside a batch both come through here, which is what makes the two
/// replies byte-identical.
struct ItemOutcome {
  std::string payload;
  bool ok = true;
  ErrorCode code = ErrorCode::kInternal;
};

ItemOutcome run_item(const Request& req, const HandlerContext& ctx,
                     const Watchdog& wd) {
  ItemOutcome out;
  try {
    switch (req.op) {
      case Op::kPing: {
        JsonWriter w;
        w.add("id", req.id).add("ok", true);
        w.add("op", std::string(op_name(req.op)));
        out.payload = w.str();
        break;
      }
      case Op::kCharacterize:
        out.payload = run_characterize(req, ctx, wd);
        break;
      case Op::kDsePoint:
        out.payload = run_dse_point(req, ctx, wd);
        break;
      case Op::kAnalyze:
        out.payload = run_analyze(req, ctx, wd);
        break;
      case Op::kSleep:
        out.payload = run_sleep(req, ctx, wd);
        break;
      case Op::kStats:
      case Op::kBatch:
        // Not executable items: stats is answered by the server (it owns
        // the counters) and a batch cannot nest.
        LIMS_FAIL(ErrorCode::kInvalidConfig,
                  "op \"" << op_name(req.op)
                          << "\" is not allowed inside a batch");
    }
  } catch (const Error& e) {
    out.ok = false;
    out.code = e.code();
    out.payload = make_error_reply(req.id, e.code(), e.what());
  } catch (const std::exception& e) {
    out.ok = false;
    out.code = ErrorCode::kInternal;
    out.payload = make_error_reply(req.id, ErrorCode::kInternal, e.what());
  }
  return out;
}

/// Executes a batch frame: every item through run_item under the ONE
/// batch watchdog, with per-item error isolation. The envelope is always
/// ok:true; per-item verdicts live in the newline-joined `results`.
Handled run_batch(const Request& req, const HandlerContext& ctx,
                  const Watchdog& wd) {
  // Deliberately no batch-level DIAG_CONTEXT: the breadcrumb would leak
  // into per-item error text ("[while serve batch of N items > ...]")
  // and break the byte-identity contract with individually-sent
  // requests. Each item's own op pushes its frame inside run_item.
  Handled out;
  out.batch_items = static_cast<int>(req.batch.size());
  std::string results;
  for (const std::string& line : req.batch) {
    std::string reply;
    Request item;
    std::string perr;
    if (!parse_request(line, &item, &perr)) {
      // Byte-identical to the reply the same frame gets when sent alone
      // (the server's dispatch uses this exact text).
      reply = make_error_reply("", ErrorCode::kInvalidConfig,
                               "malformed request: " + perr);
      out.batch_failed += 1;
    } else if (cancelled(ctx)) {
      reply = make_error_reply(item.id, ErrorCode::kInterrupted,
                               "server draining; request abandoned");
      out.batch_failed += 1;
    } else if (wd.enabled() && wd.expired()) {
      // The batch budget burned out before this item even started: a
      // typed per-item refusal without running it.
      reply = make_error_reply(item.id, ErrorCode::kResourceExhausted,
                               "batch budget exhausted before this item");
      out.batch_failed += 1;
    } else {
      const ItemOutcome r = run_item(item, ctx, wd);
      reply = r.payload;
      if (!r.ok) out.batch_failed += 1;
    }
    if (!results.empty()) results += '\n';
    results += reply;
  }
  JsonWriter w;
  w.add("id", req.id).add("ok", true);
  w.add("op", std::string(op_name(req.op)));
  w.add("count", out.batch_items);
  w.add("failed", out.batch_failed);
  w.add("results", results);
  out.payload = w.str();
  return out;
}

}  // namespace

Handled handle_request(const Request& req, const HandlerContext& ctx) {
  Handled out;
  try {
    LIMS_CHECK_MSG(ctx.process != nullptr && ctx.cells != nullptr,
                   "handler context missing resident libraries");
    const Watchdog wd("serve request " + std::string(op_name(req.op)),
                      effective_deadline_seconds(req, ctx));
    if (req.op == Op::kStats) {
      // The server answers stats itself (it owns the counters); a
      // handler-level stats request reports what it can see.
      JsonWriter w;
      w.add("id", req.id).add("ok", true);
      w.add("op", std::string(op_name(req.op)));
      w.add("cache_entries",
            static_cast<std::uint64_t>(brick::BrickCache::global().size()));
      out.payload = w.str();
      return out;
    }
    if (req.op == Op::kBatch) return run_batch(req, ctx, wd);
    const ItemOutcome r = run_item(req, ctx, wd);
    out.payload = r.payload;
    out.ok = r.ok;
    out.code = r.code;
    return out;
  } catch (const Error& e) {
    out.ok = false;
    out.code = e.code();
    out.payload = make_error_reply(req.id, e.code(), e.what());
  } catch (const std::exception& e) {
    out.ok = false;
    out.code = ErrorCode::kInternal;
    out.payload = make_error_reply(req.id, ErrorCode::kInternal, e.what());
  }
  return out;
}

}  // namespace limsynth::serve
