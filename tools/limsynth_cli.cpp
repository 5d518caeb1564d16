// limsynth command-line front end.
//
//   limsynth brick <kind> <words> <bits> [stack]      compile + estimate
//   limsynth brick ... --lib                          also dump the .lib
//   limsynth sweep <words> <bits>                     DSE + Pareto front
//   limsynth dse <words> <bits> [--csv F] [--journal F] [--resume F]
//       [--timeout SEC] [--jobs N] ...                checkpointed DSE
//   limsynth sram <words> <bits> <banks> <brick_words> [--verilog]
//   limsynth simulate <words> <bits> <banks> <brick_words>
//       [--cycles N] [--seed S] [--period NS] [--vcd FILE] [--stim FILE]
//       [--glitch-report] [--cross-check] [--check-sta]  event-driven sim
//   limsynth seu <words> <bits> <banks> <brick_words> [--ecc]
//       [--campaign N] [--workers N] [--burst N] [--journal F] [--resume F]
//       [--report F] [--timeout SEC]          SEU/SET injection campaign
//   limsynth optimize <words> <bits> <min_fmax_MHz> [energy|area|delay]
//   limsynth spgemm <rmat_scale> <avg_degree>         both chips, one run
//   limsynth yield <words> <bits> <banks> <brick_words>  CSV yield curve
//   limsynth serve --socket PATH | --port N [--workers N] [--queue N]
//       [--deadline-ms N] [--idle-ms N] [--frame-ms N]
//            fault-tolerant characterization daemon (one FIFO request
//            queue, accept-time shedding with retry_after_ms, batch verb)
//   limsynth call --socket PATH | --port N --json '{...}' [--torn]
//       [--timeout-ms N] [--repeat N] [--max-retries N]
//                 one framed request, JSON reply; shed replies retried
//                 with capped jittered backoff honoring retry_after_ms
//
// serve and call reject any --flag outside their own set with exit 2.
//
// kinds: sram6t sram8t cam10t edram
//
// Exit codes follow the limsynth error taxonomy (see README):
//   0 ok, 1 internal, 2 invalid config/usage, 3 non-convergence,
//   4 numerical fault, 5 resource exhausted (timeouts), 6 I/O,
//   7 stale binding, 8 interrupted (SIGINT/SIGTERM, state journaled).
//
// Every subcommand honours --cache-dir DIR (or LIMSYNTH_CACHE_DIR): a
// crash-safe on-disk brick store shared across processes, so a cold run
// on a warm store skips brick compilation entirely. An unusable cache
// dir silently degrades to the in-memory cache.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <fstream>
#include <initializer_list>
#include <iostream>

#include "arch/chip.hpp"
#include "brick/cache.hpp"
#include "brick/golden.hpp"
#include "brick/store.hpp"
#include "brick/library_gen.hpp"
#include "evsim/crosscheck.hpp"
#include "liberty/writer.hpp"
#include "lim/brick_opt.hpp"
#include "lim/flow.hpp"
#include "lim/macro_models.hpp"
#include "lim/checkpoint.hpp"
#include "lim/dse.hpp"
#include "lim/report.hpp"
#include "lim/yield.hpp"
#include "evsim/stimulus.hpp"
#include "netlist/verilog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "seu/campaign.hpp"
#include "spgemm/generate.hpp"
#include "synth/synth.hpp"
#include "spgemm/reference.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

namespace {

/// Set by the SIGINT/SIGTERM handlers; the dse and seu executors poll it
/// between points/samples and stop cleanly with everything completed so
/// far already flushed to the journal — kill-and-resume loses nothing.
std::atomic<bool> g_interrupted{false};

extern "C" void on_interrupt(int /*signum*/) {
  // Lock-free store only: this runs in signal context.
  g_interrupted.store(true);
}

void install_interrupt_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Attaches the persistent brick store when --cache-dir or
/// LIMSYNTH_CACHE_DIR names a directory. Never fails: an unusable dir
/// produces a disabled store and the cache runs memory-only.
void attach_cache_dir(int argc, char** argv) {
  std::string dir;
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--cache-dir") == 0) dir = argv[i + 1];
  if (dir.empty()) {
    if (const char* env = std::getenv("LIMSYNTH_CACHE_DIR")) dir = env;
  }
  if (dir.empty()) return;
  brick::StoreOptions opt;
  opt.dir = dir;
  brick::BrickCache::global().attach_store(
      std::make_shared<brick::BrickStore>(opt));
}

/// One provenance line for scripts (CI greps these counters).
void print_store_stats() {
  const auto store = brick::BrickCache::global().store();
  if (!store) return;
  const brick::StoreStats s = store->stats();
  std::fprintf(stderr,
               "# brick store %s: hits=%llu misses=%llu saves=%llu"
               " skipped=%llu failures=%llu quarantined=%llu%s%s\n",
               store->dir().c_str(),
               static_cast<unsigned long long>(s.disk_hits),
               static_cast<unsigned long long>(s.disk_misses),
               static_cast<unsigned long long>(s.saves),
               static_cast<unsigned long long>(s.save_skipped),
               static_cast<unsigned long long>(s.save_failures),
               static_cast<unsigned long long>(s.quarantined),
               s.writes_disabled ? " [read-only]" : "",
               s.disabled ? " [disabled: memory-only]" : "");
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  limsynth brick <kind> <words> <bits> [stack] [--lib] [--golden]\n"
               "  limsynth sweep <words> <bits>\n"
               "  limsynth dse <words> <bits> [--csv FILE] [--journal FILE]\n"
               "      [--resume FILE] [--timeout SEC] [--jobs N] [--chips N]\n"
               "      [--seed S]\n"
               "      [--ecc] [--spares N] [--d0 defects_per_cm2]\n"
               "  limsynth sram <words> <bits> <banks> <brick_words>"
               " [--verilog|--report|--svg]\n"
               "  limsynth simulate <words> <bits> <banks> <brick_words>\n"
               "      [--cycles N] [--seed S] [--period NS] [--vcd FILE]\n"
               "      [--stim FILE] [--glitch-report] [--cross-check]"
               " [--check-sta]\n"
               "  limsynth seu <words> <bits> <banks> <brick_words> [--ecc]\n"
               "      [--spares N] [--campaign N] [--cycles N] [--seed S]\n"
               "      [--workers N] [--burst N] [--journal FILE]"
               " [--resume FILE]\n"
               "      [--report FILE] [--timeout SEC] [--run-timeout SEC]\n"
               "      [--no-batch]\n"
               "  limsynth optimize <words> <bits> <min_fmax_MHz> [energy|area|delay]\n"
               "  limsynth spgemm <rmat_scale> <avg_degree>\n"
               "  limsynth yield <words> <bits> <banks> <brick_words>\n"
               "      [--chips N] [--seed S] [--d0 defects_per_cm2]\n"
               "      [--spares N] [--ecc] [--verify-cycles N] [--no-batch]\n"
               "  limsynth serve --socket PATH | --port N [--workers N]\n"
               "      [--queue N] [--deadline-ms N] [--idle-ms N]"
               " [--frame-ms N]\n"
               "  limsynth call --socket PATH | --port N --json '{...}'\n"
               "      [--torn] [--timeout-ms N] [--repeat N]"
               " [--max-retries N]\n"
               "kinds: sram6t sram8t cam10t edram\n"
               "global: --cache-dir DIR (or LIMSYNTH_CACHE_DIR) persists\n"
               "  compiled bricks in a crash-safe on-disk store shared\n"
               "  across runs; an unusable dir falls back to memory-only\n");
  return 2;
}

tech::BitcellKind parse_kind(const std::string& s) {
  if (s == "sram6t") return tech::BitcellKind::kSram6T;
  if (s == "sram8t") return tech::BitcellKind::kSram8T;
  if (s == "cam10t") return tech::BitcellKind::kCamNor10T;
  if (s == "edram") return tech::BitcellKind::kEdram1T1C;
  LIMS_FAIL(ErrorCode::kInvalidConfig, "unknown bitcell kind: " << s);
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// Value of `--flag <value>`, or `fallback` when absent.
double flag_value(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  return fallback;
}

/// Rejects any `--flag` argument outside `known` (the global --cache-dir
/// is always allowed) with invalid_config, so a removed or misspelled
/// option fails loudly instead of being silently ignored.
void reject_unknown_flags(int argc, char** argv,
                          std::initializer_list<const char*> known) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 ||
        std::strcmp(argv[i], "--cache-dir") == 0)
      continue;
    bool ok = false;
    for (const char* flag : known) ok = ok || std::strcmp(argv[i], flag) == 0;
    if (!ok)
      LIMS_FAIL(ErrorCode::kInvalidConfig,
                "unknown flag " << argv[i] << " for " << argv[0]);
  }
}

/// String value of `--flag <value>`, or empty when absent.
std::string flag_string(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return "";
}

int cmd_brick(int argc, char** argv) {
  if (argc < 4) return usage();
  reject_unknown_flags(argc, argv, {"--golden", "--lib"});
  const tech::Process process = tech::default_process();
  brick::BrickSpec spec;
  spec.bitcell = parse_kind(argv[1]);
  spec.words = std::atoi(argv[2]);
  spec.bits = std::atoi(argv[3]);
  spec.stack = (argc > 4 && argv[4][0] != '-') ? std::atoi(argv[4]) : 1;

  const brick::Brick b = brick::compile_brick(spec, process);
  const brick::BrickEstimate e = brick::estimate_brick(b);
  std::printf("%s  (%.1f x %.1f um, %.0f um2, efficiency %.0f%%)\n",
              spec.name().c_str(), b.layout.outline.width() * 1e6,
              b.layout.outline.height() * 1e6, b.layout.area * 1e12,
              100.0 * b.layout.efficiency());
  Table t({"metric", "value"});
  t.add_row({"read delay", units::format_si(e.read_delay, "s")});
  t.add_row({"read energy", units::format_si(e.read_energy, "J")});
  t.add_row({"write delay", units::format_si(e.write_delay, "s")});
  t.add_row({"write energy", units::format_si(e.write_energy, "J")});
  if (e.match_delay > 0) {
    t.add_row({"match delay", units::format_si(e.match_delay, "s")});
    t.add_row({"match energy", units::format_si(e.match_energy, "J")});
  }
  if (e.retention_time > 0) {
    t.add_row({"retention", units::format_si(e.retention_time, "s")});
    t.add_row({"refresh power", units::format_si(e.refresh_power, "W")});
  }
  t.add_row({"min cycle", units::format_si(e.min_cycle, "s")});
  t.add_row({"leakage", units::format_si(e.leakage, "W")});
  t.add_row({"bank area", strformat("%.0f um2", e.bank_area * 1e12)});
  t.print(std::cout);

  if (has_flag(argc, argv, "--golden")) {
    const auto rd = brick::golden_read(b);
    std::printf("golden read: %s, %s (tool error %+.1f%% / %+.1f%%)\n",
                units::format_si(rd.delay, "s").c_str(),
                units::format_si(rd.energy, "J").c_str(),
                units::percent_error(e.read_delay, rd.delay),
                units::percent_error(e.read_energy, rd.energy));
  }
  if (has_flag(argc, argv, "--lib")) {
    liberty::Library lib("cli_bricks");
    lib.add(brick::make_brick_libcell(b));
    liberty::write_liberty(lib, std::cout);
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return usage();
  const int words = std::atoi(argv[1]);
  const int bits = std::atoi(argv[2]);
  const tech::Process process = tech::default_process();
  std::vector<lim::PartitionChoice> choices;
  for (int bw : {8, 16, 32, 64, 128})
    if (words % bw == 0 && words / bw <= 64)
      choices.push_back({words, bits, bw});
  const auto points = lim::sweep_partitions(choices, process);
  const auto front = lim::pareto_front(points);
  Table t({"brick", "stack", "delay", "energy", "area", "pareto"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const bool on =
        std::find(front.begin(), front.end(), i) != front.end();
    t.add_row({strformat("%dx%d", p.choice.brick_words, bits),
               strformat("%dx", p.choice.stack()),
               units::format_si(p.read_delay, "s"),
               units::format_si(p.read_energy, "J"),
               strformat("%.0f um2", p.area * 1e12), on ? "*" : ""});
  }
  t.print(std::cout);
  return 0;
}

// Checkpointed design-space exploration: like `sweep`, but journals every
// completed point to a JSONL file, resumes from it (--resume), honours a
// wall-clock budget (--timeout), and emits a machine-readable CSV in which
// sick points carry their error code instead of aborting the sweep.
int cmd_dse(int argc, char** argv) {
  if (argc < 3) return usage();
  install_interrupt_handlers();
  const int words = std::atoi(argv[1]);
  const int bits = std::atoi(argv[2]);
  const tech::Process process = tech::default_process();

  lim::SweepOptions sopt;
  sopt.ecc = has_flag(argc, argv, "--ecc");
  sopt.spare_rows = static_cast<int>(flag_value(argc, argv, "--spares", 0.0));
  sopt.yield_chips = static_cast<int>(flag_value(argc, argv, "--chips", 0.0));
  sopt.yield_seed =
      static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 1.0));
  const double d0_cm2 = flag_value(argc, argv, "--d0", -1.0);
  if (d0_cm2 >= 0.0) sopt.defect_density_per_m2 = d0_cm2 * 1e4;

  lim::CheckpointOptions copt;
  copt.journal_path = flag_string(argc, argv, "--journal");
  const std::string resume_path = flag_string(argc, argv, "--resume");
  if (!resume_path.empty()) {
    copt.resume = true;
    if (copt.journal_path.empty()) copt.journal_path = resume_path;
  }
  copt.timeout_seconds = flag_value(argc, argv, "--timeout", 0.0);
  copt.jobs = static_cast<int>(flag_value(argc, argv, "--jobs", 1.0));
  copt.cancel = &g_interrupted;

  std::vector<lim::PartitionChoice> choices;
  for (int bw : {8, 16, 32, 64, 128})
    if (words % bw == 0 && words / bw <= 64)
      choices.push_back({words, bits, bw});
  LIMS_CHECK_MSG(!choices.empty(),
                 "no viable brick partitions for " << words << " words");

  const lim::CheckpointedSweep sweep =
      lim::sweep_partitions_checkpointed(choices, process, sopt, copt);

  const std::string csv_path = flag_string(argc, argv, "--csv");
  if (csv_path.empty()) {
    lim::write_dse_csv(sweep.points, std::cout);
  } else {
    std::ofstream csv(csv_path);
    if (!csv) throw Error(ErrorCode::kIo, "cannot write CSV: " + csv_path);
    lim::write_dse_csv(sweep.points, csv);
  }

  int failed = 0;
  for (const auto& p : sweep.points)
    if (!p.ok) ++failed;
  std::fprintf(stderr,
               "# dse %dx%d: %zu points (%d computed, %d resumed, %d failed;"
               " %d stale + %d corrupt journal entries%s)\n",
               words, bits, sweep.points.size(), sweep.computed, sweep.resumed,
               failed, sweep.stale, sweep.malformed,
               sweep.torn_tail ? ", torn tail treated as unwritten" : "");
  print_store_stats();
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "# interrupted with %zu/%zu points done; journal is"
                 " intact, rerun with --resume %s to finish\n",
                 sweep.points.size(), choices.size(),
                 copt.journal_path.empty() ? "<journal>"
                                           : copt.journal_path.c_str());
    return exit_code_for(ErrorCode::kInterrupted);
  }
  if (sweep.timed_out) {
    std::fprintf(stderr,
                 "# timed out after %.3g s with %zu/%zu points done; rerun"
                 " with --resume %s to finish\n",
                 copt.timeout_seconds, sweep.points.size(), choices.size(),
                 copt.journal_path.empty() ? "<journal>"
                                           : copt.journal_path.c_str());
    return exit_code_for(ErrorCode::kResourceExhausted);
  }
  return 0;
}

int cmd_sram(int argc, char** argv) {
  if (argc < 5) return usage();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::SramConfig cfg{std::atoi(argv[1]), std::atoi(argv[2]),
                      std::atoi(argv[3]), std::atoi(argv[4])};
  lim::SramDesign d = lim::build_sram(cfg, process, cells);
  if (has_flag(argc, argv, "--verilog")) {
    netlist::write_verilog(d.nl, std::cout);
    return 0;
  }
  lim::FlowOptions opt;
  opt.activity_cycles = 150;
  const lim::FlowReport rep = lim::run_sram_flow(d, cells, process, opt);
  if (has_flag(argc, argv, "--report")) {
    lim::write_qor_report(d.nl, rep, std::cout);
    lim::write_timing_report(rep, std::cout);
    lim::write_power_report(rep, std::cout);
    return 0;
  }
  if (has_flag(argc, argv, "--svg")) {
    std::cout << lim::floorplan_svg(d.nl, d.lib, rep.floorplan);
    return 0;
  }
  std::printf("%s: fmax %s, area %.0f um2, %s @fmax (%.2f pJ/cycle)\n",
              cfg.name().c_str(), units::format_si(rep.fmax, "Hz").c_str(),
              rep.area * 1e12,
              units::format_si(rep.power.total(), "W").c_str(),
              rep.power.energy_per_cycle * 1e12);
  std::printf("critical endpoint: %s\n", rep.timing.critical_endpoint.c_str());
  return 0;
}

// Event-driven timing simulation of a built SRAM: stimulus replay with
// VCD waveforms and glitch-aware power, plus the two agreement harnesses
// (settle-engine cross-check, dynamic validation of STA's min_period).
int cmd_simulate(int argc, char** argv) {
  if (argc < 5) return usage();
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::SramConfig cfg{std::atoi(argv[1]), std::atoi(argv[2]),
                      std::atoi(argv[3]), std::atoi(argv[4])};
  lim::SramDesign d = lim::build_sram(cfg, process, cells);

  // Synthesis + placement + STA; no settle-based power pass — activity
  // comes from the event engine below.
  lim::FlowOptions fopt;
  const lim::FlowReport rep =
      lim::run_flow(d.nl, d.lib, cells, process, {}, {}, fopt);

  evsim::AnnotateOptions aopt;
  aopt.floorplan = &rep.floorplan;
  aopt.sta = &rep.timing;
  const evsim::TimingAnnotation ann =
      evsim::annotate_delays(d.nl, d.lib, cells, aopt);

  const auto cycles =
      static_cast<int>(flag_value(argc, argv, "--cycles", 200.0));
  const auto seed =
      static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 1.0));
  auto mask = [](std::size_t bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  };
  evsim::StimulusTrace trace;
  const std::string stim_path = flag_string(argc, argv, "--stim");
  if (!stim_path.empty()) {
    // Replay a user trace instead of the generated random workload. The
    // parser validates every line against the built netlist.
    trace = evsim::load_stimulus(stim_path, d.nl);
  } else {
    Rng rng(seed);
    for (int c = 0; c < cycles; ++c) {
      trace.set_bus(c, d.raddr, rng.next_u64() & mask(d.raddr.size()));
      trace.set_bus(c, d.waddr, rng.next_u64() & mask(d.waddr.size()));
      trace.set_bus(c, d.wdata, rng.next_u64() & mask(d.wdata.size()));
      trace.set(c, d.wen, rng.chance(0.5));
    }
  }
  auto attach_settle = [&](netlist::Simulator& sim) {
    for (netlist::InstId bank : d.banks)
      sim.attach(bank, std::make_shared<lim::SramBankModel>(
                           cfg.rows_per_bank(), cfg.code_bits()));
  };
  auto attach_event = [&](evsim::EventSimulator& sim) {
    for (netlist::InstId bank : d.banks)
      sim.attach(bank, std::make_shared<lim::SramBankModel>(
                           cfg.rows_per_bank(), cfg.code_bits()));
  };

  if (has_flag(argc, argv, "--cross-check")) {
    const evsim::CrossCheckResult res = evsim::cross_check(
        d.nl, cells, ann, trace, attach_settle, attach_event);
    std::printf("cross-check %s: %llu cycles, %llu mismatched net samples\n",
                res.ok() ? "PASS" : "FAIL",
                static_cast<unsigned long long>(res.cycles),
                static_cast<unsigned long long>(res.mismatched_nets));
    if (!res.ok())
      std::printf("first mismatch: %s\n", res.first_mismatch.c_str());
    return res.ok() ? 0 : 1;
  }

  if (has_flag(argc, argv, "--check-sta")) {
    const double mp = rep.timing.min_period;
    const evsim::StaValidation at_mp = evsim::validate_at_period(
        d.nl, cells, ann, mp, trace, attach_settle, attach_event);
    const evsim::StaValidation fast = evsim::validate_at_period(
        d.nl, cells, ann, 0.95 * mp, trace, attach_settle, attach_event);
    std::printf("sta check at min_period %s: %llu capture mismatches,"
                " %llu setup violations\n",
                units::format_si(mp, "s").c_str(),
                static_cast<unsigned long long>(at_mp.capture_mismatches),
                static_cast<unsigned long long>(at_mp.setup_violations));
    std::printf("sta check at 0.95x: %llu setup violations"
                " (critical endpoint %s %s)\n",
                static_cast<unsigned long long>(fast.setup_violations),
                rep.timing.critical_endpoint.c_str(),
                fast.endpoint_violated(rep.timing.critical_endpoint)
                    ? "flagged"
                    : "not flagged");
    for (std::size_t i = 0; i < fast.endpoints.size() && i < 5; ++i)
      std::printf("  %s: %llu late captures\n",
                  fast.endpoints[i].endpoint.c_str(),
                  static_cast<unsigned long long>(fast.endpoints[i].count));
    const bool ok = at_mp.clean() && fast.setup_violations > 0;
    std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  evsim::EvsimOptions eopt;
  const double period_ns = flag_value(argc, argv, "--period", 0.0);
  if (period_ns > 0.0) eopt.period = period_ns * 1e-9;
  evsim::EventSimulator ev(d.nl, cells, ann, eopt);
  attach_event(ev);

  std::ofstream vcd_file;
  const std::string vcd_path = flag_string(argc, argv, "--vcd");
  if (!vcd_path.empty()) {
    vcd_file.open(vcd_path);
    if (!vcd_file)
      throw Error(ErrorCode::kIo, "cannot write VCD: " + vcd_path);
    ev.stream_vcd(vcd_file);
  }
  bool interrupted = false;
  for (const auto& cycle_changes : trace.cycles) {
    // Cooperative stop: close the VCD cleanly at a cycle boundary
    // instead of dying mid-write and leaving a torn waveform.
    if (g_interrupted.load()) {
      interrupted = true;
      break;
    }
    for (const auto& ch : cycle_changes) ev.set_input(ch.net, ch.value);
    ev.cycle();
  }
  ev.finish_vcd();
  if (interrupted) {
    std::fprintf(stderr,
                 "# interrupted after %llu of %zu cycles; VCD closed"
                 " cleanly\n",
                 static_cast<unsigned long long>(ev.cycles()),
                 trace.cycles.size());
    return exit_code_for(ErrorCode::kInterrupted);
  }

  std::printf("%s: %llu cycles, %llu events, sim time %s\n",
              cfg.name().c_str(),
              static_cast<unsigned long long>(ev.cycles()),
              static_cast<unsigned long long>(ev.events_processed()),
              units::format_si(static_cast<double>(ev.now_fs()) * 1e-15, "s")
                  .c_str());
  std::printf("glitches: %llu filtered (inertial), %llu propagated\n",
              static_cast<unsigned long long>(ev.glitch_stats().filtered),
              static_cast<unsigned long long>(ev.glitch_stats().propagated));
  if (period_ns > 0.0)
    std::printf("setup violations at %.3f ns: %llu\n", period_ns,
                static_cast<unsigned long long>(ev.setup_violations()));

  if (has_flag(argc, argv, "--glitch-report")) {
    std::vector<netlist::NetId> worst;
    for (std::size_t n = 0; n < d.nl.nets().size(); ++n)
      if (ev.glitch_toggles(static_cast<netlist::NetId>(n)) > 0)
        worst.push_back(static_cast<netlist::NetId>(n));
    std::sort(worst.begin(), worst.end(),
              [&](netlist::NetId a, netlist::NetId b) {
                const auto ga = ev.glitch_toggles(a), gb = ev.glitch_toggles(b);
                if (ga != gb) return ga > gb;
                return a < b;
              });
    Table t({"net", "glitch toggles", "total toggles"});
    for (std::size_t i = 0; i < worst.size() && i < 10; ++i)
      t.add_row({d.nl.net_name(worst[i]),
                 std::to_string(ev.glitch_toggles(worst[i])),
                 std::to_string(ev.toggles(worst[i]))});
    t.print(std::cout);
  }

  power::PowerOptions popt;
  popt.vdd = process.vdd;
  popt.frequency = rep.fmax;
  popt.floorplan = &rep.floorplan;
  popt.sta = &rep.timing;
  const power::PowerReport pw =
      power::analyze_power(d.nl, d.lib, ev.activity(), popt);
  Table t({"category", "power"});
  t.add_row({"combinational", units::format_si(pw.combinational, "W")});
  t.add_row({"sequential", units::format_si(pw.sequential, "W")});
  t.add_row({"clock tree", units::format_si(pw.clock_tree, "W")});
  t.add_row({"memory macros", units::format_si(pw.macro, "W")});
  t.add_row({"glitch", units::format_si(pw.glitch, "W")});
  t.add_row({"leakage", units::format_si(pw.leakage, "W")});
  t.add_separator();
  t.add_row({"total", units::format_si(pw.total(), "W")});
  t.print(std::cout);
  return 0;
}

// Runtime soft-error resilience: a stratified SEU/SET injection campaign
// on the event-driven engine with live SECDED verification, reported as
// the outcome taxonomy with Wilson intervals plus AVF-derated FIT/MTBF.
int cmd_seu(int argc, char** argv) {
  if (argc < 5) return usage();
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::SramConfig cfg{std::atoi(argv[1]), std::atoi(argv[2]),
                      std::atoi(argv[3]), std::atoi(argv[4])};
  cfg.ecc = has_flag(argc, argv, "--ecc");
  cfg.spare_rows =
      static_cast<int>(flag_value(argc, argv, "--spares", 0.0));
  lim::SramDesign d = lim::build_sram(cfg, process, cells);
  synth::synthesize(d.nl, d.lib, cells);
  const evsim::TimingAnnotation ann =
      evsim::annotate_delays(d.nl, d.lib, cells);

  const auto cycles =
      static_cast<int>(flag_value(argc, argv, "--cycles", 200.0));
  const auto seed =
      static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 1.0));
  auto mask = [](std::size_t bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  };
  evsim::StimulusTrace trace;
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    trace.set_bus(c, d.raddr, rng.next_u64() & mask(d.raddr.size()));
    trace.set_bus(c, d.waddr, rng.next_u64() & mask(d.waddr.size()));
    trace.set_bus(c, d.wdata, rng.next_u64() & mask(d.wdata.size()));
    trace.set(c, d.wen, rng.chance(0.5));
  }

  seu::SeuRig rig;
  rig.design = &d;
  rig.cells = &cells;
  rig.ann = &ann;
  rig.trace = &trace;
  rig.run_timeout_seconds = flag_value(argc, argv, "--run-timeout", 60.0);

  seu::CampaignOptions copt;
  copt.samples =
      static_cast<int>(flag_value(argc, argv, "--campaign", 1000.0));
  copt.seed = seed;
  copt.workers = static_cast<int>(flag_value(argc, argv, "--workers", 1.0));
  copt.burst = static_cast<int>(flag_value(argc, argv, "--burst", 1.0));
  copt.timeout_seconds = flag_value(argc, argv, "--timeout", 0.0);
  copt.batch = !has_flag(argc, argv, "--no-batch");
  copt.cancel = &g_interrupted;
  copt.journal_path = flag_string(argc, argv, "--journal");
  const std::string resume_path = flag_string(argc, argv, "--resume");
  if (!resume_path.empty()) {
    copt.resume = true;
    if (copt.journal_path.empty()) copt.journal_path = resume_path;
  }

  const seu::CampaignResult res = seu::run_campaign(rig, process, copt);
  // Provenance goes to stderr so the report itself stays byte-identical
  // between an uninterrupted run and a kill-and-resume (and between the
  // batched and scalar kernels).
  std::fprintf(stderr, "# seu kernel: %s (%d of %d samples batched)\n",
               res.kernel.c_str(), res.batched, res.computed);
  std::fprintf(stderr, "# seu campaign %s: %d computed, %d resumed",
               res.key.c_str(), res.computed, res.resumed);
  if (res.malformed || res.stale)
    std::fprintf(stderr, "; journal: %d corrupt, %d stale line(s) skipped",
                 res.malformed, res.stale);
  if (res.torn_tail)
    std::fputs("; torn tail treated as unwritten", stderr);
  std::fputc('\n', stderr);
  const std::string report = seu::format_campaign_report(res, cfg);
  const std::string report_path = flag_string(argc, argv, "--report");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out)
      throw Error(ErrorCode::kIo, "cannot write report: " + report_path);
    out << report;
  }
  std::fputs(report.c_str(), stdout);
  if (res.interrupted) {
    std::fprintf(stderr,
                 "# interrupted with %d/%d samples done; journal is intact,"
                 " rerun with --resume to finish\n",
                 res.completed, res.samples);
    return exit_code_for(ErrorCode::kInterrupted);
  }
  if (!res.complete())
    return exit_code_for(ErrorCode::kResourceExhausted);
  return 0;
}

int cmd_optimize(int argc, char** argv) {
  if (argc < 4) return usage();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::BrickOptTarget target;
  target.min_fmax = std::atof(argv[3]) * 1e6;
  if (argc > 4) {
    const std::string obj = argv[4];
    target.objective = obj == "area"
                           ? lim::OptObjective::kArea
                           : (obj == "delay" ? lim::OptObjective::kDelay
                                             : lim::OptObjective::kEnergy);
  }
  const lim::BrickOptResult res = lim::optimize_brick_selection(
      std::atoi(argv[1]), std::atoi(argv[2]), target, process, cells);
  std::printf("objective %s, target fmax %s: %s\n",
              lim::objective_name(target.objective),
              units::format_si(target.min_fmax, "Hz").c_str(),
              res.feasible ? "FEASIBLE" : "NOT MET (closest shown)");
  std::printf("chosen: %s -> fmax %s, %.2f pJ/cycle, %.0f um2"
              " (%zu candidates, %d flow-validated)\n",
              res.best.name().c_str(),
              units::format_si(res.report.fmax, "Hz").c_str(),
              res.report.power.energy_per_cycle * 1e12,
              res.report.area * 1e12, res.candidates.size(), res.validated);
  return res.feasible ? 0 : 1;
}

int cmd_spgemm(int argc, char** argv) {
  if (argc < 3) return usage();
  const int scale = std::atoi(argv[1]);
  const int degree = std::atoi(argv[2]);
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const arch::ChipModel lim_chip = arch::build_lim_chip(process, cells);
  const arch::ChipModel base_chip = arch::build_baseline_chip(process, cells);
  Rng rng(1);
  const auto a = spgemm::gen_rmat(
      scale, static_cast<std::int64_t>(degree) << scale, 0.5, 0.2, 0.2, rng);
  spgemm::SparseMatrix c_lim, c_heap;
  const auto rl = arch::run_benchmark(lim_chip, true, a, {}, &c_lim);
  const auto rh = arch::run_benchmark(base_chip, false, a, {}, &c_heap);
  const bool ok = c_lim.approx_equal(c_heap, 1e-9);
  std::printf("n=%d nnz=%lld: LiM %s / %s, heap %s / %s -> %.1fx faster,"
              " %.1fx less energy [%s]\n",
              a.rows(), static_cast<long long>(a.nnz()),
              units::format_si(rl.seconds, "s").c_str(),
              units::format_si(rl.joules, "J").c_str(),
              units::format_si(rh.seconds, "s").c_str(),
              units::format_si(rh.joules, "J").c_str(),
              rh.seconds / rl.seconds, rh.joules / rl.joules,
              ok ? "products match" : "MISMATCH");
  return ok ? 0 : 1;
}

// Defect-aware yield curve as CSV: one line per frequency bin with the
// parametric (speed-only) and combined (repairable AND at-speed) yield.
int cmd_yield(int argc, char** argv) {
  if (argc < 5) return usage();
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  lim::SramConfig cfg{std::atoi(argv[1]), std::atoi(argv[2]),
                      std::atoi(argv[3]), std::atoi(argv[4])};
  cfg.ecc = has_flag(argc, argv, "--ecc");
  cfg.spare_rows =
      static_cast<int>(flag_value(argc, argv, "--spares", 0.0));

  lim::FullYieldOptions opt;
  opt.cancel = &g_interrupted;
  opt.chips = static_cast<int>(flag_value(argc, argv, "--chips", 200.0));
  opt.seed =
      static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 1.0));
  const double d0_cm2 = flag_value(argc, argv, "--d0", -1.0);
  if (d0_cm2 >= 0.0) opt.defect_density_per_m2 = d0_cm2 * 1e4;
  opt.verify_cycles =
      static_cast<int>(flag_value(argc, argv, "--verify-cycles", 0.0));
  opt.verify_batch = !has_flag(argc, argv, "--no-batch");

  const lim::FullYieldResult res = lim::analyze_yield_full(cfg, process, opt);
  if (opt.verify_cycles > 0)
    std::fprintf(stderr,
                 "# yield verify: %d chips replayed (%d batched),"
                 " %d matched golden\n",
                 res.verified, res.verify_batched, res.verified_good);
  std::printf("# config=%s chips=%d seed=%llu d0=%.3f/cm2 spares=%d ecc=%d\n",
              cfg.name().c_str(), res.chips,
              static_cast<unsigned long long>(opt.seed),
              (opt.defect_density_per_m2 >= 0.0 ? opt.defect_density_per_m2
                                                : process.defect_density_per_m2) /
                  1e4,
              cfg.spare_rows, cfg.ecc ? 1 : 0);
  std::printf("# mean_defects_per_chip=%.3f mean_spares_used=%.3f\n",
              res.mean_defects, res.mean_spares_used);
  std::printf("# functional_yield=%.4f post_repair_yield=%.4f\n",
              res.functional_yield(), res.post_repair_yield());
  std::printf("freq_hz,parametric_yield,combined_yield\n");
  for (const auto& bin : res.bins)
    std::printf("%.6e,%.4f,%.4f\n", bin.freq, bin.parametric, bin.combined);
  return 0;
}

serve::Endpoint parse_endpoint(int argc, char** argv) {
  serve::Endpoint ep;
  ep.socket_path = flag_string(argc, argv, "--socket");
  ep.port = static_cast<int>(flag_value(argc, argv, "--port", 0.0));
  LIMS_CHECK_MSG(!ep.socket_path.empty() || ep.port > 0,
                 "serve/call need --socket PATH or --port N");
  return ep;
}

// Long-running characterization daemon: bound libraries and the two-tier
// brick cache stay resident; concurrent clients get framed JSON replies.
// Runs until SIGINT/SIGTERM, then drains gracefully and exits 8.
int cmd_serve(int argc, char** argv) {
  reject_unknown_flags(argc, argv,
                       {"--socket", "--port", "--workers", "--queue",
                        "--deadline-ms", "--idle-ms", "--frame-ms"});
  install_interrupt_handlers();
  const serve::Endpoint ep = parse_endpoint(argc, argv);

  serve::ServeOptions sopt;
  sopt.workers = static_cast<int>(flag_value(argc, argv, "--workers", 4.0));
  sopt.queue_depth =
      static_cast<int>(flag_value(argc, argv, "--queue", 8.0));
  sopt.request_deadline_seconds =
      flag_value(argc, argv, "--deadline-ms", 30000.0) / 1000.0;
  sopt.idle_timeout_ms =
      static_cast<int>(flag_value(argc, argv, "--idle-ms", 30000.0));
  sopt.frame_timeout_ms =
      static_cast<int>(flag_value(argc, argv, "--frame-ms", 2000.0));
  sopt.shutdown = &g_interrupted;
  LIMS_CHECK_MSG(sopt.workers >= 1 && sopt.queue_depth >= 1,
                 "--workers and --queue must be >= 1");

  // Resident state shared by every request (the MemSPICE split: build
  // once, answer queries fast).
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  serve::HandlerContext ctx;
  ctx.process = &process;
  ctx.cells = &cells;

  std::string lerr;
  const auto listener = serve::Transport::real().listen(ep, &lerr);
  if (!listener) throw Error(ErrorCode::kIo, "cannot listen: " + lerr);
  std::fprintf(stderr, "# serve listening on %s (workers=%d queue=%d)\n",
               listener->address().c_str(), sopt.workers, sopt.queue_depth);

  serve::Server server(*listener, ctx, sopt);
  server.run();

  const serve::ServeStats s = server.stats();
  std::fprintf(stderr,
               "# serve drained: accepted=%llu shed=%llu closed=%llu"
               " drained=%llu requests=%llu ok=%llu error=%llu"
               " deadline=%llu batches=%llu batch_items=%llu"
               " protocol=%llu disconnects=%llu slow_loris=%llu\n",
               static_cast<unsigned long long>(s.accepted),
               static_cast<unsigned long long>(s.shed),
               static_cast<unsigned long long>(s.closed),
               static_cast<unsigned long long>(s.drained),
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.replies_ok),
               static_cast<unsigned long long>(s.replies_error),
               static_cast<unsigned long long>(s.deadline_exceeded),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.batch_items),
               static_cast<unsigned long long>(s.protocol_errors),
               static_cast<unsigned long long>(s.disconnects),
               static_cast<unsigned long long>(s.slow_loris));
  print_store_stats();
  // run() only returns on the drain path, so the exit is the stable
  // interrupted code — scripts treat it exactly like an interrupted dse.
  return exit_code_for(ErrorCode::kInterrupted);
}

// One-shot client: sends a framed JSON request, prints the raw JSON
// reply, and maps the reply's taxonomy code onto the usual exit codes
// (shed replies land on resource_exhausted, 5). --torn sends half a
// frame and hangs up — the CI smoke's misbehaving client.
int cmd_call(int argc, char** argv) {
  reject_unknown_flags(argc, argv,
                       {"--socket", "--port", "--json", "--torn",
                        "--timeout-ms", "--repeat", "--max-retries"});
  const serve::Endpoint ep = parse_endpoint(argc, argv);
  const std::string json = flag_string(argc, argv, "--json");
  const int timeout_ms =
      static_cast<int>(flag_value(argc, argv, "--timeout-ms", 30000.0));
  const int repeat =
      static_cast<int>(flag_value(argc, argv, "--repeat", 1.0));
  LIMS_CHECK_MSG(!json.empty() || has_flag(argc, argv, "--torn"),
                 "call needs --json '{...}' (or --torn)");

  if (has_flag(argc, argv, "--torn")) {
    // A client that dies mid-request: deliver half the frame, vanish.
    serve::Client client(serve::Transport::real(), ep, timeout_ms);
    if (!client.connected())
      throw Error(ErrorCode::kIo, "cannot connect to " + ep.str());
    const std::string wire =
        serve::encode_frame(json.empty() ? std::string(64, 'x') : json);
    auto conn = client.release();
    conn->write_some(wire.data(), wire.size() / 2, timeout_ms);
    conn->close();
    std::fprintf(stderr, "# sent %zu of %zu bytes, then disconnected\n",
                 wire.size() / 2, wire.size());
    return 0;
  }

  serve::RetryPolicy policy;
  policy.max_retries =
      static_cast<int>(flag_value(argc, argv, "--max-retries", 0.0));
  policy.jitter_seed = static_cast<std::uint64_t>(::getpid());

  int last = 0;
  for (int i = 0; i < repeat; ++i) {
    serve::Client client(serve::Transport::real(), ep, timeout_ms);
    if (!client.connected())
      throw Error(ErrorCode::kIo, "cannot connect to " + ep.str());
    // Shed replies (retry_after_ms present) are retried with capped
    // jittered backoff; the shed taxonomy exit happens only once the
    // retry budget is spent.
    const serve::RetryResult rr = client.call_retry(json, policy, timeout_ms);
    const serve::CallResult& res = rr.last;
    if (rr.attempts > 1)
      std::fprintf(stderr, "# call: %d attempts, %d ms total backoff\n",
                   rr.attempts, rr.total_backoff_ms);
    if (!res.transport_ok)
      throw Error(ErrorCode::kIo,
                  std::string("no reply (write ") +
                      serve::tx_err_name(res.write_err) + ", read " +
                      serve::frame_status_name(res.read_status) + ")");
    std::printf("%s\n", res.payload.c_str());
    if (res.reply_parsed && !res.fields.ok) {
      ErrorCode code = ErrorCode::kInternal;
      error_code_from_name(res.fields.error_code, &code);
      last = exit_code_for(code);
    }
    client.close();
  }
  return last;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    attach_cache_dir(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "brick") return cmd_brick(argc - 1, argv + 1);
    if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (cmd == "dse") return cmd_dse(argc - 1, argv + 1);
    if (cmd == "sram") return cmd_sram(argc - 1, argv + 1);
    if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (cmd == "seu") return cmd_seu(argc - 1, argv + 1);
    if (cmd == "optimize") return cmd_optimize(argc - 1, argv + 1);
    if (cmd == "spgemm") return cmd_spgemm(argc - 1, argv + 1);
    if (cmd == "yield") return cmd_yield(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    if (cmd == "call") return cmd_call(argc - 1, argv + 1);
    return usage();
  } catch (const Error& e) {
    // Structured exit codes: scripts driving sweeps can tell a bad config
    // (2) from a numerics problem (4) or an exhausted budget (5).
    std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code()),
                 e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
