// limsynth command-line front end. Every command line is checked against
// the subcommand tables at the bottom of this file (`limsynth` alone
// prints them as the usage text) before any work starts; a bad flag,
// value or positional exits 2, invalid_config. Exit codes follow the
// error taxonomy (util/error.hpp, README).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <fstream>
#include <initializer_list>
#include <iostream>

#include "arch/chip.hpp"
#include "brick/cache.hpp"
#include "brick/golden.hpp"
#include "brick/store.hpp"
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
#include "seu/campaign.hpp"
#include "spgemm/generate.hpp"
#include "synth/synth.hpp"
#include "spgemm/reference.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

int run_repro(bool check);  // tools/repro.cpp: `limsynth repro`

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

using enum args::Type;

/// Attaches the persistent brick store when `dir` (--cache-dir) or
/// LIMSYNTH_CACHE_DIR names a directory. Never fails: an unusable dir
/// produces a disabled store and the cache runs memory-only.
void attach_cache_dir(std::string dir) {
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

/// The SRAM shape positionals of sram, simulate, seu and yield, followed
/// by the command's own flags.
std::vector<args::Arg> sram_shape_and(std::initializer_list<args::Arg> flags) {
  std::vector<args::Arg> table = {
      {"words", kInt}, {"bits", kInt}, {"banks", kInt}, {"brick_words", kInt}};
  table.insert(table.end(), flags);
  return table;
}

lim::SramConfig sram_config(const args::Args& a) {
  return {a.get_int("words"), a.get_int("bits"), a.get_int("banks"),
          a.get_int("brick_words")};
}

/// The partitions sweep and dse explore: every brick depth that divides
/// `words` into at most 64 stacked bricks; at least one.
std::vector<lim::PartitionChoice> partition_choices(int words, int bits) {
  std::vector<lim::PartitionChoice> choices;
  for (int bw : {8, 16, 32, 64, 128})
    if (words % bw == 0 && words / bw <= 64)
      choices.push_back({words, bits, bw});
  LIMS_CHECK_MSG(!choices.empty(),
                 "no viable brick partitions for " << words << " words");
  return choices;
}

/// --journal FILE and --resume FILE (which resumes from FILE and, without
/// --journal, keeps journaling to it) into a DSE sweep's or SEU campaign's
/// executor options.
void read_journal_flags(const args::Args& a, jsonl::RunOptions& opt) {
  opt.journal_path = a.get_string("--journal");
  const std::string resume_path = a.get_string("--resume");
  if (!resume_path.empty()) {
    opt.resume = true;
    if (opt.journal_path.empty()) opt.journal_path = resume_path;
  }
}

/// Exit code of a journaled run (`dse`, `seu`): 0 when it finished, else
/// the interrupted or resource-exhausted code, after a note on stderr.
int stop_exit_code(const jsonl::Provenance& prov, const jsonl::RunOptions& opt,
                   std::size_t done, std::size_t total, const char* what) {
  if (!prov.interrupted && !prov.timed_out) return 0;
  const std::string journal =
      opt.journal_path.empty() ? "<journal>" : opt.journal_path;
  if (prov.interrupted)
    std::fprintf(stderr,
                 "# interrupted with %zu/%zu %s done; journal is intact",
                 done, total, what);
  else
    std::fprintf(stderr, "# timed out after %.3g s with %zu/%zu %s done",
                 opt.timeout_seconds, done, total, what);
  std::fprintf(stderr, ", rerun with --resume %s to finish\n",
               journal.c_str());
  return exit_code_for(prov.interrupted ? ErrorCode::kInterrupted
                                        : ErrorCode::kResourceExhausted);
}

int cmd_brick(const args::Args& a) {
  const tech::Process process = tech::default_process();
  brick::BrickSpec spec;
  // The kind words are listed in BitcellKind order.
  spec.bitcell = static_cast<tech::BitcellKind>(a.get_choice("kind"));
  spec.words = a.get_int("words");
  spec.bits = a.get_int("bits");
  spec.stack = a.get_int("stack", 1);

  const auto compiled = brick::BrickCache::global().get(spec, process);
  const brick::Brick& b = compiled->brick;
  const brick::BrickEstimate& e = compiled->estimate;
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

  if (a.has("--golden")) {
    const auto rd = brick::golden_read(b);
    std::printf("golden read: %s, %s (tool error %+.1f%% / %+.1f%%)\n",
                units::format_si(rd.delay, "s").c_str(),
                units::format_si(rd.energy, "J").c_str(),
                units::percent_error(e.read_delay, rd.delay),
                units::percent_error(e.read_energy, rd.energy));
  }
  if (a.has("--lib")) {
    liberty::Library lib("cli_bricks");
    lib.add(compiled->libcell);
    liberty::write_liberty(lib, std::cout);
  }
  return 0;
}

int cmd_sweep(const args::Args& a) {
  const int bits = a.get_int("bits");
  const tech::Process process = tech::default_process();
  const std::vector<lim::DsePoint> points =
      lim::sweep_partitions_checkpointed(
          partition_choices(a.get_int("words"), bits), process).points;
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
int cmd_dse(const args::Args& a) {
  install_interrupt_handlers();
  const int words = a.get_int("words");
  const int bits = a.get_int("bits");
  const tech::Process process = tech::default_process();

  lim::SweepOptions sopt;
  sopt.ecc = a.has("--ecc");
  sopt.spare_rows = a.get_int("--spares", 0);
  sopt.yield_chips = a.get_int("--chips", 0);
  sopt.yield_seed = a.get_u64("--seed", 1);
  const double d0_cm2 = a.get_double("--d0", -1.0);
  if (d0_cm2 >= 0.0) sopt.defect_density_per_m2 = d0_cm2 * 1e4;

  lim::CheckpointOptions copt;
  read_journal_flags(a, copt);
  copt.timeout_seconds = a.get_double("--timeout", 0.0);
  copt.jobs = a.get_int("--jobs", 1);
  copt.cancel = &g_interrupted;

  const std::vector<lim::PartitionChoice> choices =
      partition_choices(words, bits);

  const lim::CheckpointedSweep sweep =
      lim::sweep_partitions_checkpointed(choices, process, sopt, copt);

  const std::string csv_path = a.get_string("--csv");
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
  const jsonl::Provenance& prov = sweep.provenance;
  std::fprintf(stderr,
               "# dse %dx%d: %zu points (%d computed, %d resumed, %d failed;"
               " %d stale + %d corrupt journal entries%s)\n",
               words, bits, sweep.points.size(), prov.computed, prov.resumed,
               failed, prov.stale, prov.malformed,
               prov.torn_tail ? ", torn tail treated as unwritten" : "");
  print_store_stats();
  return stop_exit_code(prov, copt, sweep.points.size(), choices.size(),
                        "points");
}

int cmd_sram(const args::Args& a) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const lim::SramConfig cfg = sram_config(a);
  lim::SramDesign d = lim::build_sram(cfg, process, cells);
  if (a.has("--verilog")) {
    netlist::write_verilog(d.nl, std::cout);
    return 0;
  }
  lim::FlowOptions opt;
  opt.activity_cycles = 150;
  const lim::FlowReport rep = lim::run_sram_flow(d, cells, process, opt);
  if (a.has("--report")) {
    lim::write_qor_report(d.nl, rep, std::cout);
    lim::write_timing_report(rep, std::cout);
    lim::write_power_report(rep, std::cout);
    return 0;
  }
  if (a.has("--svg")) {
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
int cmd_simulate(const args::Args& a) {
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const lim::SramConfig cfg = sram_config(a);
  lim::SramDesign d = lim::build_sram(cfg, process, cells);

  // Synthesis + placement + STA; no settle-based power pass — activity
  // comes from the event engine below.
  lim::FlowOptions fopt;
  const lim::FlowReport rep =
      lim::run_flow(d.nl, d.lib, cells, process, {}, {}, fopt);

  // One binding of the synthesized netlist serves annotation and power.
  const netlist::BoundDesign bound(d.nl, d.lib);
  evsim::AnnotateOptions aopt;
  aopt.floorplan = &rep.floorplan;
  aopt.sta = &rep.timing;
  const evsim::TimingAnnotation ann =
      evsim::annotate_delays(bound, cells, aopt);

  // A --stim trace replaces the generated random workload; the parser
  // validates every line against the built netlist.
  const std::string stim_path = a.get_string("--stim");
  const evsim::StimulusTrace trace =
      stim_path.empty() ? seu::random_trace(d, a.get_int("--cycles", 200),
                                            a.get_u64("--seed", 1))
                        : evsim::load_stimulus(stim_path, d.nl);
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

  if (a.has("--cross-check")) {
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

  if (a.has("--check-sta")) {
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
  const double period_ns = a.get_double("--period", 0.0);
  if (period_ns > 0.0) eopt.period = period_ns * 1e-9;
  evsim::EventSimulator ev(d.nl, cells, ann, eopt);
  attach_event(ev);

  std::ofstream vcd_file;
  const std::string vcd_path = a.get_string("--vcd");
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

  if (a.has("--glitch-report")) {
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
      power::analyze_power(bound, ev.activity(), popt);
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
int cmd_seu(const args::Args& a) {
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::SramConfig cfg = sram_config(a);
  cfg.ecc = a.has("--ecc");
  cfg.spare_rows = a.get_int("--spares", 0);
  lim::SramDesign d = lim::build_sram(cfg, process, cells);
  synth::synthesize(d.nl, d.lib, cells);
  // One binding serves annotation and the batch kernel.
  const netlist::BoundDesign bound(d.nl, d.lib);
  const evsim::TimingAnnotation ann = evsim::annotate_delays(bound, cells);

  const std::uint64_t seed = a.get_u64("--seed", 1);
  const evsim::StimulusTrace trace =
      seu::random_trace(d, a.get_int("--cycles", 200), seed);

  seu::SeuRig rig;
  rig.design = &d;
  rig.bound = &bound;
  rig.cells = &cells;
  rig.ann = &ann;
  rig.trace = &trace;
  rig.run_timeout_seconds = a.get_double("--run-timeout", 60.0);

  seu::CampaignOptions copt;
  copt.samples = a.get_int("--campaign", 1000);
  copt.seed = seed;
  copt.run.jobs = a.get_int("--workers", 1);
  copt.burst = a.get_int("--burst", 1);
  copt.run.timeout_seconds = a.get_double("--timeout", 0.0);
  copt.run.cancel = &g_interrupted;
  read_journal_flags(a, copt.run);

  const seu::CampaignResult res = seu::run_campaign(rig, process, copt);
  // Provenance goes to stderr so the report itself stays byte-identical
  // between an uninterrupted run and a kill-and-resume (and whichever
  // kernel classified each sample).
  const jsonl::Provenance& prov = res.provenance;
  std::fprintf(stderr, "# seu kernel: %s (%d of %d samples batched)\n",
               res.kernel.c_str(), res.batched, prov.computed);
  std::fprintf(stderr, "# seu campaign %s: %d computed, %d resumed",
               res.key.c_str(), prov.computed, prov.resumed);
  if (prov.malformed || prov.stale)
    std::fprintf(stderr, "; journal: %d corrupt, %d stale line(s) skipped",
                 prov.malformed, prov.stale);
  if (prov.torn_tail)
    std::fputs("; torn tail treated as unwritten", stderr);
  std::fputc('\n', stderr);
  const std::string report = seu::format_campaign_report(res, cfg);
  const std::string report_path = a.get_string("--report");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out)
      throw Error(ErrorCode::kIo, "cannot write report: " + report_path);
    out << report;
  }
  std::fputs(report.c_str(), stdout);
  return stop_exit_code(prov, copt.run,
                        static_cast<std::size_t>(res.completed),
                        static_cast<std::size_t>(res.samples), "samples");
}

int cmd_optimize(const args::Args& a) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  lim::BrickOptTarget target;
  target.min_fmax = a.get_double("min_fmax_MHz") * 1e6;
  // The objective words are listed in OptObjective order.
  target.objective = static_cast<lim::OptObjective>(a.get_choice("objective"));
  const lim::BrickOptResult res = lim::optimize_brick_selection(
      a.get_int("words"), a.get_int("bits"), target, process, cells);
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

int cmd_spgemm(const args::Args& cli) {
  const int scale = cli.get_int("rmat_scale");
  const int degree = cli.get_int("avg_degree");
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
int cmd_yield(const args::Args& a) {
  install_interrupt_handlers();
  const tech::Process process = tech::default_process();
  lim::SramConfig cfg = sram_config(a);
  cfg.ecc = a.has("--ecc");
  cfg.spare_rows = a.get_int("--spares", 0);

  lim::FullYieldOptions opt;
  opt.cancel = &g_interrupted;
  opt.chips = a.get_int("--chips", 200);
  opt.seed = a.get_u64("--seed", 1);
  const double d0_cm2 = a.get_double("--d0", -1.0);
  if (d0_cm2 >= 0.0) opt.defect_density_per_m2 = d0_cm2 * 1e4;
  opt.verify_cycles = a.get_int("--verify-cycles", 0);

  const lim::FullYieldResult res = lim::analyze_yield_full(cfg, process, opt);
  if (opt.verify_cycles > 0)
    std::fprintf(stderr,
                 "# yield verify: %d chips replayed, %d matched golden\n",
                 res.verified, res.verified_good);
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

int cmd_repro(const args::Args& a) { return run_repro(a.has("--check")); }

struct Subcommand {
  args::Command command;
  int (*run)(const args::Args&);
};

/// Every subcommand's positionals and flags: the only description of the
/// command line, parsed by main and printed as the usage text.
const Subcommand kSubcommands[] = {
    {{"brick",
      {{"kind", kWord, "sram6t|sram8t|cam10t|edram"}, {"words", kInt},
       {"bits", kInt}, {.name = "stack", .type = kInt, .optional = true},
       {"--lib"}, {"--golden"}}},
     cmd_brick},
    {{"sweep", {{"words", kInt}, {"bits", kInt}}}, cmd_sweep},
    {{"dse",
      {{"words", kInt}, {"bits", kInt}, {"--csv", kString, "FILE"},
       {"--journal", kString, "FILE"}, {"--resume", kString, "FILE"},
       {"--timeout", kDouble, "SEC"}, {"--jobs", kInt, "N"},
       {"--chips", kInt, "N"}, {"--seed", kU64, "S"}, {"--ecc"},
       {"--spares", kInt, "N"}, {"--d0", kDouble, "defects_per_cm2"}}},
     cmd_dse},
    {{"sram", sram_shape_and({{"--verilog"}, {"--report"}, {"--svg"}})},
     cmd_sram},
    {{"simulate",
      sram_shape_and({{"--cycles", kInt, "N"}, {"--seed", kU64, "S"},
                      {"--period", kDouble, "NS"}, {"--vcd", kString, "FILE"},
                      {"--stim", kString, "FILE"}, {"--glitch-report"},
                      {"--cross-check"}, {"--check-sta"}})},
     cmd_simulate},
    {{"seu",
      sram_shape_and({{"--ecc"}, {"--spares", kInt, "N"},
                      {"--campaign", kInt, "N"}, {"--cycles", kInt, "N"},
                      {"--seed", kU64, "S"}, {"--workers", kInt, "N"},
                      {"--burst", kInt, "N"}, {"--journal", kString, "FILE"},
                      {"--resume", kString, "FILE"},
                      {"--report", kString, "FILE"},
                      {"--timeout", kDouble, "SEC"},
                      {"--run-timeout", kDouble, "SEC"}})},
     cmd_seu},
    {{"optimize",
      {{"words", kInt}, {"bits", kInt}, {"min_fmax_MHz", kDouble},
       {"objective", kWord, "energy|area|delay", true}}},
     cmd_optimize},
    {{"spgemm", {{"rmat_scale", kInt}, {"avg_degree", kInt}}}, cmd_spgemm},
    {{"yield",
      sram_shape_and({{"--chips", kInt, "N"}, {"--seed", kU64, "S"},
                      {"--d0", kDouble, "defects_per_cm2"},
                      {"--spares", kInt, "N"}, {"--ecc"},
                      {"--verify-cycles", kInt, "N"}})},
     cmd_yield},
    {{"repro", {{"--check"}}}, cmd_repro},
};

const args::Arg kGlobalFlags[] = {{"--cache-dir", kString, "DIR"}};
}  // namespace

int main(int argc, char** argv) {
  const Subcommand* sub = nullptr;
  for (const Subcommand& s : kSubcommands)
    if (argc >= 2 && s.command.name == argv[1]) sub = &s;
  if (!sub) {
    std::vector<args::Command> commands;
    for (const Subcommand& s : kSubcommands) commands.push_back(s.command);
    std::fputs(args::usage("limsynth", commands, kGlobalFlags).c_str(),
               stderr);
    return 2;
  }
  try {
    const args::Args a =
        args::parse(sub->command, argc - 1, argv + 1, kGlobalFlags);
    attach_cache_dir(a.get_string("--cache-dir"));
    return sub->run(a);
  } catch (const Error& e) {    // Structured exit codes: scripts driving sweeps can tell a bad config
    // (2) from a numerics problem (4) or an exhausted budget (5).
    std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code()),
                 e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
