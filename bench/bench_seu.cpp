// Soft-error resilience study of the paper's configurations A and C:
// stratified SEU/SET campaigns with and without SECDED, reporting
// per-stratum AVF, the visible-error FIT after derating, and injection
// throughput per worker count.
//
// The derating chain is the point: the tech model's raw upset rates
// (process.seu_fit_per_mbit et al.) are what a datasheet quotes, while
// the campaign measures how many of those upsets an application trace
// actually turns into visible errors. SECDED should crush the macro
// stratum's contribution and leave flop/SET strata as the residual.
//
// On top of the study, this bench validates and measures the bit-plane
// batch kernel (src/bitsim/): a 63-samples-per-pass micro-benchmark
// quantifies the classification speedup over per-sample event replay,
// and every sample both kernels classify there must get the same
// outcome; a thread-scaling sweep records campaign throughput per worker
// count. Writes seu_resilience.csv and BENCH_seu.json; with --check,
// exits nonzero when equivalence or the batched speedup regresses.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "evsim/annotate.hpp"
#include "evsim/crosscheck.hpp"
#include "lim/sram_builder.hpp"
#include "seu/batch.hpp"
#include "seu/campaign.hpp"
#include "synth/synth.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Rig {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  lim::SramDesign design;
  evsim::TimingAnnotation ann;
  evsim::StimulusTrace trace;
  seu::SeuRig rig;

  Rig(const lim::SramConfig& cfg, int cycles, std::uint64_t seed)
      : design(lim::build_sram(cfg, process, cells)) {
    synth::synthesize(design.nl, design.lib, cells);
    ann = evsim::annotate_delays(design.nl, design.lib, cells);
    trace = seu::random_trace(design, cycles, seed);
    rig.design = &design;
    rig.cells = &cells;
    rig.ann = &ann;
    rig.trace = &trace;
    rig.run_timeout_seconds = 60.0;
  }
};

/// Random macro-array upset specs — the stratum both kernels classify —
/// over the full bank/row/bit space of the design.
std::vector<seu::InjectionSpec> make_macro_specs(const lim::SramConfig& cfg,
                                                 int cycles, int count,
                                                 std::uint64_t seed) {
  std::vector<seu::InjectionSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    seu::InjectionSpec s;
    s.site.kind = seu::SiteKind::kMacroBit;
    s.site.bank = static_cast<int>(rng.below(cfg.banks));
    s.site.row = static_cast<int>(rng.below(cfg.rows_per_bank()));
    s.site.bit = static_cast<int>(rng.below(cfg.code_bits()));
    s.cycle = 1 + rng.below(static_cast<std::uint64_t>(cycles) - 2);
    s.burst = rng.chance(0.25) ? 2 : 1;
    specs.push_back(s);
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  const args::Args a = args::parse_or_exit(
      {"bench_seu", {{"--seed", args::Type::kU64, "N"}, {"--check"}}}, argc,
      argv);
  const std::uint64_t seed = a.get_u64("--seed", 20150608);
  const bool check = a.has("--check");
  const int kSamples = 600;
  const int kCycles = 40;

  struct Case {
    const char* label;
    lim::SramConfig cfg;
  };
  Case cases[] = {
      {"A 16x10", {16, 10, 1, 16}},
      {"C 64x10", {64, 10, 1, 16}},
      {"C 64x10 +SECDED", {64, 10, 1, 16}},
  };
  cases[2].cfg.ecc = true;

  Table t({"config", "sites", "SDC", "AVF(macro)", "AVF(flop)", "AVF(SET)",
           "FIT visible", "inj/s", "batched"});
  std::ofstream csv("seu_resilience.csv");
  CsvWriter w(csv);
  w.write_row({"config", "ecc", "samples", "sdc_rate", "sdc_lo", "sdc_hi",
               "avf_macro", "avf_flop", "avf_set", "fit_visible",
               "mtbf_hours", "injections_per_s", "batched"});

  double fit_plain = 0.0, fit_ecc = 0.0;
  int total_batched = 0;
  std::string kernel_used;
  for (const Case& c : cases) {
    Rig rig(c.cfg, kCycles, seed);
    seu::CampaignOptions opt;
    opt.samples = kSamples;
    opt.seed = seed;
    opt.run.jobs = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const seu::CampaignResult res =
        seu::run_campaign(rig.rig, rig.process, opt);
    const double secs = seconds_since(t0);
    const double rate = secs > 0.0 ? res.completed / secs : 0.0;
    total_batched += res.batched;
    kernel_used = res.kernel;
    const WilsonInterval sdc = res.interval(seu::Outcome::kSdc);
    const auto& macro = res.strata[static_cast<int>(seu::SiteKind::kMacroBit)];
    const auto& flop = res.strata[static_cast<int>(seu::SiteKind::kFlop)];
    const auto& set = res.strata[static_cast<int>(seu::SiteKind::kSetPulse)];
    t.add_row({c.label, std::to_string(macro.sites + flop.sites + set.sites),
               strformat("%.4f [%.4f,%.4f]", res.rate(seu::Outcome::kSdc),
                         sdc.lo, sdc.hi),
               strformat("%.4f", macro.avf()), strformat("%.4f", flop.avf()),
               strformat("%.4f", set.avf()),
               strformat("%.3g", res.fit_visible()),
               strformat("%.0f", rate), std::to_string(res.batched)});
    w.write_row({c.label, c.cfg.ecc ? "1" : "0", std::to_string(res.completed),
                 strformat("%.6f", res.rate(seu::Outcome::kSdc)),
                 strformat("%.6f", sdc.lo), strformat("%.6f", sdc.hi),
                 strformat("%.6f", macro.avf()), strformat("%.6f", flop.avf()),
                 strformat("%.6f", set.avf()),
                 strformat("%.6g", res.fit_visible()),
                 strformat("%.6g", res.mtbf_hours()), strformat("%.1f", rate),
                 std::to_string(res.batched)});
    if (c.cfg.ecc)
      fit_ecc = res.fit_visible();
    else if (c.cfg.words == 64)
      fit_plain = res.fit_visible();
  }
  t.print(std::cout);
  std::cout << "\nSECDED cuts config C's visible FIT from " << fit_plain
            << " to " << fit_ecc << " per device ("
            << (fit_plain > 0.0
                    ? strformat("%.0fx", fit_plain / std::max(fit_ecc, 1e-12))
                    : "n/a")
            << " reduction); wrote seu_resilience.csv\n";

  // --- kernel micro-benchmark and equivalence --------------------------
  // Classification throughput on the macro stratum: per-sample event
  // replay vs 63 samples per bit-plane pass over the same specs. Every
  // spec both kernels classify must get the same outcome and latency.
  Rig k_rig(cases[1].cfg, kCycles, seed);
  const seu::GoldenRun golden = seu::run_golden(k_rig.rig);
  seu::BatchKernel kernel(k_rig.rig);
  const int kScalarSpecs = 64;
  const int kBatchGroups = 8;
  const std::vector<seu::InjectionSpec> specs = make_macro_specs(
      cases[1].cfg, kCycles, kBatchGroups * seu::kBatchSamples, seed + 1);

  std::vector<seu::InjectionResult> scalar_runs;
  const auto ts = std::chrono::steady_clock::now();
  for (int i = 0; i < kScalarSpecs; ++i)
    scalar_runs.push_back(seu::run_injection(
        k_rig.rig, golden, specs[static_cast<std::size_t>(i)]));
  const double scalar_secs = seconds_since(ts);

  std::vector<seu::InjectionResult> batch_runs;
  const auto tb = std::chrono::steady_clock::now();
  for (int g = 0; g < kBatchGroups; ++g) {
    const auto first = specs.begin() + g * seu::kBatchSamples;
    const std::vector<seu::InjectionSpec> group(first,
                                                first + seu::kBatchSamples);
    for (seu::InjectionResult& r :
         seu::run_batch(k_rig.rig, kernel, golden, group))
      batch_runs.push_back(std::move(r));
  }
  const double batch_secs = seconds_since(tb);
  const int batch_classified = static_cast<int>(batch_runs.size());

  int outcomes_differ = 0;
  for (std::size_t i = 0; i < scalar_runs.size(); ++i)
    if (batch_runs[i].outcome != scalar_runs[i].outcome ||
        batch_runs[i].latent != scalar_runs[i].latent)
      ++outcomes_differ;
  const bool outcomes_identical = outcomes_differ == 0;
  std::printf("\nequivalence: %d of %d specs classified differently by the"
              " bit-plane kernel and the scalar replay\n",
              outcomes_differ, kScalarSpecs);

  const double scalar_rate =
      scalar_secs > 0.0 ? kScalarSpecs / scalar_secs : 0.0;
  const double batch_rate =
      batch_secs > 0.0 ? batch_classified / batch_secs : 0.0;
  const double kernel_speedup =
      scalar_rate > 0.0 ? batch_rate / scalar_rate : 0.0;
  std::printf("kernel: scalar %.0f inj/s, bit-plane %.0f inj/s"
              " (%d samples) -> %.1fx\n",
              scalar_rate, batch_rate, batch_classified, kernel_speedup);

  // --- thread scaling -------------------------------------------------
  const int worker_counts[] = {1, 2, 4, 8};
  struct ScaleRow {
    int workers;
    double seconds;
    double rate;
  };
  std::vector<ScaleRow> scale_rows;
  for (const int workers : worker_counts) {
    Rig s_rig(cases[1].cfg, kCycles, seed);
    seu::CampaignOptions opt;
    opt.samples = 400;
    opt.seed = seed;
    opt.run.jobs = workers;
    const auto t0 = std::chrono::steady_clock::now();
    const seu::CampaignResult res =
        seu::run_campaign(s_rig.rig, s_rig.process, opt);
    const double secs = seconds_since(t0);
    scale_rows.push_back(
        {workers, secs, secs > 0.0 ? res.completed / secs : 0.0});
  }
  std::printf("scaling (%u hw threads):", std::thread::hardware_concurrency());
  for (const ScaleRow& r : scale_rows)
    std::printf(" %d:%.0f/s", r.workers, r.rate);
  std::printf("\n");

  using jsonl::format_g17;
  std::ofstream json("BENCH_seu.json");
  json << "{\n"
       << "  \"samples\": " << kSamples << ",\n"
       << "  \"cycles\": " << kCycles << ",\n"
       << "  \"kernel\": \"" << kernel_used << "\",\n"
       << "  \"campaign_batched_samples\": " << total_batched << ",\n"
       << "  \"fit_visible_plain\": " << format_g17(fit_plain) << ",\n"
       << "  \"fit_visible_ecc\": " << format_g17(fit_ecc) << ",\n"
       << "  \"outcomes_identical\": "
       << (outcomes_identical ? "true" : "false") << ",\n"
       << "  \"scalar_inj_per_s\": " << format_g17(scalar_rate) << ",\n"
       << "  \"batched_inj_per_s\": " << format_g17(batch_rate) << ",\n"
       << "  \"batched_speedup\": " << format_g17(kernel_speedup) << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"thread_scaling\": [";
  for (std::size_t i = 0; i < scale_rows.size(); ++i)
    json << (i ? ", " : "") << "{\"workers\": " << scale_rows[i].workers
         << ", \"seconds\": " << format_g17(scale_rows[i].seconds)
         << ", \"inj_per_s\": " << format_g17(scale_rows[i].rate) << "}";
  json << "]\n}\n";
  json.close();
  std::printf("wrote BENCH_seu.json\n");

  if (check) {
    bool ok = true;
    if (!outcomes_identical) {
      std::fprintf(stderr,
                   "FAIL: bit-plane and scalar classifications differ on %d"
                   " of %d specs\n",
                   outcomes_differ, kScalarSpecs);
      ok = false;
    }
    if (total_batched == 0) {
      std::fprintf(stderr,
                   "FAIL: batch kernel classified zero campaign samples (%s)\n",
                   kernel_used.c_str());
      ok = false;
    }
    if (kernel_speedup < 10.0) {
      std::fprintf(stderr,
                   "FAIL: batched classification speedup %.1fx below 10x"
                   " (scalar %.0f inj/s, batched %.0f inj/s)\n",
                   kernel_speedup, scalar_rate, batch_rate);
      ok = false;
    }
    if (fit_ecc >= fit_plain) {
      std::fprintf(stderr,
                   "FAIL: SECDED did not reduce visible FIT (%.3g -> %.3g)\n",
                   fit_plain, fit_ecc);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check: OK\n");
  }
  return 0;
}
