#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "evsim/annotate.hpp"
#include "seu/batch.hpp"
#include "seu/campaign.hpp"
#include "seu/seu.hpp"
#include "synth/synth.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"

namespace limsynth::seu {
namespace {

std::uint64_t low_mask(std::size_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Everything one injection rig needs, with owned lifetimes: an
/// elaborated + synthesized + annotated SRAM and a random stimulus trace
/// of the same shape `limsynth seu` generates.
struct RigBundle {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  lim::SramDesign design;
  std::optional<netlist::BoundDesign> bound;
  evsim::TimingAnnotation ann;
  evsim::StimulusTrace trace;
  SeuRig rig;

  RigBundle(const lim::SramConfig& cfg, int cycles,
            std::uint64_t trace_seed = 3)
      : design(lim::build_sram(cfg, process, cells)) {
    synth::synthesize(design.nl, design.lib, cells);
    bound.emplace(design.nl, design.lib);
    ann = evsim::annotate_delays(*bound, cells);
    trace = random_trace(design, cycles, trace_seed);
    rig.design = &design;
    rig.bound = &*bound;
    rig.cells = &cells;
    rig.ann = &ann;
    rig.trace = &trace;
    rig.run_timeout_seconds = 30.0;
  }

  /// Replaces the random trace: write `value` to `row` at cycle 0, then
  /// read `row` back every remaining cycle.
  void write_then_reread(int row, std::uint64_t value, int cycles) {
    trace.cycles.clear();
    trace.set_bus(0, design.waddr, static_cast<std::uint64_t>(row));
    trace.set_bus(0, design.wdata, value & low_mask(design.wdata.size()));
    trace.set(0, design.wen, true);
    trace.set_bus(0, design.raddr, static_cast<std::uint64_t>(row));
    trace.set(1, design.wen, false);
    trace.set(cycles - 1, design.wen, false);  // pad the trace length
  }

  /// Replaces the random trace with one that fills every row with a
  /// distinct word, then reads rows in sequence. With all rows distinct,
  /// any upset that redirects or corrupts a read is architecturally
  /// visible instead of hitting identical (zero) words.
  void fill_then_read(int cycles) {
    trace.cycles.clear();
    const int rows = design.config.words;
    for (int c = 0; c < cycles; ++c) {
      const int row = c % rows;
      const bool writing = c < rows;
      trace.set(c, design.wen, writing);
      trace.set_bus(c, design.waddr, static_cast<std::uint64_t>(row));
      trace.set_bus(c, design.wdata,
                    (0x155u + 37u * static_cast<std::uint64_t>(row)) &
                        low_mask(design.wdata.size()));
      trace.set_bus(c, design.raddr, static_cast<std::uint64_t>(row));
    }
  }
};

lim::SramConfig config_a(bool ecc = false) {
  lim::SramConfig cfg;
  cfg.words = 16;
  cfg.bits = 10;
  cfg.banks = 1;
  cfg.brick_words = 16;
  cfg.ecc = ecc;
  return cfg;
}

lim::SramConfig config_c(bool ecc) {
  lim::SramConfig cfg;
  cfg.words = 64;
  cfg.bits = 10;
  cfg.banks = 1;
  cfg.brick_words = 16;
  cfg.ecc = ecc;
  return cfg;
}

TEST(SeuSites, EnumerationMatchesDesignShape) {
  RigBundle b(config_a(), 12);
  const SitePlan plan = enumerate_sites(b.rig);
  const lim::SramConfig& cfg = b.design.config;
  EXPECT_EQ(plan.macro_bits,
            static_cast<std::uint64_t>(cfg.banks) * cfg.rows_per_bank() *
                cfg.code_bits());
  EXPECT_EQ(plan.flops.size(), b.ann.flops.size());
  EXPECT_EQ(plan.set_nets.size(), b.ann.gates.size());
  EXPECT_GT(plan.flops.size(), 0u);
  EXPECT_GT(plan.set_nets.size(), 0u);
  EXPECT_EQ(plan.total(),
            plan.macro_bits + plan.flops.size() + plan.set_nets.size());
}

TEST(SeuSites, EccWidensTheMacroStratum) {
  RigBundle plain(config_a(false), 8);
  RigBundle ecc(config_a(true), 8);
  const SitePlan p0 = enumerate_sites(plain.rig);
  const SitePlan p1 = enumerate_sites(ecc.rig);
  // SECDED stores check bits alongside the data, so the ECC array exposes
  // strictly more upsettable bits.
  EXPECT_GT(p1.macro_bits, p0.macro_bits);
}

TEST(SeuInjection, StandingBitFlipWithoutEccIsSdc) {
  RigBundle b(config_a(false), 16);
  b.write_then_reread(/*row=*/5, /*value=*/0x2AB, /*cycles=*/16);
  const GoldenRun golden = run_golden(b.rig);
  ASSERT_NE(golden.mem[0][5], 0u);

  InjectionSpec spec;
  spec.site.kind = SiteKind::kMacroBit;
  spec.site.bank = 0;
  spec.site.row = 5;
  spec.site.bit = 0;
  spec.cycle = 6;  // after the write has landed, while re-reads continue
  const InjectionResult r = run_injection(b.rig, golden, spec);
  EXPECT_EQ(r.outcome, Outcome::kSdc);
  EXPECT_GE(r.first_mismatch_cycle, spec.cycle);
}

TEST(SeuInjection, SecdedCorrectsASingleBitUpset) {
  RigBundle b(config_a(true), 16);
  b.write_then_reread(5, 0x2AB, 16);
  const GoldenRun golden = run_golden(b.rig);

  InjectionSpec spec;
  spec.site.kind = SiteKind::kMacroBit;
  spec.site.row = 5;
  spec.site.bit = 0;
  spec.cycle = 6;
  const InjectionResult r = run_injection(b.rig, golden, spec);
  // The decoder repairs the read on the fly: outputs clean, correction
  // observed live, and the flipped cell still standing in the array.
  EXPECT_EQ(r.outcome, Outcome::kCorrectedSecded);
  EXPECT_TRUE(r.latent);
}

TEST(SeuInjection, SecdedDetectsButCannotCorrectADoubleBitBurst) {
  RigBundle b(config_a(true), 16);
  b.write_then_reread(5, 0x2AB, 16);
  const GoldenRun golden = run_golden(b.rig);

  InjectionSpec spec;
  spec.site.kind = SiteKind::kMacroBit;
  spec.site.row = 5;
  spec.site.bit = 0;
  spec.burst = 2;  // adjacent multi-cell upset
  spec.cycle = 6;
  const InjectionResult r = run_injection(b.rig, golden, spec);
  EXPECT_EQ(r.outcome, Outcome::kDetectedUncorrectable);
}

TEST(SeuInjection, UpsetInAnUnreadRowStaysLatent) {
  RigBundle b(config_a(false), 16);
  b.write_then_reread(5, 0x2AB, 16);
  const GoldenRun golden = run_golden(b.rig);

  InjectionSpec spec;
  spec.site.kind = SiteKind::kMacroBit;
  spec.site.row = 11;  // never addressed by the trace
  spec.site.bit = 3;
  spec.cycle = 6;
  const InjectionResult r = run_injection(b.rig, golden, spec);
  EXPECT_EQ(r.outcome, Outcome::kMasked);
  EXPECT_TRUE(r.latent);
}

TEST(SeuInjection, FlopSweepPerturbsTheDatapath) {
  RigBundle b(config_a(false), 28);
  b.fill_then_read(28);
  const GoldenRun golden = run_golden(b.rig);
  int sdc = 0, hang = 0;
  for (const evsim::FlopInfo& fi : b.ann.flops) {
    InjectionSpec spec;
    spec.site.kind = SiteKind::kFlop;
    spec.site.flop = fi.inst;
    spec.cycle = 20;  // mid-readback, all rows holding distinct words
    const InjectionResult r = run_injection(b.rig, golden, spec);
    sdc += r.outcome == Outcome::kSdc;
    hang += r.outcome == Outcome::kHang;
  }
  // Address/pipeline flops must be able to corrupt reads, and no flip may
  // wedge the engine.
  EXPECT_GT(sdc, 0);
  EXPECT_EQ(hang, 0);
}

TEST(SeuInjection, WideSetPulseIsCapturedSomewhere) {
  RigBundle b(config_a(false), 20);
  const GoldenRun golden = run_golden(b.rig);
  int sdc = 0, hang = 0, captured = 0;
  for (const evsim::GateInfo& gi : b.ann.gates) {
    InjectionSpec spec;
    spec.site.kind = SiteKind::kSetPulse;
    spec.site.net = gi.out;
    spec.cycle = 8;
    // Wider than the lead: the corrupted front spans the capture edge for
    // every downstream path shorter than the lead, so strikes on live
    // logic must latch.
    spec.set_width_fs = 400'000;
    spec.set_lead_fs = 200'000;
    const InjectionResult r = run_injection(b.rig, golden, spec);
    sdc += r.outcome == Outcome::kSdc;
    hang += r.outcome == Outcome::kHang;
    captured += r.outcome != Outcome::kMasked;
  }
  EXPECT_GT(sdc, 0);
  EXPECT_GT(captured, 5);
  EXPECT_EQ(hang, 0);  // multi-hot wordlines must degrade, not throw
}

TEST(SeuInjection, NarrowLateSetPulseReconverges) {
  RigBundle b(config_a(false), 20);
  const GoldenRun golden = run_golden(b.rig);
  InjectionSpec spec;
  spec.site.kind = SiteKind::kSetPulse;
  spec.site.net = b.ann.gates.front().out;
  spec.cycle = 8;
  // The pulse dies ~1.5 ns before the edge — far beyond any path delay in
  // this netlist — so the functional values must reconverge.
  spec.set_width_fs = 100'000;
  spec.set_lead_fs = 1'600'000;
  const InjectionResult r = run_injection(b.rig, golden, spec);
  EXPECT_EQ(r.outcome, Outcome::kMasked);
  EXPECT_FALSE(r.latent);
}

TEST(SeuPlanner, SamplePlanIsAPureFunctionOfSeedAndIndex) {
  RigBundle b(config_a(false), 12);
  const SitePlan plan = enumerate_sites(b.rig);
  CampaignOptions opt;
  opt.samples = 64;
  opt.seed = 9;
  for (int i = 0; i < opt.samples; i += 7) {
    const InjectionSpec a = plan_sample(b.rig, plan, opt, i);
    const InjectionSpec c = plan_sample(b.rig, plan, opt, i);
    EXPECT_EQ(a.site.kind, c.site.kind);
    EXPECT_EQ(a.site.describe(b.design.nl), c.site.describe(b.design.nl));
    EXPECT_EQ(a.cycle, c.cycle);
    EXPECT_EQ(a.set_lead_fs, c.set_lead_fs);
    EXPECT_LT(a.cycle, b.trace.size());
  }
}

TEST(SeuCampaign, ReportIsByteIdenticalAcrossWorkerCounts) {
  RigBundle b(config_a(false), 16);
  CampaignOptions opt;
  opt.samples = 96;
  opt.seed = 11;
  opt.run.jobs = 1;
  const CampaignResult serial = run_campaign(b.rig, b.process, opt);
  opt.run.jobs = 4;
  const CampaignResult parallel = run_campaign(b.rig, b.process, opt);
  EXPECT_EQ(format_campaign_report(serial, b.design.config),
            format_campaign_report(parallel, b.design.config));
  EXPECT_EQ(serial.completed, serial.samples);
  EXPECT_EQ(parallel.completed, parallel.samples);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SeuCampaign, JournalIsByteIdenticalAcrossWorkerCounts) {
  // Batched groups, scalar SET singletons and several workers finish out of
  // order; the executor still journals every sample in sample order.
  RigBundle b(config_a(false), 16);
  const std::string one = testing::TempDir() + "seu_journal_w1.jsonl";
  const std::string four = testing::TempDir() + "seu_journal_w4.jsonl";
  std::remove(one.c_str());
  std::remove(four.c_str());
  CampaignOptions opt;
  opt.samples = 150;
  opt.seed = 19;
  opt.run.jobs = 1;
  opt.run.journal_path = one;
  const CampaignResult serial = run_campaign(b.rig, b.process, opt);
  opt.run.jobs = 4;
  opt.run.journal_path = four;
  const CampaignResult parallel = run_campaign(b.rig, b.process, opt);
  EXPECT_GT(serial.batched, 0);
  const std::string journal = read_file(one);
  EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'), 150);
  EXPECT_EQ(journal, read_file(four));
  EXPECT_EQ(format_campaign_report(serial, b.design.config),
            format_campaign_report(parallel, b.design.config));
  std::remove(one.c_str());
  std::remove(four.c_str());
}

TEST(SeuCampaign, RerunWithoutResumeAppendsToTheJournal) {
  RigBundle b(config_a(false), 16);
  const std::string journal = testing::TempDir() + "seu_append_journal.jsonl";
  std::remove(journal.c_str());
  CampaignOptions opt;
  opt.samples = 30;
  opt.seed = 29;
  opt.run.jobs = 2;
  opt.run.journal_path = journal;
  const CampaignResult first = run_campaign(b.rig, b.process, opt);
  const std::string once = read_file(journal);

  // A rerun without --resume never discards finished work: it appends,
  // and a later resume takes the last line for each sample.
  const CampaignResult again = run_campaign(b.rig, b.process, opt);
  EXPECT_EQ(again.provenance.computed, 30);
  EXPECT_EQ(read_file(journal), once + once);

  opt.run.resume = true;
  const CampaignResult resumed = run_campaign(b.rig, b.process, opt);
  EXPECT_EQ(resumed.provenance.resumed, 30);
  EXPECT_EQ(resumed.provenance.computed, 0);
  EXPECT_EQ(resumed.provenance.stale, 0);
  EXPECT_EQ(format_campaign_report(resumed, b.design.config),
            format_campaign_report(first, b.design.config));
  EXPECT_EQ(read_file(journal), once + once);
  std::remove(journal.c_str());
}

TEST(SeuCampaign, ResumeAfterTruncationReproducesTheFullReport) {
  RigBundle b(config_a(false), 16);
  const std::string journal =
      testing::TempDir() + "seu_resume_journal.jsonl";
  std::remove(journal.c_str());

  CampaignOptions opt;
  opt.samples = 60;
  opt.seed = 13;
  opt.run.jobs = 2;
  opt.run.journal_path = journal;
  const CampaignResult full = run_campaign(b.rig, b.process, opt);
  const std::string want = format_campaign_report(full, b.design.config);

  // Simulate a mid-campaign SIGKILL: keep the first 20 journal lines,
  // then a torn partial write, then a line from some other campaign.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 60u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < 20; ++i) out << lines[i] << "\n";
    out << "{\"campaign\":\"dead";  // torn trailing write
    out << "\n{\"campaign\":\"0000000000000000\",\"sample\":0,"
           "\"kind\":\"flop\",\"site\":\"x\",\"cycle\":1,"
           "\"outcome\":\"masked\",\"latent\":false,\"detail\":\"\"}\n";
  }

  opt.run.resume = true;
  const CampaignResult resumed = run_campaign(b.rig, b.process, opt);
  EXPECT_EQ(resumed.provenance.resumed, 20);
  EXPECT_EQ(resumed.provenance.computed, 40);
  EXPECT_EQ(resumed.provenance.malformed, 1);
  EXPECT_EQ(resumed.provenance.stale, 1);
  EXPECT_EQ(format_campaign_report(resumed, b.design.config), want);
}

TEST(SeuCampaign, CancelStopsCleanlyAndResumeReproducesTheReport) {
  RigBundle b(config_a(false), 16);
  const std::string journal =
      testing::TempDir() + "seu_cancel_journal.jsonl";
  std::remove(journal.c_str());

  CampaignOptions opt;
  opt.samples = 40;
  opt.seed = 17;
  opt.run.jobs = 2;
  opt.run.journal_path = journal;
  const CampaignResult full = run_campaign(b.rig, b.process, opt);
  const std::string want = format_campaign_report(full, b.design.config);
  std::remove(journal.c_str());

  // SIGINT arriving before the first sample: the campaign stops cleanly
  // with `interrupted` set and nothing half-written.
  std::atomic<bool> cancel{true};
  opt.run.cancel = &cancel;
  const CampaignResult cut = run_campaign(b.rig, b.process, opt);
  EXPECT_TRUE(cut.provenance.interrupted);
  EXPECT_LT(cut.completed, cut.samples);

  cancel.store(false);
  opt.run.resume = true;
  const CampaignResult resumed = run_campaign(b.rig, b.process, opt);
  EXPECT_FALSE(resumed.provenance.interrupted);
  EXPECT_EQ(resumed.completed, resumed.samples);
  EXPECT_EQ(format_campaign_report(resumed, b.design.config), want);
  std::remove(journal.c_str());
}

TEST(SeuCampaign, RejectsImpossibleOptions) {
  RigBundle b(config_a(false), 8);
  CampaignOptions opt;
  opt.samples = 0;
  try {
    run_campaign(b.rig, b.process, opt);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
  // A rig without its design's binding is refused, not run scalar.
  opt.samples = 10;
  SeuRig unbound = b.rig;
  unbound.bound = nullptr;
  try {
    run_campaign(unbound, b.process, opt);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(SeuCampaign, ThrowsIoWhenJournalUnwritable) {
  RigBundle b(config_a(false), 8);
  CampaignOptions opt;
  opt.samples = 10;
  opt.run.journal_path = testing::TempDir() + "no_such_dir/journal.jsonl";
  try {
    run_campaign(b.rig, b.process, opt);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST(SeuCampaign, SecdedShiftsSdcToCorrectedWithConfidence) {
  // The ISSUE's Fig. 4b acceptance check, scaled to test runtime: on
  // configuration C the SECDED build must show strictly lower SDC than
  // the ECC-off build with non-overlapping 95% Wilson intervals.
  RigBundle plain(config_c(false), 30);
  RigBundle ecc(config_c(true), 30);
  CampaignOptions opt;
  opt.samples = 300;
  opt.seed = 7;
  opt.run.jobs = 4;
  const CampaignResult r0 = run_campaign(plain.rig, plain.process, opt);
  const CampaignResult r1 = run_campaign(ecc.rig, ecc.process, opt);
  ASSERT_EQ(r0.completed, r0.samples);
  ASSERT_EQ(r1.completed, r1.samples);
  EXPECT_GT(r0.rate(Outcome::kSdc), r1.rate(Outcome::kSdc));
  EXPECT_FALSE(
      r0.interval(Outcome::kSdc).overlaps(r1.interval(Outcome::kSdc)));
  // The corrections SECDED claims must actually be observed live.
  EXPECT_GT(r1.counts[static_cast<int>(Outcome::kCorrectedSecded)], 0u);
  EXPECT_EQ(r0.counts[static_cast<int>(Outcome::kCorrectedSecded)], 0u);
  // Visible failure rate (and hence derated FIT) drops with ECC.
  EXPECT_LT(r1.fit_visible(), r0.fit_visible());
}

TEST(SeuBatch, RunBatchMatchesRunInjectionPerSample) {
  for (const bool ecc : {false, true}) {
    RigBundle b(config_a(ecc), 20);
    b.fill_then_read(20);
    const GoldenRun golden = run_golden(b.rig);
    const BatchKernel kernel(b.rig);
    // A mixed group: standing macro upsets (read and unread rows), a
    // double-bit burst, and every flop in the design.
    std::vector<InjectionSpec> specs;
    for (int r = 0; r < 8; ++r) {
      InjectionSpec spec;
      spec.site.kind = SiteKind::kMacroBit;
      spec.site.row = 2 * r;
      spec.site.bit = r % b.design.config.code_bits();
      spec.burst = r == 3 ? 2 : 1;
      spec.cycle = 17;  // mid-readback
      specs.push_back(spec);
    }
    for (const evsim::FlopInfo& fi : b.ann.flops) {
      if (specs.size() == static_cast<std::size_t>(kBatchSamples)) break;
      InjectionSpec spec;
      spec.site.kind = SiteKind::kFlop;
      spec.site.flop = fi.inst;
      spec.cycle = 18;
      specs.push_back(spec);
    }
    const std::vector<InjectionResult> batch =
        run_batch(b.rig, kernel, golden, specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const InjectionResult scalar = run_injection(b.rig, golden, specs[i]);
      EXPECT_EQ(batch[i].outcome, scalar.outcome)
          << "spec " << i << " " << specs[i].site.describe(b.design.nl);
      EXPECT_EQ(batch[i].latent, scalar.latent) << "spec " << i;
      if (scalar.outcome == Outcome::kSdc) {
        EXPECT_EQ(batch[i].first_mismatch_cycle, scalar.first_mismatch_cycle)
            << "spec " << i;
      }
    }
  }
}

TEST(SeuBatch, RejectsSetSpecsAndOversizedGroups) {
  RigBundle b(config_a(false), 12);
  const GoldenRun golden = run_golden(b.rig);
  const BatchKernel kernel(b.rig);
  InjectionSpec set_spec;
  set_spec.site.kind = SiteKind::kSetPulse;
  set_spec.site.net = b.ann.gates.front().out;
  set_spec.cycle = 4;
  EXPECT_THROW(run_batch(b.rig, kernel, golden, {set_spec}), Error);
  InjectionSpec bit;
  bit.site.kind = SiteKind::kMacroBit;
  bit.cycle = 4;
  const std::vector<InjectionSpec> too_many(
      static_cast<std::size_t>(kBatchSamples) + 1, bit);
  EXPECT_THROW(run_batch(b.rig, kernel, golden, too_many), Error);
}

TEST(SeuBatch, BatchedCampaignReportIsByteIdenticalToScalar) {
  // The report is a function of the ordered sample records alone, so a
  // campaign whose every batched record is the scalar event engine's
  // classification of the same spec renders the scalar report.
  for (const bool ecc : {false, true}) {
    RigBundle b(config_c(ecc), 24);
    CampaignOptions opt;
    opt.samples = 200;
    opt.seed = 21;
    opt.run.jobs = 2;
    const CampaignResult batched = run_campaign(b.rig, b.process, opt);
    // The kernel must actually engage (not silently fall back) and must
    // classify every macro-bit and flop sample.
    EXPECT_EQ(batched.kernel, "bitplane");
    const std::uint64_t batchable =
        batched.strata[static_cast<int>(SiteKind::kMacroBit)].samples +
        batched.strata[static_cast<int>(SiteKind::kFlop)].samples;
    EXPECT_EQ(static_cast<std::uint64_t>(batched.batched), batchable);
    EXPECT_GT(batched.batched, 0);

    const GoldenRun golden = run_golden(b.rig);
    const SitePlan plan = enumerate_sites(b.rig);
    int compared = 0;
    for (int i = 0; i < opt.samples; ++i) {
      const InjectionSpec spec = plan_sample(b.rig, plan, opt, i);
      const SampleRecord& rec = batched.records[static_cast<std::size_t>(i)];
      ASSERT_EQ(rec.kind, spec.site.kind) << "sample " << i;
      if (spec.site.kind == SiteKind::kSetPulse) continue;  // never batched
      const InjectionResult scalar = run_injection(b.rig, golden, spec);
      EXPECT_EQ(rec.outcome, scalar.outcome) << "sample " << i << " "
                                             << rec.site;
      EXPECT_EQ(rec.latent, scalar.latent) << "sample " << i;
      EXPECT_EQ(rec.detail, scalar.detail) << "sample " << i;
      ++compared;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(compared), batchable);
  }
}

TEST(SeuBatch, ScalarJournalResumesIntoBatchedCampaign) {
  // Journals never fingerprint the kernel choice: a journal whose first
  // samples the scalar event engine classified (written here in the
  // journal's line format) resumes under the batch kernel and renders the
  // uninterrupted campaign's byte-identical report.
  RigBundle b(config_a(false), 16);
  const std::string journal =
      testing::TempDir() + "seu_batch_interop_journal.jsonl";
  std::remove(journal.c_str());

  CampaignOptions opt;
  opt.samples = 80;
  opt.seed = 23;
  opt.run.jobs = 1;
  const CampaignResult full = run_campaign(b.rig, b.process, opt);
  const std::string want = format_campaign_report(full, b.design.config);

  const GoldenRun golden = run_golden(b.rig);
  const SitePlan plan = enumerate_sites(b.rig);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (int i = 0; i < 30; ++i) {
      const InjectionSpec spec = plan_sample(b.rig, plan, opt, i);
      const InjectionResult r = run_injection(b.rig, golden, spec);
      out << "{\"campaign\":\"" << full.key << "\",\"sample\":" << i
          << ",\"kind\":\"" << site_kind_name(spec.site.kind)
          << "\",\"site\":\""
          << jsonl::json_escape(spec.site.describe(b.design.nl))
          << "\",\"cycle\":" << spec.cycle << ",\"outcome\":\""
          << outcome_name(r.outcome)
          << "\",\"latent\":" << (r.latent ? "true" : "false")
          << ",\"detail\":\"" << jsonl::json_escape(r.detail) << "\"}\n";
    }
  }

  opt.run.journal_path = journal;
  opt.run.resume = true;
  const CampaignResult resumed = run_campaign(b.rig, b.process, opt);
  EXPECT_EQ(resumed.provenance.resumed, 30);
  EXPECT_EQ(resumed.provenance.computed, 50);
  EXPECT_EQ(resumed.provenance.stale, 0);
  EXPECT_EQ(resumed.provenance.malformed, 0);
  EXPECT_EQ(format_campaign_report(resumed, b.design.config), want);
  std::remove(journal.c_str());
}

TEST(SeuOutcomes, NamesRoundTrip) {
  for (int i = 0; i < kOutcomes; ++i) {
    const auto o = static_cast<Outcome>(i);
    Outcome parsed;
    ASSERT_TRUE(parse_outcome(outcome_name(o), &parsed));
    EXPECT_EQ(parsed, o);
  }
  Outcome parsed;
  EXPECT_FALSE(parse_outcome("garbled", &parsed));
}

}  // namespace
}  // namespace limsynth::seu
