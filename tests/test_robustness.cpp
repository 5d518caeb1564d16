// Flow-hardening tests: checkpoint/resume journaling, sweep watchdog, and
// a randomized-config fuzz pass asserting everything fails as a typed
// limsynth::Error.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "brick/cache.hpp"
#include "lim/checkpoint.hpp"
#include "lim/dse.hpp"
#include "lim/sram_builder.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"
#include "util/rng.hpp"

namespace limsynth::lim {
namespace {

std::vector<PartitionChoice> small_sweep() {
  std::vector<PartitionChoice> choices;
  for (int bw : {8, 16, 32, 64}) {
    PartitionChoice c;
    c.words = 128;
    c.bits = 8;
    c.brick_words = bw;
    choices.push_back(c);
  }
  return choices;
}

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + leaf;
}

std::string csv_of(const std::vector<DsePoint>& points) {
  std::ostringstream os;
  write_dse_csv(points, os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CheckpointKey, ChangesWithChoiceAndOptions) {
  PartitionChoice a;
  PartitionChoice b = a;
  b.brick_words = a.brick_words * 2;
  SweepOptions opts;
  EXPECT_NE(dse_point_key(a, opts), dse_point_key(b, opts));

  SweepOptions ecc = opts;
  ecc.ecc = true;
  SweepOptions spares = opts;
  spares.spare_rows = 2;
  SweepOptions yld = opts;
  yld.yield_chips = 100;
  EXPECT_NE(dse_point_key(a, opts), dse_point_key(a, ecc));
  EXPECT_NE(dse_point_key(a, opts), dse_point_key(a, spares));
  EXPECT_NE(dse_point_key(a, opts), dse_point_key(a, yld));
  // Same inputs -> same key (resume depends on this being stable).
  EXPECT_EQ(dse_point_key(a, opts), dse_point_key(a, opts));
}

TEST(CheckpointJournal, RoundTripsPointsExactly) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const SweepOptions opts;
  const std::string path = temp_path("rt_journal.jsonl");
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  const auto points =
      sweep_partitions_checkpointed(choices, process, opts, ckpt).points;
  ASSERT_EQ(points.size(), choices.size());

  ckpt.resume = true;
  const auto load = sweep_partitions_checkpointed(choices, process, opts, ckpt);
  EXPECT_EQ(load.provenance.malformed, 0);
  EXPECT_EQ(load.provenance.resumed, static_cast<int>(points.size()));
  ASSERT_EQ(load.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DsePoint& p = points[i];
    const DsePoint& q = load.points[i];
    EXPECT_EQ(q.choice.label(), p.choice.label());
    EXPECT_EQ(q.ok, p.ok);
    // %.17g round-trips doubles bit-exactly.
    EXPECT_EQ(q.read_delay, p.read_delay);
    EXPECT_EQ(q.read_energy, p.read_energy);
    EXPECT_EQ(q.area, p.area);
    EXPECT_EQ(q.post_repair_yield, p.post_repair_yield);
  }
  std::remove(path.c_str());
}

TEST(CheckpointJournal, MissingFileResumesEmpty) {
  CheckpointOptions ckpt;
  ckpt.journal_path = temp_path("does_not_exist.jsonl");
  std::remove(ckpt.journal_path.c_str());
  ckpt.resume = true;
  const auto sweep = sweep_partitions_checkpointed(
      small_sweep(), tech::default_process(), {}, ckpt);
  EXPECT_EQ(sweep.provenance.resumed, 0);
  EXPECT_EQ(sweep.provenance.malformed, 0);
  EXPECT_EQ(sweep.provenance.computed, static_cast<int>(small_sweep().size()));
  std::remove(ckpt.journal_path.c_str());
}

TEST(CheckpointResume, TornLastLineIsSkippedAndRecomputed) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const SweepOptions opts;
  const std::string path = temp_path("torn_journal.jsonl");
  std::remove(path.c_str());

  // Reference: one uninterrupted sweep.
  const auto full =
      sweep_partitions_checkpointed(choices, process, opts).points;

  // "Killed" run: journal all points, then tear the last line mid-write
  // the way SIGKILL during a flush would.
  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  const auto first = sweep_partitions_checkpointed(choices, process, opts, ckpt);
  EXPECT_EQ(first.provenance.computed, static_cast<int>(choices.size()));
  std::string journal_text = read_file(path);
  ASSERT_GT(journal_text.size(), 30u);
  journal_text.resize(journal_text.size() - 25);  // torn mid-entry, no '\n'
  {
    std::ofstream out(path, std::ios::trunc);
    out << journal_text;
  }

  CheckpointOptions resume = ckpt;
  resume.resume = true;
  const auto resumed =
      sweep_partitions_checkpointed(choices, process, opts, resume);
  // A torn tail is a kill artifact, not corruption: the fragment counts
  // as unwritten, is flagged as torn_tail, and is NOT counted malformed.
  EXPECT_EQ(resumed.provenance.malformed, 0);
  EXPECT_TRUE(resumed.provenance.torn_tail);
  // Only the torn point is recomputed.
  EXPECT_EQ(resumed.provenance.computed, 1);
  EXPECT_EQ(resumed.provenance.resumed, static_cast<int>(choices.size()) - 1);
  EXPECT_FALSE(resumed.provenance.timed_out);
  ASSERT_EQ(resumed.points.size(), full.size());
  // The resumed sweep's CSV byte-matches the uninterrupted run's.
  EXPECT_EQ(csv_of(resumed.points), csv_of(full));
  std::remove(path.c_str());
}

TEST(CheckpointResume, StaleEntriesFromChangedOptionsAreIgnored) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const std::string path = temp_path("stale_journal.jsonl");
  std::remove(path.c_str());

  SweepOptions opts;
  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  sweep_partitions_checkpointed(choices, process, opts, ckpt);

  // Same shapes, different yield options: every journaled key misses, so
  // the old checkpoint must be recomputed, not trusted.
  SweepOptions changed = opts;
  changed.yield_chips = 50;
  changed.yield_seed = 7;
  CheckpointOptions resume = ckpt;
  resume.resume = true;
  const auto resumed =
      sweep_partitions_checkpointed(choices, process, changed, resume);
  EXPECT_EQ(resumed.provenance.resumed, 0);
  EXPECT_EQ(resumed.provenance.computed, static_cast<int>(choices.size()));
  EXPECT_EQ(resumed.provenance.stale, static_cast<int>(choices.size()));
  std::remove(path.c_str());
}

TEST(CheckpointResume, TimeoutStopsBetweenPointsAndResumeFinishes) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const SweepOptions opts;
  const std::string path = temp_path("timeout_journal.jsonl");
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  ckpt.timeout_seconds = 1e-9;  // expires before the first point computes
  const auto cut = sweep_partitions_checkpointed(choices, process, opts, ckpt);
  EXPECT_TRUE(cut.provenance.timed_out);
  EXPECT_LT(cut.points.size(), choices.size());

  CheckpointOptions resume = ckpt;
  resume.resume = true;
  resume.timeout_seconds = 0.0;
  const auto done = sweep_partitions_checkpointed(choices, process, opts, resume);
  EXPECT_FALSE(done.provenance.timed_out);
  ASSERT_EQ(done.points.size(), choices.size());
  EXPECT_EQ(csv_of(done.points),
            csv_of(
                sweep_partitions_checkpointed(choices, process, opts).points));
  std::remove(path.c_str());
}

TEST(CheckpointResume, CancelStopsBetweenPointsAndResumeFinishes) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const SweepOptions opts;
  const std::string path = temp_path("cancel_journal.jsonl");
  std::remove(path.c_str());

  // A pre-set flag models SIGINT arriving before the sweep starts: the
  // run stops cleanly before evaluating anything, journal intact.
  std::atomic<bool> cancel{true};
  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  ckpt.cancel = &cancel;
  const auto cut = sweep_partitions_checkpointed(choices, process, opts, ckpt);
  EXPECT_TRUE(cut.provenance.interrupted);
  EXPECT_FALSE(cut.provenance.timed_out);
  EXPECT_LT(cut.points.size(), choices.size());

  // Resume with the flag cleared: finishes the rest, and the result
  // matches an uninterrupted run exactly.
  cancel.store(false);
  CheckpointOptions resume = ckpt;
  resume.resume = true;
  const auto done = sweep_partitions_checkpointed(choices, process, opts, resume);
  EXPECT_FALSE(done.provenance.interrupted);
  ASSERT_EQ(done.points.size(), choices.size());
  EXPECT_EQ(csv_of(done.points),
            csv_of(
                sweep_partitions_checkpointed(choices, process, opts).points));
  std::remove(path.c_str());
}

TEST(CheckpointResume, CorruptCompleteLineIsMalformedButTornTailIsNot) {
  const auto process = tech::default_process();
  const auto choices = small_sweep();
  const SweepOptions opts;
  const std::string path = temp_path("mixed_damage_journal.jsonl");
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.journal_path = path;
  sweep_partitions_checkpointed(choices, process, opts, ckpt);

  // Damage the journal two distinct ways: overwrite a complete line with
  // garbage (bit rot — real corruption) and tear the final line (kill
  // mid-append — expected artifact). The loader must tell them apart.
  std::string text = read_file(path);
  const std::size_t first_nl = text.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  text.replace(0, first_nl, std::string(first_nl, '#'));
  text.resize(text.size() - 10);  // tear the tail, no trailing '\n'
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  CheckpointOptions resume = ckpt;
  resume.resume = true;
  const auto resumed =
      sweep_partitions_checkpointed(choices, process, opts, resume);
  EXPECT_EQ(resumed.provenance.malformed, 1);  // the garbage line only
  EXPECT_TRUE(resumed.provenance.torn_tail);
  // The garbage point and the torn point are recomputed.
  EXPECT_EQ(resumed.provenance.computed, 2);
  EXPECT_EQ(resumed.provenance.resumed, static_cast<int>(choices.size()) - 2);
  EXPECT_EQ(csv_of(resumed.points),
            csv_of(
                sweep_partitions_checkpointed(choices, process, opts).points));
  std::remove(path.c_str());
}

TEST(CheckpointParallel, JournalCsvAndFrontMatchSerial) {
  auto choices = small_sweep();
  PartitionChoice sick;
  sick.words = 128;
  sick.bits = 8;
  sick.brick_words = 24;  // invalid: its error record must match too
  choices.push_back(sick);

  SweepOptions sopt;
  sopt.yield_chips = 50;
  sopt.yield_seed = 3;

  CheckpointOptions serial;
  serial.journal_path = temp_path("dse_det_serial.jsonl");
  std::remove(serial.journal_path.c_str());
  CheckpointOptions parallel = serial;
  parallel.journal_path = temp_path("dse_det_parallel.jsonl");
  parallel.jobs = 8;
  std::remove(parallel.journal_path.c_str());

  // The serial sweep compiles every brick; the parallel one is served
  // from the warm memory cache and must journal the same bytes.
  brick::BrickCache& cache = brick::BrickCache::global();
  cache.clear();
  const CheckpointedSweep a = sweep_partitions_checkpointed(
      choices, tech::default_process(), sopt, serial);
  const std::uint64_t cold_hits = cache.hits();
  const CheckpointedSweep b = sweep_partitions_checkpointed(
      choices, tech::default_process(), sopt, parallel);
  EXPECT_GT(cache.hits(), cold_hits);

  ASSERT_EQ(a.points.size(), choices.size());
  ASSERT_EQ(b.points.size(), choices.size());
  // Byte-identical journals and CSVs, identical Pareto fronts.
  const std::string ja = read_file(serial.journal_path);
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, read_file(parallel.journal_path));
  EXPECT_EQ(csv_of(a.points), csv_of(b.points));
  EXPECT_EQ(pareto_front(a.points), pareto_front(b.points));
  // The failed point degrades identically in both modes.
  EXPECT_FALSE(a.points.back().ok);
  EXPECT_EQ(a.points.back().error, b.points.back().error);
  EXPECT_EQ(a.points.back().error_code, b.points.back().error_code);
}

TEST(CheckpointParallel, ResumesFromSerialJournal) {
  const auto choices = small_sweep();
  CheckpointOptions first;
  first.journal_path = temp_path("dse_cross_resume.jsonl");
  std::remove(first.journal_path.c_str());
  const CheckpointedSweep serial = sweep_partitions_checkpointed(
      choices, tech::default_process(), {}, first);
  EXPECT_EQ(serial.provenance.computed, static_cast<int>(choices.size()));

  CheckpointOptions again = first;
  again.resume = true;
  again.jobs = 8;
  const CheckpointedSweep resumed = sweep_partitions_checkpointed(
      choices, tech::default_process(), {}, again);
  EXPECT_EQ(resumed.provenance.computed, 0);
  EXPECT_EQ(resumed.provenance.resumed, static_cast<int>(choices.size()));
  EXPECT_EQ(csv_of(serial.points), csv_of(resumed.points));
}

TEST(CheckpointParallel, RejectsZeroJobs) {
  // The executor validates its worker count the same way for DSE sweeps
  // and SEU campaigns.
  CheckpointOptions ckpt;
  ckpt.jobs = 0;
  try {
    sweep_partitions_checkpointed(small_sweep(), tech::default_process(), {},
                                  ckpt);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(CheckpointResume, ThrowsIoWhenJournalUnwritable) {
  CheckpointOptions ckpt;
  ckpt.journal_path = temp_path("no_such_dir/journal.jsonl");
  try {
    sweep_partitions_checkpointed(small_sweep(), tech::default_process(), {},
                                  ckpt);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST(Sweep, SickPointIsFlaggedNotFatal) {
  const auto process = tech::default_process();
  auto choices = small_sweep();
  PartitionChoice sick;
  sick.words = 128;
  sick.bits = 8;
  sick.brick_words = 24;  // does not divide 128
  choices.push_back(sick);

  const auto points = sweep_partitions_checkpointed(choices, process).points;
  ASSERT_EQ(points.size(), choices.size());
  for (std::size_t i = 0; i + 1 < points.size(); ++i)
    EXPECT_TRUE(points[i].ok) << points[i].error;
  const DsePoint& bad = points.back();
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_code, ErrorCode::kInvalidConfig);
  EXPECT_FALSE(bad.error.empty());
  // The CSV row carries the taxonomy code for downstream triage.
  const std::string csv = csv_of(points);
  EXPECT_NE(csv.find("invalid_config"), std::string::npos);
}

TEST(Fuzz, RandomConfigsOnlyThrowTypedErrors) {
  const auto process = tech::default_process();
  const tech::StdCellLib cells(process);
  const tech::BitcellKind kinds[] = {
      tech::BitcellKind::kSram6T, tech::BitcellKind::kSram8T,
      tech::BitcellKind::kCamNor10T, tech::BitcellKind::kEdram1T1C};
  Rng rng(123);
  int valid = 0, built = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SramConfig cfg;
    if (rng.below(2) == 0) {
      // Unconstrained garbage: negative, zero, and non-power-of-two shapes.
      cfg.words = static_cast<int>(rng.range(-4, 4096));
      cfg.bits = static_cast<int>(rng.range(-2, 80));
      cfg.banks = static_cast<int>(rng.range(-2, 64));
      cfg.brick_words = static_cast<int>(rng.range(-2, 256));
    } else {
      // Power-of-two-ish shapes so divisibility sometimes holds and the
      // fuzz also reaches the builder, not just validate().
      cfg.words = 1 << rng.below(13);
      cfg.bits = static_cast<int>(rng.range(1, 72));
      cfg.banks = 1 << rng.below(7);
      cfg.brick_words = 1 << rng.below(9);
    }
    cfg.spare_rows = static_cast<int>(rng.range(-1, 8));
    cfg.ecc = rng.below(2) == 0;
    cfg.bitcell = kinds[rng.below(4)];

    bool cfg_valid = false;
    try {
      cfg.validate();
      cfg_valid = true;
    } catch (const Error&) {
      // Typed rejection is the contract for garbage shapes.
    } catch (...) {
      FAIL() << "validate() threw a non-limsynth exception for "
             << cfg.words << "x" << cfg.bits << " banks=" << cfg.banks
             << " brick_words=" << cfg.brick_words;
    }
    if (!cfg_valid) continue;
    ++valid;
    // Elaborate a bounded subset of the valid shapes end-to-end; anything
    // the builder rejects must also surface as a typed Error.
    if (cfg.words > 512 || built >= 25) continue;
    try {
      build_sram(cfg, process, cells);
      ++built;
    } catch (const Error&) {
    } catch (...) {
      FAIL() << "build_sram threw a non-limsynth exception for "
             << cfg.name();
    }
  }
  // The ranges are chosen so the fuzz actually exercises both paths.
  EXPECT_GT(valid, 0);
  EXPECT_GT(built, 0);
}

}  // namespace
}  // namespace limsynth::lim
