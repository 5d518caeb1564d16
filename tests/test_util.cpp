#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/watchdog.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace limsynth {
namespace {

TEST(Error, CheckThrowsWithLocation) {
  try {
    LIMS_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math broke: 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(LIMS_CHECK(2 + 2 == 4));
}

TEST(Diag, ErrorCarriesCodeAndContextStack) {
  try {
    DIAG_CONTEXT("characterize brick 64x16");
    DIAG_CONTEXT(std::string("grid point ") + std::to_string(3));
    throw Error(ErrorCode::kNumericalFault, "voltage went NaN");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericalFault);
    const std::string what = e.what();
    EXPECT_NE(what.find("voltage went NaN"), std::string::npos);
    EXPECT_NE(what.find("characterize brick 64x16"), std::string::npos);
    EXPECT_NE(what.find("grid point 3"), std::string::npos);
    EXPECT_EQ(e.context(), "characterize brick 64x16 > grid point 3");
  }
}

TEST(Diag, ContextPopsOnScopeExit) {
  { DIAG_CONTEXT("stale frame"); }
  try {
    throw Error("plain failure");
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("stale frame"), std::string::npos);
    EXPECT_TRUE(e.context().empty());
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(Diag, CheckFailuresClassifyAsInvalidConfig) {
  try {
    LIMS_CHECK(false);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(Diag, CheckFailureNamesTheFileFromTheRepositoryRoot) {
  // The message must not depend on the checkout directory: it lands in
  // DSE journals and CSV error cells.
  try {
    LIMS_CHECK(false);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("tests/test_util.cpp:", 0), 0u)
        << e.what();
  }
}

TEST(Diag, LimsFailStreamsAndTypes) {
  try {
    LIMS_FAIL(ErrorCode::kIo, "cannot open " << "journal.jsonl");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("cannot open journal.jsonl"),
              std::string::npos);
  }
}

TEST(Diag, CodeNamesRoundTripAndExitCodesAreStable) {
  const ErrorCode all[] = {ErrorCode::kInternal, ErrorCode::kInvalidConfig,
                           ErrorCode::kNonConvergence,
                           ErrorCode::kNumericalFault,
                           ErrorCode::kResourceExhausted, ErrorCode::kIo,
                           ErrorCode::kStaleBinding, ErrorCode::kInterrupted};
  for (ErrorCode code : all) {
    ErrorCode parsed = ErrorCode::kInternal;
    EXPECT_TRUE(error_code_from_name(error_code_name(code), &parsed));
    EXPECT_EQ(parsed, code);
  }
  EXPECT_FALSE(error_code_from_name("segfault", nullptr));
  // Exit code 9 (`quarantined`) is retired: the name no longer parses.
  EXPECT_FALSE(error_code_from_name("quarantined", nullptr));
  // Documented CLI contract (README): these values must never shift.
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kInvalidConfig), 2);
  EXPECT_EQ(exit_code_for(ErrorCode::kNonConvergence), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kNumericalFault), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kResourceExhausted), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 6);
  EXPECT_EQ(exit_code_for(ErrorCode::kStaleBinding), 7);
  EXPECT_EQ(exit_code_for(ErrorCode::kInterrupted), 8);
}

TEST(Watchdog, DisabledBudgetNeverFires) {
  const Watchdog dog("idle", 0.0);
  EXPECT_FALSE(dog.enabled());
  EXPECT_FALSE(dog.expired());
  EXPECT_NO_THROW(dog.check());
}

TEST(Watchdog, TinyBudgetFiresAsResourceExhausted) {
  const Watchdog dog("settle fixpoint", 1e-9);
  while (!dog.expired()) {
  }
  try {
    dog.check();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(std::string(e.what()).find("settle fixpoint"),
              std::string::npos);
  }
}

TEST(Units, FormatSiPicoseconds) {
  EXPECT_EQ(units::format_si(247e-12, "s"), "247 ps");
  EXPECT_EQ(units::format_si(0.54e-12, "J"), "540 fJ");
  EXPECT_EQ(units::format_si(1.2, "V"), "1.20 V");
  EXPECT_EQ(units::format_si(725e6, "Hz"), "725 MHz");
  EXPECT_EQ(units::format_si(0.0, "W"), "0 W");
}

TEST(Units, FormatSiNegative) {
  EXPECT_EQ(units::format_si(-3.3e-3, "W"), "-3.30 mW");
}

TEST(Units, PercentError) {
  EXPECT_DOUBLE_EQ(units::percent_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(units::percent_error(95.0, 100.0), -5.0);
  EXPECT_DOUBLE_EQ(units::percent_error(0.0, 0.0), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(99);
  int counts[5] = {};
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (int c : counts) {
    EXPECT_GT(c, 9400);
    EXPECT_LT(c, 10600);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.03);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Stats, OnlineBasics) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Table, RendersAlignedRows) {
  Table t({"cfg", "delay"});
  t.add_row({"A", "247 ps"});
  t.add_separator();
  t.add_row({"B", "1.2 ns"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| cfg"), std::string::npos);
  EXPECT_NE(s.find("247 ps"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, TrailingSeparatorDoesNotDoubleTheClosingRule) {
  Table t({"cfg", "delay"});
  t.add_row({"A", "247 ps"});
  t.add_separator();
  std::ostringstream os;
  t.print(os);
  const std::string rule = "+-----+--------+\n";
  const std::string row = "| A   | 247 ps |\n";
  EXPECT_EQ(os.str(), rule + "| cfg |  delay |\n" + rule + row + rule);
}

TEST(Table, RejectsBadArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, StrFormat) {
  EXPECT_EQ(strformat("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(strformat("x%dy", 7), "x7y");
}

TEST(Csv, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, NumericRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row("lbl", {1.5, 2.0});
  EXPECT_EQ(os.str(), "lbl,1.5,2\n");
}

TEST(Stats, WilsonIntervalMatchesKnownValues) {
  // 50/100 at 95%: the classic textbook interval.
  const WilsonInterval w = wilson_interval(50, 100);
  EXPECT_NEAR(w.lo, 0.4038, 5e-4);
  EXPECT_NEAR(w.hi, 0.5962, 5e-4);
}

TEST(Stats, WilsonStaysHonestAtTheBoundaries) {
  const WilsonInterval none = wilson_interval(0, 100);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);   // zero observed is not zero rate
  EXPECT_LT(none.hi, 0.05);
  const WilsonInterval all = wilson_interval(100, 100);
  EXPECT_NEAR(all.hi, 1.0, 1e-12);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_GT(all.lo, 0.95);
  // Zero trials: the vacuous interval.
  const WilsonInterval vac = wilson_interval(0, 0);
  EXPECT_EQ(vac.lo, 0.0);
  EXPECT_EQ(vac.hi, 1.0);
}

TEST(Stats, WilsonTightensWithSampleSizeAndOverlapIsSymmetric) {
  const WilsonInterval small = wilson_interval(5, 20);
  const WilsonInterval big = wilson_interval(250, 1000);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
  EXPECT_TRUE(small.overlaps(big));
  EXPECT_TRUE(big.overlaps(small));
  const WilsonInterval high = wilson_interval(900, 1000);
  EXPECT_FALSE(big.overlaps(high));
  EXPECT_FALSE(high.overlaps(big));
}

std::string fs_temp(const std::string& leaf) {
  return testing::TempDir() + leaf;
}

TEST(Crc64, MatchesStandardCheckVector) {
  // CRC-64/XZ check vector: the one every independent implementation of
  // this polynomial must reproduce.
  EXPECT_EQ(fs::crc64(std::string("123456789")), 0x995dc9bbdf1939faULL);
  EXPECT_EQ(fs::crc64(std::string()), 0u);
  // Any single flipped bit changes the sum (the store's whole premise).
  std::string data(64, '\x5a');
  const std::uint64_t base = fs::crc64(data);
  data[17] = static_cast<char>(data[17] ^ 0x08);
  EXPECT_NE(fs::crc64(data), base);
}

TEST(Fsio, AtomicWriteRoundTripsAndReplaces) {
  fs::Fs& io = fs::Fs::real();
  const std::string path = fs_temp("fsio_atomic.bin");
  const std::string payload("binary\0payload\n\xff", 16);
  ASSERT_TRUE(io.write_file_atomic(path, payload).ok());
  std::string back;
  ASSERT_TRUE(io.read_file(path, &back).ok());
  EXPECT_EQ(back, payload);
  // Replacing is atomic and leaves no temp litter in the directory.
  ASSERT_TRUE(io.write_file_atomic(path, "v2").ok());
  ASSERT_TRUE(io.read_file(path, &back).ok());
  EXPECT_EQ(back, "v2");
  io.remove_file(path);
}

TEST(Fsio, MissingFileReadsAsNotFound) {
  std::string out;
  const fs::IoStatus st =
      fs::Fs::real().read_file(fs_temp("fsio_nope.bin"), &out);
  EXPECT_EQ(st.err, fs::IoErr::kNotFound);
}

TEST(Fsio, MakeDirsListAndRemoveTree) {
  fs::Fs& io = fs::Fs::real();
  const std::string root = fs_temp("fsio_tree");
  std::filesystem::remove_all(root);
  ASSERT_TRUE(io.make_dirs(root + "/a/b").ok());
  ASSERT_TRUE(io.make_dirs(root + "/a/b").ok());  // idempotent
  ASSERT_TRUE(io.write_file_atomic(root + "/a/x", "x").ok());
  ASSERT_TRUE(io.write_file_atomic(root + "/a/b/y", "y").ok());
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(root + "/a"))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"b", "x"}));  // no temp litter
  std::filesystem::remove_all(root);
  EXPECT_FALSE(io.exists(root));
}

TEST(Fsio, ExclusiveLockReportsBusyToSecondHolder) {
  fs::Fs& io = fs::Fs::real();
  const std::string path = fs_temp("fsio_lock");
  {
    const fs::ScopedLock first(io, path);
    ASSERT_TRUE(first.held());
    const fs::ScopedLock second(io, path);
    EXPECT_FALSE(second.held());
    EXPECT_EQ(second.status().err, fs::IoErr::kBusy);
  }
  // Released on scope exit: a new claimant succeeds.
  const fs::ScopedLock again(io, path);
  EXPECT_TRUE(again.held());
  io.remove_file(path);
}

TEST(FaultFs, InjectsEachFailureClassThenRecovers) {
  fs::FaultFs faulty(fs::Fs::real());
  const std::string path = fs_temp("faultfs_probe.bin");

  faulty.fail_writes_nospace = 1;
  EXPECT_EQ(faulty.write_file_atomic(path, "x").err, fs::IoErr::kNoSpace);
  EXPECT_FALSE(faulty.exists(path));  // failed write leaves nothing behind

  faulty.fail_writes_access = 1;
  EXPECT_EQ(faulty.write_file_atomic(path, "x").err, fs::IoErr::kAccess);

  // Injections are consumed: the next write goes through untouched.
  ASSERT_TRUE(faulty.write_file_atomic(path, "payload").ok());

  faulty.truncate_read_to = 3;
  std::string out;
  ASSERT_TRUE(faulty.read_file(path, &out).ok());
  EXPECT_EQ(out, "pay");

  faulty.corrupt_read_bit = 5;
  ASSERT_TRUE(faulty.read_file(path, &out).ok());
  EXPECT_NE(out, "payload");
  ASSERT_TRUE(faulty.read_file(path, &out).ok());
  EXPECT_EQ(out, "payload");  // one-shot

  faulty.fail_locks_busy = 1;
  const fs::ScopedLock busy(faulty, path + ".lock");
  EXPECT_EQ(busy.status().err, fs::IoErr::kBusy);

  EXPECT_GE(faulty.writes, 3u);
  EXPECT_GE(faulty.reads, 3u);
  faulty.remove_file(path);
}

TEST(FaultFs, TornWritePersistsPrefixAndClaimsSuccess) {
  fs::FaultFs faulty(fs::Fs::real());
  const std::string path = fs_temp("faultfs_torn.bin");
  faulty.torn_write_bytes = 4;
  // The lying-disk model: success is reported but only a prefix landed —
  // exactly the case only an end-to-end checksum can catch.
  ASSERT_TRUE(faulty.write_file_atomic(path, "0123456789").ok());
  std::string out;
  ASSERT_TRUE(faulty.read_file(path, &out).ok());
  EXPECT_EQ(out, "0123");
  faulty.remove_file(path);
}

TEST(JournalText, SplitsLinesAndFlagsTornTail) {
  const std::string path = fs_temp("journal_text.jsonl");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "{\"a\":1}\r\n\n{\"b\":2}\n{\"torn\":";  // CRLF, blank, torn tail
  }
  jsonl::JournalText text;
  ASSERT_TRUE(jsonl::read_journal_text(path, &text));
  ASSERT_EQ(text.lines.size(), 2u);
  EXPECT_EQ(text.lines[0], "{\"a\":1}");  // '\r' stripped
  EXPECT_EQ(text.lines[1], "{\"b\":2}");
  EXPECT_TRUE(text.torn_tail);
  std::remove(path.c_str());
}

TEST(JournalText, CompleteFileHasNoTornTail) {
  const std::string path = fs_temp("journal_clean.jsonl");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "{\"a\":1}\n";
  }
  jsonl::JournalText text;
  ASSERT_TRUE(jsonl::read_journal_text(path, &text));
  EXPECT_EQ(text.lines.size(), 1u);
  EXPECT_FALSE(text.torn_tail);
  EXPECT_FALSE(jsonl::read_journal_text(fs_temp("journal_missing.jsonl"),
                                        &text));
  std::remove(path.c_str());
}

TEST(JournaledRun, JournalsInSlotOrderAndResumesTheLastLinePerKey) {
  const std::string path = fs_temp("journaled_run.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  // Lines are "key=value"; a slot's value is 10 * its index.
  const auto parse = [](const std::string& line, std::string* key, int* v) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    *key = line.substr(0, eq);
    *v = std::stoi(line.substr(eq + 1));
    return true;
  };
  const auto format = [](const std::string& key, int v) {
    return key + "=" + std::to_string(v) + "\n";
  };
  // Two units, the later slots first, so a worker finishes them early.
  const auto plan = [](const std::vector<std::size_t>& todo) {
    std::vector<std::vector<std::size_t>> units(1);
    for (const std::size_t i : todo) {
      if (i >= 3) units.push_back({i});
      else units.front().push_back(i);
    }
    std::reverse(units.begin(), units.end());
    return units;
  };
  const auto run = [](const std::vector<std::size_t>& unit) {
    std::vector<int> out;
    for (const std::size_t i : unit) out.push_back(10 * static_cast<int>(i));
    return out;
  };
  jsonl::RunOptions opt;
  opt.journal_path = path;
  opt.jobs = 4;
  const auto first =
      jsonl::run_journaled<int>("test", opt, keys, parse, format, plan, run);
  EXPECT_EQ(first.records, (std::vector<int>{0, 10, 20, 30, 40}));
  EXPECT_EQ(first.provenance.computed, 5);
  const std::string want = "a=0\nb=10\nc=20\nd=30\ne=40\n";
  std::string text;
  ASSERT_TRUE(fs::Fs::real().read_file(path, &text).ok());
  EXPECT_EQ(text, want);

  // Append a corrupt line, a stale key and a newer line for "b": resume
  // takes the last line per key and journals nothing new.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "garbage\nz=1\nb=11\n";
  }
  opt.resume = true;
  const auto resumed =
      jsonl::run_journaled<int>("test", opt, keys, parse, format, plan, run);
  EXPECT_EQ(resumed.records, (std::vector<int>{0, 11, 20, 30, 40}));
  EXPECT_EQ(resumed.provenance.resumed, 5);
  EXPECT_EQ(resumed.provenance.computed, 0);
  EXPECT_EQ(resumed.provenance.malformed, 1);
  EXPECT_EQ(resumed.provenance.stale, 1);
  ASSERT_TRUE(fs::Fs::real().read_file(path, &text).ok());
  EXPECT_EQ(text, want + "garbage\nz=1\nb=11\n");
  std::remove(path.c_str());
}

TEST(JournaledRun, StopKeepsOnlyTheJournaledPrefix) {
  const std::string path = fs_temp("journaled_stop.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> keys = {"a", "b", "c"};
  const auto parse = [](const std::string&, std::string*, int*) {
    return false;
  };
  const auto format = [](const std::string& key, int) { return key + "\n"; };
  // Slot "a" is claimed last: when the cancel flag is raised after the
  // first unit, slots b and c are done but not journaled.
  const auto plan = [](const std::vector<std::size_t>&) {
    return std::vector<std::vector<std::size_t>>{{1, 2}, {0}};
  };
  std::atomic<bool> cancel{false};
  const auto run = [&](const std::vector<std::size_t>& unit) {
    cancel.store(true);
    return std::vector<int>(unit.size(), 7);
  };
  jsonl::RunOptions opt;
  opt.journal_path = path;
  opt.cancel = &cancel;
  const auto cut =
      jsonl::run_journaled<int>("test", opt, keys, parse, format, plan, run);
  EXPECT_TRUE(cut.provenance.interrupted);
  EXPECT_TRUE(cut.records.empty());
  EXPECT_EQ(cut.provenance.computed, 0);
  std::string text;
  ASSERT_TRUE(fs::Fs::real().read_file(path, &text).ok());
  EXPECT_EQ(text, "");
  std::remove(path.c_str());
}

// ------------------------------------------------------- parallel_for

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (int jobs : {1, 4, 1000}) {
    std::vector<std::atomic<int>> runs(100);
    parallel_for(runs.size(), jobs,
                 [&](std::size_t i) { return ++runs[i] > 0; });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1) << "jobs " << jobs;
  }
}

TEST(ParallelFor, WorkRunsOffTheCallersThreadEvenAtOneJob) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  parallel_for(8, 1, [&](std::size_t) {
    on_caller += std::this_thread::get_id() == caller;
    return true;
  });
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterJoin) {
  std::atomic<int> ran{0}, active{0};
  const auto throw_at_3 = [&](std::size_t i) -> bool {
    ++ran;
    if (i == 3) throw std::runtime_error("index 3");
    return true;
  };
  EXPECT_THROW(parallel_for(1000, 1, throw_at_3), std::runtime_error);
  EXPECT_EQ(ran.load(), 4);  // the throw stopped further claims
  // Every item throws; the one that surfaces arrives after every worker
  // has left its item.
  const auto slow_throw = [&](std::size_t) -> bool {
    ++active;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    --active;
    throw std::runtime_error("item");
  };
  EXPECT_THROW(parallel_for(1000, 4, slow_throw), std::runtime_error);
  EXPECT_EQ(active.load(), 0);
}

TEST(ParallelFor, FalseStopsFurtherClaims) {
  std::atomic<int> ran{0};
  parallel_for(1000, 1, [&](std::size_t i) {
    ++ran;
    return i < 9;
  });
  EXPECT_EQ(ran.load(), 10);  // indices 0..9, claimed in order
  ran = 0;
  parallel_for(1000, 4, [&](std::size_t) {
    ++ran;
    return false;
  });
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 4);  // no worker claims again after a false
}

// ------------------------------------------------------------- args

const args::Command kDemo{"demo",
                          {{"kind", args::Type::kWord, "red|green|blue"},
                           {"count", args::Type::kInt},
                           {.name = "scale",
                            .type = args::Type::kDouble,
                            .optional = true},
                           {"--seed", args::Type::kU64, "S"},
                           {"--jobs", args::Type::kInt, "N"},
                           {"--rate", args::Type::kDouble, "R"},
                           {"--out", args::Type::kString, "FILE"},
                           {"--check"}}};

args::Args parse_demo(std::vector<const char*> tokens) {
  tokens.insert(tokens.begin(), "demo");
  return args::parse(kDemo, static_cast<int>(tokens.size()), tokens.data());
}

/// The message `tokens` are rejected with (after checking the code), or
/// "" when they parse.
std::string rejection(std::vector<const char*> tokens) {
  try {
    parse_demo(std::move(tokens));
    return "";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    return e.what();
  }
}

bool contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

TEST(Args, ReadsTypedValuesAndFallbacks) {
  const args::Args a = parse_demo(
      {"green", "3", "--seed", "7", "--check", "--out", "f.csv", "--rate",
       "1e3"});
  EXPECT_EQ(a.get_choice("kind"), 1);
  EXPECT_EQ(a.get_int("count"), 3);
  EXPECT_EQ(a.get_double("scale", 1.5), 1.5);
  EXPECT_EQ(a.get_u64("--seed", 1), 7u);
  EXPECT_EQ(a.get_int("--jobs", 4), 4);
  EXPECT_EQ(a.get_double("--rate", 0.0), 1000.0);
  EXPECT_EQ(a.get_string("--out"), "f.csv");
  EXPECT_TRUE(a.has("--check"));
  EXPECT_FALSE(a.has("--jobs"));
  // Flags may come before, between and after positionals.
  const args::Args b = parse_demo({"--jobs", "2", "red", "-4", "0.25"});
  EXPECT_EQ(b.get_int("--jobs", 1), 2);
  EXPECT_EQ(b.get_int("count"), -4);
  EXPECT_EQ(b.get_double("scale", 1.0), 0.25);
}

TEST(Args, RejectsUnknownFlag) {
  const std::string why = rejection({"red", "1", "--sed", "9"});
  EXPECT_TRUE(contains(why, "demo")) << why;
  EXPECT_TRUE(contains(why, "unknown flag --sed")) << why;
}

TEST(Args, RejectsDuplicateFlag) {
  const std::string why = rejection({"red", "1", "--seed", "3", "--seed", "4"});
  EXPECT_TRUE(contains(why, "demo: duplicate flag --seed")) << why;
  EXPECT_TRUE(contains(rejection({"red", "1", "--check", "--check"}),
                       "duplicate flag --check"));
}

TEST(Args, RejectsValueFlagWithoutValue) {
  for (const auto& tokens : std::vector<std::vector<const char*>>{
           {"red", "1", "--jobs"}, {"red", "1", "--jobs", "--check"}}) {
    const std::string why = rejection(tokens);
    EXPECT_TRUE(contains(why, "demo: --jobs needs a value")) << why;
  }
}

TEST(Args, RejectsMalformedValues) {
  const std::pair<const char*, const char*> bad[] = {
      {"--jobs", "four"},        {"--jobs", "1e3"},
      {"--jobs", "2.9"},         {"--jobs", "99999999999"},
      {"--jobs", ""},            {"--seed", "-1"},
      {"--seed", "18446744073709551616"},
      {"--seed", "7x"},          {"--rate", "inf"},
      {"--rate", "nan"},         {"--rate", "1.5x"},
      {"--rate", "1e999"},
  };
  for (const auto& [flag, value] : bad) {
    const std::string why = rejection({"red", "1", flag, value});
    EXPECT_TRUE(contains(why, std::string("demo: ") + flag + ": '" + value +
                                  "'"))
        << flag << " " << value << ": " << why;
  }
  const std::string why = rejection({"red", "8x"});
  EXPECT_TRUE(contains(why, "demo: <count>: '8x' is not an int")) << why;
}

TEST(Args, RejectsTooFewOrTooManyPositionals) {
  EXPECT_TRUE(contains(rejection({"red"}), "demo: missing <count>"));
  EXPECT_TRUE(contains(rejection({"red", "1", "2", "7"}),
                       "demo: unexpected positional '7'"));
}

TEST(Args, WordPositionalAcceptsListedWordsOnly) {
  EXPECT_EQ(parse_demo({"blue", "1"}).get_choice("kind"), 2);
  const std::string why = rejection({"purple", "1"});
  EXPECT_TRUE(contains(why, "'purple' is not one of red|green|blue")) << why;
  EXPECT_TRUE(contains(rejection({"re", "1"}), "'re'"));
}

TEST(Args, U64IsExactOverTheFullRange) {
  EXPECT_EQ(parse_demo({"red", "1", "--seed", "9007199254740993"})
                .get_u64("--seed"),
            9007199254740993ull);
  EXPECT_EQ(parse_demo({"red", "1", "--seed", "18446744073709551615"})
                .get_u64("--seed"),
            18446744073709551615ull);
}

TEST(Args, UndeclaredOrMistypedReadIsAProgrammingError) {
  const args::Args a = parse_demo({"red", "1"});
  EXPECT_THROW(a.get_int("--nope", 0), Error);
  EXPECT_THROW(a.get_int("--seed", 0), Error);  // declared as kU64
  EXPECT_THROW(a.has("nope"), Error);
}

TEST(Args, GlobalsAreAcceptedAlongsideTheCommand) {
  const args::Arg globals[] = {{"--cache-dir", args::Type::kString, "DIR"}};
  const char* argv[] = {"demo", "red", "1", "--cache-dir", "store"};
  const args::Args a = args::parse(kDemo, 5, argv, globals);
  EXPECT_EQ(a.get_string("--cache-dir"), "store");
  EXPECT_TRUE(contains(rejection({"red", "1", "--cache-dir", "store"}),
                       "unknown flag --cache-dir"));
}

TEST(Args, UsageListsEveryDeclaredArgument) {
  const args::Arg globals[] = {{"--cache-dir", args::Type::kString, "DIR"}};
  const args::Command commands[] = {kDemo, {"other", {{"n", args::Type::kInt}}}};
  const std::string text = args::usage("prog", commands, globals);
  for (const char* part :
       {"usage:", "prog demo <red|green|blue> <count> [scale]", "[--seed S]",
        "[--jobs N]", "[--rate R]", "[--out FILE]", "[--check]",
        "prog other <n>", "[--cache-dir DIR]"})
    EXPECT_TRUE(contains(text, part)) << part << " missing from\n" << text;
}

}  // namespace
}  // namespace limsynth
