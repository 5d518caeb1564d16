// Tests for the accelerator core simulators and chip models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>

#include "arch/chip.hpp"
#include "arch/cores.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/rng.hpp"

namespace limsynth::arch {
namespace {

spgemm::SparseMatrix random_matrix(int n, int nnz, std::uint64_t seed) {
  Rng rng(seed);
  return spgemm::gen_erdos_renyi(n, nnz, rng);
}

// Random rows x cols matrix with about `nnz` entries (duplicates merge).
spgemm::SparseMatrix random_rect(int rows, int cols, int nnz,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<int, int, double>> trips;
  for (int i = 0; i < nnz; ++i)
    trips.emplace_back(static_cast<int>(rng.range(0, rows - 1)),
                       static_cast<int>(rng.range(0, cols - 1)),
                       rng.uniform(-1.0, 1.0));
  return spgemm::SparseMatrix::from_triplets(rows, cols, std::move(trips));
}

CoreConfig make_config(int cam_entries, int col_stripe, int row_block) {
  CoreConfig cfg;
  cfg.cam_entries = cam_entries;
  cfg.blocking.col_stripe = col_stripe;
  cfg.blocking.row_block = row_block;
  return cfg;
}

// Every CoreStats field in declaration order: cycles, broadcasts,
// searches, inserts, spills, spilled_entries, pops, shift_cycles,
// fifo_loads, multiplies, output_entries, block_tasks, load_cycles.
using StatsRow = std::array<std::int64_t, 13>;

StatsRow row_of(const CoreStats& s) {
  return {s.cycles,       s.broadcasts, s.searches,       s.inserts,
          s.spills,       s.spilled_entries, s.pops,      s.shift_cycles,
          s.fifo_loads,   s.multiplies, s.output_entries, s.block_tasks,
          s.load_cycles};
}

// Runs both cores on a * b and compares every counter with the values the
// models produced when these tests were written. The counts are the
// modelled hardware's behaviour, so any host-side rewrite of the cores must
// reproduce them exactly.
void expect_pinned(const spgemm::SparseMatrix& a, const spgemm::SparseMatrix& b,
                   const CoreConfig& cfg, const StatsRow& lim,
                   const StatsRow& heap) {
  CoreStats lim_stats, heap_stats;
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, b);
  EXPECT_TRUE(lim_spgemm(a, b, cfg, &lim_stats).approx_equal(golden, 0.0));
  EXPECT_TRUE(heap_spgemm(a, b, cfg, &heap_stats).approx_equal(golden, 0.0));
  EXPECT_EQ(row_of(lim_stats), lim);
  EXPECT_EQ(row_of(heap_stats), heap);
}

// Both cores against the Gustavson reference, bit for bit, plus the
// counters every core must agree on whatever its micro-architecture.
void expect_matches_reference(const spgemm::SparseMatrix& a,
                              const spgemm::SparseMatrix& b,
                              const CoreConfig& cfg) {
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, b);
  const auto ceil_div = [](int x, int y) { return (x + y - 1) / y; };
  const std::int64_t tasks =
      static_cast<std::int64_t>(ceil_div(a.rows(), cfg.blocking.row_block)) *
      ceil_div(b.cols(), cfg.blocking.col_stripe);
  CoreStats lim_stats, heap_stats;
  const spgemm::SparseMatrix c_lim = lim_spgemm(a, b, cfg, &lim_stats);
  const spgemm::SparseMatrix c_heap = heap_spgemm(a, b, cfg, &heap_stats);
  for (const spgemm::SparseMatrix* c : {&c_lim, &c_heap}) {
    EXPECT_EQ(c->rows(), a.rows());
    EXPECT_EQ(c->cols(), b.cols());
    EXPECT_TRUE(c->approx_equal(golden, 0.0));
  }
  for (const CoreStats* s : {&lim_stats, &heap_stats}) {
    EXPECT_EQ(s->multiplies, a.flops_with(b));
    EXPECT_EQ(s->output_entries, golden.nnz());
    EXPECT_EQ(s->block_tasks, tasks);
    EXPECT_GE(s->cycles, 0);
  }
  EXPECT_EQ(lim_stats.searches, lim_stats.multiplies);
  EXPECT_GE(lim_stats.inserts, lim_stats.output_entries);
  EXPECT_LE(lim_stats.spilled_entries, lim_stats.inserts);
  EXPECT_EQ(heap_stats.pops, heap_stats.multiplies);
  EXPECT_EQ(heap_stats.fifo_loads, heap_stats.multiplies);
  EXPECT_EQ(heap_stats.shift_cycles % 2, 0);
}

class CoreCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(CoreCorrectness, BothCoresMatchReference) {
  const auto [n, nnz, seed] = GetParam();
  const spgemm::SparseMatrix a = random_matrix(n, nnz, seed);
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, a);
  CoreConfig cfg;
  CoreStats lim_stats, heap_stats;
  const spgemm::SparseMatrix c_lim = lim_spgemm(a, a, cfg, &lim_stats);
  const spgemm::SparseMatrix c_heap = heap_spgemm(a, a, cfg, &heap_stats);
  EXPECT_TRUE(c_lim.approx_equal(golden, 1e-9));
  EXPECT_TRUE(c_heap.approx_equal(golden, 1e-9));
  EXPECT_GT(lim_stats.cycles, 0);
  EXPECT_GT(heap_stats.cycles, 0);
  EXPECT_EQ(lim_stats.multiplies, a.flops_with(a));
  EXPECT_EQ(heap_stats.multiplies, a.flops_with(a));
  EXPECT_EQ(lim_stats.output_entries, golden.nnz());
  EXPECT_EQ(heap_stats.output_entries, golden.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoreCorrectness,
    ::testing::Values(std::tuple{64, 300, 1ull}, std::tuple{200, 1200, 2ull},
                      std::tuple{1500, 6000, 3ull},  // spans row blocks
                      std::tuple{100, 2500, 4ull},   // dense-ish
                      std::tuple{40, 40, 5ull}));    // near-diagonal

TEST(Cores, CrossBlockMatrixStillExact) {
  // Matrices larger than the 1024-row block and 32-column stripe.
  Rng rng(11);
  const spgemm::SparseMatrix a = spgemm::gen_rmat(11, 12000, 0.5, 0.2, 0.2, rng);
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, a);
  CoreConfig cfg;
  EXPECT_TRUE(lim_spgemm(a, a, cfg, nullptr).approx_equal(golden, 1e-9));
  EXPECT_TRUE(heap_spgemm(a, a, cfg, nullptr).approx_equal(golden, 1e-9));
}

TEST(Cores, CamOverflowSpillsButStaysCorrect) {
  // Columns with far more distinct rows than CAM entries.
  const spgemm::SparseMatrix a = random_matrix(100, 2500, 6);
  CoreConfig cfg;
  cfg.cam_entries = 4;  // force heavy spilling
  CoreStats stats;
  const auto c = lim_spgemm(a, a, cfg, &stats);
  EXPECT_GT(stats.spills, 0);
  EXPECT_GT(stats.spilled_entries, 0);
  EXPECT_TRUE(c.approx_equal(spgemm::multiply_reference(a, a), 1e-9));
}

TEST(Cores, BiggerCamSpillsLess) {
  const spgemm::SparseMatrix a = random_matrix(200, 4000, 7);
  CoreConfig small, big;
  small.cam_entries = 8;
  big.cam_entries = 64;
  CoreStats s_small, s_big;
  (void)lim_spgemm(a, a, small, &s_small);
  (void)lim_spgemm(a, a, big, &s_big);
  EXPECT_GT(s_small.spilled_entries, s_big.spilled_entries);
  EXPECT_GE(s_small.cycles, s_big.cycles);
}

TEST(Cores, HeapShiftsGrowWithMergeWidth) {
  // Wider columns (more lists) => more FIFO shifting per element.
  const spgemm::SparseMatrix narrow = random_matrix(512, 1024, 8);
  const spgemm::SparseMatrix wide = random_matrix(512, 8192, 8);
  CoreConfig cfg;
  CoreStats sn, sw;
  (void)heap_spgemm(narrow, narrow, cfg, &sn);
  (void)heap_spgemm(wide, wide, cfg, &sw);
  const double per_pop_n =
      static_cast<double>(sn.shift_cycles) / static_cast<double>(sn.pops);
  const double per_pop_w =
      static_cast<double>(sw.shift_cycles) / static_cast<double>(sw.pops);
  EXPECT_GT(per_pop_w, per_pop_n);
}

TEST(Cores, LimParallelismBeatsHeapOnWideColumns) {
  Rng rng(12);
  const spgemm::SparseMatrix a = spgemm::gen_contraction(512, 128, 12, 24, rng);
  CoreConfig cfg;
  CoreStats lim_stats, heap_stats;
  (void)lim_spgemm(a, a, cfg, &lim_stats);
  (void)heap_spgemm(a, a, cfg, &heap_stats);
  EXPECT_GT(heap_stats.cycles, 5 * lim_stats.cycles);
  EXPECT_GT(lim_stats.avg_active_columns(), 2.0);
}

TEST(Dram, StreamingBeatsRandomAccess) {
  // The whole point of the [12] sub-block layout.
  EXPECT_LT(dram_stream_cycles(10000), dram_random_cycles(10000));
  EXPECT_EQ(dram_stream_cycles(0), 0);
  // Streaming asymptote: within ~25% of words/bandwidth (activations add
  // one activation per row).
  const auto c = dram_stream_cycles(100000);
  EXPECT_NEAR(static_cast<double>(c), 100000 / kDramWordsPerCycle, 0.25 * c);
}

TEST(Dram, ActivationCostVisibleOnSmallBlocks) {
  const auto tiny = dram_stream_cycles(8);
  EXPECT_GT(tiny, 8 / static_cast<std::int64_t>(kDramWordsPerCycle));
}

TEST(Chip, ModelsHaveSection5Shape) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const ChipModel lim = build_lim_chip(process, cells);
  const ChipModel base = build_baseline_chip(process, cells);
  // Paper §5: LiM clock ~35% slower; LiM power per clock lower; LiM core
  // ~20% bigger.
  EXPECT_GT(lim.fmax, 200e6);
  EXPECT_LT(lim.fmax, base.fmax);
  EXPECT_GT(lim.fmax / base.fmax, 0.5);
  EXPECT_LT(lim.power(), base.power());
  EXPECT_GT(lim.core_area, base.core_area);
  EXPECT_LT(lim.core_area, 1.6 * base.core_area);
}

TEST(Chip, BenchmarkResultConsistency) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const ChipModel lim = build_lim_chip(process, cells);
  const spgemm::SparseMatrix a = random_matrix(256, 1500, 13);
  spgemm::SparseMatrix product;
  const BenchmarkResult res = run_benchmark(lim, true, a, CoreConfig{}, &product);
  EXPECT_NEAR(res.seconds, static_cast<double>(res.stats.cycles) / lim.fmax,
              1e-15);
  EXPECT_NEAR(res.joules,
              static_cast<double>(res.stats.cycles) * lim.energy_per_cycle,
              1e-20);
  EXPECT_TRUE(product.approx_equal(spgemm::multiply_reference(a, a), 1e-9));
}


// --- Pinned counters -----------------------------------------------------

TEST(PinnedStats, DefaultConfig) {
  const spgemm::SparseMatrix a = random_matrix(200, 1200, 2);
  expect_pinned(a, a, CoreConfig{},
                {14105, 4629, 7099, 6936, 326, 5216, 0, 0, 0, 7099, 6554, 7, 929},
                {73372, 0, 0, 0, 0, 0, 7099, 37440, 7099, 7099, 6554, 7, 929});
}

TEST(PinnedStats, OneEntryCamOddStripesAndBlocks) {
  const spgemm::SparseMatrix a = random_matrix(250, 1500, 3);
  expect_pinned(a, a, make_config(1, 7, 100),
                {25174, 8354, 8912, 8877, 8130, 8130, 0, 0, 0, 8912, 8274, 108, 5589},
                {76751, 0, 0, 0, 0, 0, 8912, 29878, 8912, 8912, 8274, 108, 5589});
}

TEST(PinnedStats, WideCamWideStripes) {
  const spgemm::SparseMatrix a = random_matrix(200, 4000, 7);
  expect_pinned(
      a, a, make_config(64, 64, 1024),
      {87194, 13372, 71985, 62985, 878, 56192, 0, 0, 0, 71985, 33453, 4, 2397},
      {1555654, 0, 0, 0, 0, 0, 71985, 1230654, 71985, 71985, 33453, 4, 2397});
}

TEST(PinnedStats, ErdosRenyiSpansRowBlocks) {
  const spgemm::SparseMatrix a = random_matrix(1500, 6000, 3);
  expect_pinned(
      a, a, CoreConfig{},
      {53328, 23149, 24161, 24041, 274, 4384, 0, 0, 0, 24161, 24021, 94, 8255},
      {185089, 0, 0, 0, 0, 0, 24161, 57336, 24161, 24161, 24021, 94, 8255});
}

TEST(PinnedStats, RmatSpansRowBlocks) {
  Rng rng(11);
  const spgemm::SparseMatrix a = spgemm::gen_rmat(11, 12000, 0.5, 0.2, 0.2, rng);
  expect_pinned(a, a, CoreConfig{},
                {567669, 170060, 297756, 295805, 16985, 271760, 0, 0, 0, 297756,
                 214306, 128, 14531},
                {8870081, 0, 0, 0, 0, 0, 297756, 7446656, 297756, 297756, 214306,
                 128, 14531});
}

TEST(PinnedStats, ContractionSpansRowBlocks) {
  Rng rng(12);
  const spgemm::SparseMatrix a = spgemm::gen_contraction(1280, 128, 12, 24, rng);
  expect_pinned(
      a, a, CoreConfig{},
      {22824, 4592, 129341, 14592, 0, 0, 0, 0, 0, 129341, 14592, 80, 14084},
      {782779, 0, 0, 0, 0, 0, 129341, 233432, 129341, 129341, 14592, 80, 14084});
}

TEST(PinnedStats, RectangularOperands) {
  const spgemm::SparseMatrix a = random_rect(150, 90, 700, 21);
  const spgemm::SparseMatrix b = random_rect(90, 170, 800, 22);
  expect_pinned(
      a, b, make_config(3, 20, 64),
      {13314, 3905, 5944, 5854, 1621, 4863, 0, 0, 0, 5944, 5299, 27, 1879},
      {48148, 0, 0, 0, 0, 0, 5944, 17440, 5944, 5944, 5299, 27, 1879});
}

TEST(PinnedStats, DenseBlocksMergeWideBuckets) {
  // Up to 64 lists meet in one output row, and blocks of 200 rows cut the
  // 64-row dense blocks, so the heap core ties many heads per row.
  Rng rng(13);
  const spgemm::SparseMatrix a = spgemm::gen_block_diagonal(256, 64, rng);
  expect_pinned(a, a, make_config(16, 32, 200),
                {528057, 22870, 510877, 494999, 30767, 492272, 0, 0, 0, 510877,
                 16384, 16, 10707},
                {12238576, 0, 0, 0, 0, 0, 510877, 10161182, 510877, 510877,
                 16384, 16, 10707});
}

TEST(PinnedStats, UfSuiteErMid) {
  // A Fig. 6 matrix: 4 row blocks x 128 stripes = 512 block tasks, so the
  // per-task counters and tiles are merged at a realistic task count.
  const std::vector<spgemm::Benchmark> suite = spgemm::uf_analog_suite();
  const auto it = std::find_if(suite.begin(), suite.end(),
                               [](const spgemm::Benchmark& bench) {
                                 return bench.name == "er_mid_syn";
                               });
  ASSERT_NE(it, suite.end());
  expect_pinned(it->matrix, it->matrix, CoreConfig{},
                {1030010, 392647, 408292, 405907, 16643, 266288, 0, 0, 0,
                 408292, 403285, 512, 77941},
                {4759307, 0, 0, 0, 0, 0, 408292, 2589186, 408292, 408292,
                 403285, 512, 77941});
}

// --- Gustavson properties on degenerate inputs ---------------------------

TEST(CoreProperties, NoNonzeros) {
  const spgemm::SparseMatrix z(40, 40);
  expect_matches_reference(z, z, CoreConfig{});
  expect_matches_reference(z, random_matrix(40, 200, 31), make_config(2, 7, 9));
  expect_matches_reference(random_matrix(40, 200, 32), z, make_config(2, 7, 9));
}

TEST(CoreProperties, OneByOne) {
  const spgemm::SparseMatrix one =
      spgemm::SparseMatrix::from_triplets(1, 1, {{0, 0, -1.5}});
  expect_matches_reference(one, one, CoreConfig{});
  expect_matches_reference(one, one, make_config(1, 1, 1));
  expect_matches_reference(spgemm::SparseMatrix(1, 1), one, CoreConfig{});
}

TEST(CoreProperties, EmptyRowsAndColumns) {
  // Only rows divisible by 3 and columns divisible by 4 hold entries, so
  // whole blocks, stripes, A columns and B columns are empty.
  Rng rng(33);
  std::vector<std::tuple<int, int, double>> trips;
  for (int i = 0; i < 400; ++i)
    trips.emplace_back(3 * static_cast<int>(rng.range(0, 29)),
                       4 * static_cast<int>(rng.range(0, 22)),
                       rng.uniform(-1.0, 1.0));
  const spgemm::SparseMatrix a =
      spgemm::SparseMatrix::from_triplets(90, 90, std::move(trips));
  expect_matches_reference(a, a, CoreConfig{});
  expect_matches_reference(a, a, make_config(2, 5, 8));
}

TEST(CoreProperties, RectangularShapes) {
  const std::tuple<int, int, int> shapes[] = {
      {1, 50, 60}, {50, 1, 60}, {60, 50, 1}, {37, 200, 11}, {300, 20, 45}};
  std::uint64_t seed = 40;
  for (const auto& [m, k, p] : shapes) {
    const spgemm::SparseMatrix a = random_rect(m, k, 3 * (m + k), ++seed);
    const spgemm::SparseMatrix b = random_rect(k, p, 3 * (k + p), ++seed);
    expect_matches_reference(a, b, CoreConfig{});
    expect_matches_reference(a, b, make_config(3, 4, 16));
  }
}

TEST(CoreProperties, BlocksAndStripesThatDoNotDivideN) {
  const spgemm::SparseMatrix a = random_matrix(97, 900, 50);
  for (const auto& [rb, cs] : {std::pair{7, 5}, std::pair{96, 31},
                               std::pair{50, 96}, std::pair{200, 200}})
    expect_matches_reference(a, a, make_config(4, cs, rb));
}

TEST(CoreProperties, CamOverflowOnEveryInsert) {
  const spgemm::SparseMatrix a = random_matrix(120, 1500, 51);
  CoreStats stats;
  (void)lim_spgemm(a, a, make_config(1, 32, 1024), &stats);
  // With one CAM entry every insert after a column's first spills.
  EXPECT_GT(stats.spills, stats.inserts / 2);
  EXPECT_EQ(stats.spilled_entries, stats.spills);
  expect_matches_reference(a, a, make_config(1, 32, 1024));
}

TEST(CoreProperties, RandomShapesAndConfigs) {
  Rng rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    const int m = static_cast<int>(rng.range(1, 120));
    const int k = static_cast<int>(rng.range(1, 120));
    const int p = static_cast<int>(rng.range(1, 120));
    const int nnz_a = static_cast<int>(rng.range(0, 6 * m));
    const int nnz_b = static_cast<int>(rng.range(0, 6 * p));
    const spgemm::SparseMatrix a = random_rect(m, k, nnz_a, 1000 + trial);
    const spgemm::SparseMatrix b = random_rect(k, p, nnz_b, 2000 + trial);
    const int cam = static_cast<int>(rng.range(1, 20));
    const int stripe = static_cast<int>(rng.range(1, 40));
    const int block = static_cast<int>(rng.range(1, 130));
    expect_matches_reference(a, b, make_config(cam, stripe, block));
  }
}

}  // namespace
}  // namespace limsynth::arch
