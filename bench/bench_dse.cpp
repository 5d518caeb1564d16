// DSE executor benchmark (Fig. 4c-style sweep): serial vs --jobs N,
// brick-cache cold vs warm, and the on-disk brick store across a
// simulated process restart.
//
// Three sweeps over the same partition list:
//  A. Parallel scaling — yield sampling makes every point expensive, and
//     the sweep runs once with jobs=1 and once with jobs=8. Journals and
//     Pareto fronts must be byte-/element-identical (the executor's
//     determinism contract); wall-clock speedup depends on the machine's
//     core count and is reported, not asserted.
//  B. Cache cold vs warm — with the yield axis off, brick compilation +
//     characterization dominates, so a second pass over the same shapes
//     should be served almost entirely from the BrickCache.
//  C. Disk store cold vs warm — a BrickStore is attached, the first pass
//     populates it, then the in-memory cache is cleared (clear() keeps
//     the store: a process restart on a warm disk). The second pass must
//     avoid nearly every brick compile by deserializing from disk.
//
// Writes BENCH_dse.json. With --check, exits nonzero when determinism or
// cache effectiveness regresses (thresholds are conservative so the check
// is meaningful on a single-core CI runner).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "brick/cache.hpp"
#include "brick/store.hpp"
#include "lim/checkpoint.hpp"
#include "lim/dse.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"

using namespace limsynth;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The sweep: every viable brick shape for a grid of array sizes, plus a
/// few deliberately broken shapes so failed-point error records are part
/// of the determinism check.
std::vector<lim::PartitionChoice> make_choices() {
  std::vector<lim::PartitionChoice> choices;
  for (int words : {256, 512, 1024, 2048}) {
    for (int bits : {8, 16, 32}) {
      for (int bw : {8, 16, 32, 64})
        if (words % bw == 0 && words / bw <= 64)
          choices.push_back({words, bits, bw});
    }
  }
  choices.push_back({96, 8, 7});    // words not divisible by brick_words
  choices.push_back({128, 80, 16});  // word width out of range
  return choices;
}

struct SweepRun {
  double seconds = 0.0;
  std::string journal;
  std::vector<std::size_t> pareto;
  lim::CheckpointedSweep sweep;
};

SweepRun run_sweep(const std::vector<lim::PartitionChoice>& choices,
                   const lim::SweepOptions& sopt, int jobs,
                   const std::string& journal_path, bool clear_cache) {
  if (clear_cache) brick::BrickCache::global().clear();
  std::remove(journal_path.c_str());
  lim::CheckpointOptions copt;
  copt.journal_path = journal_path;
  copt.jobs = jobs;
  SweepRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.sweep = lim::sweep_partitions_checkpointed(choices,
                                                 tech::default_process(),
                                                 sopt, copt);
  run.seconds = seconds_since(t0);
  run.journal = slurp(journal_path);
  run.pareto = lim::pareto_front(run.sweep.points);
  std::remove(journal_path.c_str());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check =
      args::parse_or_exit({"bench_dse", {{"--check"}}}, argc, argv)
          .has("--check");
  const std::vector<lim::PartitionChoice> choices = make_choices();
  const int kJobs = 8;

  // --- Sweep A: parallel scaling + determinism ------------------------
  lim::SweepOptions scaling;
  scaling.yield_chips = 400;  // makes each point worth parallelizing
  scaling.yield_seed = 7;
  const SweepRun serial =
      run_sweep(choices, scaling, 1, "bench_dse_serial.jsonl", true);
  const SweepRun parallel =
      run_sweep(choices, scaling, kJobs, "bench_dse_parallel.jsonl", true);

  const bool journals_identical = serial.journal == parallel.journal &&
                                  !serial.journal.empty();
  const bool pareto_identical = serial.pareto == parallel.pareto;
  const double parallel_speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;

  // --- Sweep B: brick-cache cold vs warm ------------------------------
  lim::SweepOptions light;  // no yield axis: brick compilation dominates
  const SweepRun cold =
      run_sweep(choices, light, 1, "bench_dse_cold.jsonl", true);
  const std::uint64_t cold_misses = brick::BrickCache::global().misses();
  const SweepRun warm =
      run_sweep(choices, light, 1, "bench_dse_warm.jsonl", false);
  const std::uint64_t warm_hits =
      brick::BrickCache::global().hits();
  const double warm_speedup =
      warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;
  const bool cache_identical = cold.journal == warm.journal;

  // --- Sweep C: disk store, cold process vs warm disk -----------------
  brick::BrickCache& cache = brick::BrickCache::global();
  const std::string store_dir = "bench_dse_store";
  fs::remove_tree(fs::Fs::real(), store_dir);  // start from an empty store
  brick::StoreOptions store_opt;
  store_opt.dir = store_dir;
  cache.attach_store(std::make_shared<brick::BrickStore>(store_opt));
  const SweepRun disk_cold =
      run_sweep(choices, light, 1, "bench_dse_disk_cold.jsonl", true);
  const std::uint64_t disk_entries = cache.store()->stats().saves;
  // clear() drops the in-memory tier but keeps the attached store: this
  // pass is a fresh process starting against yesterday's cache directory.
  const SweepRun disk_warm =
      run_sweep(choices, light, 1, "bench_dse_disk_warm.jsonl", true);
  const std::uint64_t disk_hits_warm = cache.disk_hits();
  const std::uint64_t disk_lookups_warm = cache.misses();
  const double disk_compile_avoidance =
      disk_lookups_warm > 0
          ? static_cast<double>(disk_hits_warm) / disk_lookups_warm
          : 0.0;
  const double disk_warm_speedup =
      disk_warm.seconds > 0.0 ? disk_cold.seconds / disk_warm.seconds : 0.0;
  const bool disk_identical = disk_cold.journal == disk_warm.journal;
  cache.attach_store(nullptr);
  cache.clear();
  fs::remove_tree(fs::Fs::real(), store_dir);

  // --- Sweep D: per-worker-count throughput rows ----------------------
  // Cold light sweeps at each job count: a portable scaling curve (the
  // container may expose any number of hardware threads, so the rows are
  // recorded rather than gated).
  struct ScaleRow {
    int jobs;
    double seconds;
    double points_per_s;
  };
  std::vector<ScaleRow> scale_rows;
  for (const int jobs : {1, 2, 4, 8}) {
    const SweepRun r =
        run_sweep(choices, light, jobs, "bench_dse_scale.jsonl", true);
    scale_rows.push_back(
        {jobs, r.seconds,
         r.seconds > 0.0 ? choices.size() / r.seconds : 0.0});
  }

  using jsonl::format_g17;
  std::ofstream json("BENCH_dse.json");
  json << "{\n"
       << "  \"points\": " << choices.size() << ",\n"
       << "  \"yield_chips\": " << scaling.yield_chips << ",\n"
       << "  \"jobs\": " << kJobs << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"serial_seconds\": " << format_g17(serial.seconds) << ",\n"
       << "  \"parallel_seconds\": " << format_g17(parallel.seconds) << ",\n"
       << "  \"parallel_speedup\": " << format_g17(parallel_speedup) << ",\n"
       << "  \"journals_identical\": "
       << (journals_identical ? "true" : "false") << ",\n"
       << "  \"pareto_identical\": " << (pareto_identical ? "true" : "false")
       << ",\n"
       << "  \"pareto_size\": " << serial.pareto.size() << ",\n"
       << "  \"cold_seconds\": " << format_g17(cold.seconds) << ",\n"
       << "  \"warm_seconds\": " << format_g17(warm.seconds) << ",\n"
       << "  \"warm_speedup\": " << format_g17(warm_speedup) << ",\n"
       << "  \"cache_misses_cold\": " << cold_misses << ",\n"
       << "  \"cache_hits_warm\": " << warm_hits << ",\n"
       << "  \"disk_cold_seconds\": " << format_g17(disk_cold.seconds) << ",\n"
       << "  \"disk_warm_seconds\": " << format_g17(disk_warm.seconds) << ",\n"
       << "  \"disk_warm_speedup\": " << format_g17(disk_warm_speedup) << ",\n"
       << "  \"disk_entries\": " << disk_entries << ",\n"
       << "  \"disk_hits_warm\": " << disk_hits_warm << ",\n"
       << "  \"disk_compile_avoidance\": " << format_g17(disk_compile_avoidance)
       << ",\n"
       << "  \"disk_journals_identical\": "
       << (disk_identical ? "true" : "false") << ",\n"
       << "  \"thread_scaling\": [";
  for (std::size_t i = 0; i < scale_rows.size(); ++i)
    json << (i ? ", " : "") << "{\"jobs\": " << scale_rows[i].jobs
         << ", \"seconds\": " << format_g17(scale_rows[i].seconds)
         << ", \"points_per_s\": " << format_g17(scale_rows[i].points_per_s)
         << "}";
  json << "]\n"
       << "}\n";
  json.close();

  std::printf("points=%zu jobs=%d (%u hw threads)\n", choices.size(), kJobs,
              std::thread::hardware_concurrency());
  std::printf("scaling: serial %.3fs, jobs=%d %.3fs, speedup %.2fx,"
              " journals %s, pareto %s (%zu points)\n",
              serial.seconds, kJobs, parallel.seconds, parallel_speedup,
              journals_identical ? "identical" : "DIFFER",
              pareto_identical ? "identical" : "DIFFER",
              serial.pareto.size());
  std::printf("cache: cold %.4fs (%llu compiles), warm %.4fs (%llu hits),"
              " speedup %.1fx, journals %s\n",
              cold.seconds, static_cast<unsigned long long>(cold_misses),
              warm.seconds, static_cast<unsigned long long>(warm_hits),
              warm_speedup, cache_identical ? "identical" : "DIFFER");
  std::printf("disk: cold %.4fs (%llu entries written), warm %.4fs"
              " (%llu/%llu from disk, %.0f%% compile avoidance),"
              " speedup %.1fx, journals %s\n",
              disk_cold.seconds,
              static_cast<unsigned long long>(disk_entries),
              disk_warm.seconds,
              static_cast<unsigned long long>(disk_hits_warm),
              static_cast<unsigned long long>(disk_lookups_warm),
              disk_compile_avoidance * 100.0, disk_warm_speedup,
              disk_identical ? "identical" : "DIFFER");
  std::printf("scaling:");
  for (const ScaleRow& r : scale_rows)
    std::printf(" jobs=%d %.3fs (%.1f pts/s)", r.jobs, r.seconds,
                r.points_per_s);
  std::printf("\n");

  if (check) {
    bool ok = true;
    if (!journals_identical) {
      std::fprintf(stderr, "FAIL: serial vs parallel journals differ\n");
      ok = false;
    }
    if (!pareto_identical) {
      std::fprintf(stderr, "FAIL: serial vs parallel Pareto fronts differ\n");
      ok = false;
    }
    if (!cache_identical) {
      std::fprintf(stderr, "FAIL: cold vs warm journals differ\n");
      ok = false;
    }
    if (warm_hits == 0) {
      std::fprintf(stderr, "FAIL: warm sweep produced zero cache hits\n");
      ok = false;
    }
    if (warm_speedup < 2.0) {
      std::fprintf(stderr, "FAIL: warm cache speedup %.2fx below 2x\n",
                   warm_speedup);
      ok = false;
    }
    if (!disk_identical) {
      std::fprintf(stderr, "FAIL: disk-cold vs disk-warm journals differ\n");
      ok = false;
    }
    if (disk_entries == 0) {
      std::fprintf(stderr, "FAIL: cold pass wrote zero store entries\n");
      ok = false;
    }
    if (disk_compile_avoidance < 0.9) {
      std::fprintf(stderr,
                   "FAIL: disk compile avoidance %.0f%% below 90%%"
                   " (%llu of %llu lookups served from disk)\n",
                   disk_compile_avoidance * 100.0,
                   static_cast<unsigned long long>(disk_hits_warm),
                   static_cast<unsigned long long>(disk_lookups_warm));
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check: OK\n");
  }
  return 0;
}
