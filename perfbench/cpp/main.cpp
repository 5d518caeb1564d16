// perfbench: runs one workload of the limsynth reproduction benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --root DIR --work-dir DIR [--corrupt]
//
// Set-up runs several times (setup_s is the median). The timed phase then
// repeats passes over the workload's items until S seconds are spent; with
// --trace 1 half of S is untraced and half traced, and the run reports the
// per-layer metrics instead of the end-to-end ones. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --corrupt damages one output per pass, to show that the oracles catch it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the run prints, in BENCHMARK.json order. A workload leaves
// at 0 the per-layer metrics of layers it does not call.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"items_per_s", "1/s"},   {"item_p50_ms", "ms"},
    {"item_tail_ms", "ms"},   {"peak_rss_mib", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"trace.overhead_s", "s"},
    // fig6_spgemm
    {"arch.lim_spgemm_s", "s"},
    {"arch.heap_spgemm_s", "s"},
    {"spgemm.reference_s", "s"},
    {"spgemm.check_s", "s"},
    {"spgemm.generate_s", "s"},
    {"arch.build_chip_s", "s"},
    {"arch.lim.cycles", "count"},
    {"arch.lim.searches", "count"},
    {"arch.lim.spilled_entries", "count"},
    {"arch.heap.cycles", "count"},
    {"arch.heap.shift_cycles", "count"},
    {"arch.heap.pops", "count"},
    {"arch.heap_ns_per_shift", "ns"},
    {"arch.lim_ns_per_search", "ns"},
    // sram_flow
    {"lim.build_sram_s", "s"},
    {"netlist.bind_s", "s"},
    {"place.place_s", "s"},
    {"sta.run_sta_s", "s"},
    {"netlist.activity_sim_s", "s"},
    {"power.analyze_s", "s"},
    {"synth.stage_s", "s"},
    {"netlist.cells", "count"},
    {"netlist.nets", "count"},
    {"synth.resized", "count"},
    {"lim.flow_us_per_cell", "us"},
    // brick_golden
    {"brick.golden_read_s", "s"},
    {"brick.golden_write_s", "s"},
    {"brick.golden_match_s", "s"},
    {"brick.compile_s", "s"},
    {"brick.estimate_s", "s"},
    {"brick.golden_read_calls", "count"},
    {"brick.golden_write_calls", "count"},
    {"brick.golden_match_calls", "count"},
    {"brick.compile_calls", "count"},
    {"brick.estimate_calls", "count"},
    {"brick.est_err_pct_max", "%"},
    // dse_yield (brick.cache_misses is also sram_flow's)
    {"lim.sweep_serial_s", "s"},
    {"lim.parallel_speedup", "x"},
    {"lim.jobs", "count"},
    {"lim.point_p50_ms", "ms"},
    {"lim.point_max_share", "fraction"},
    {"lim.yield_share", "fraction"},
    {"brick.cache_get_s", "s"},
    {"brick.cache_hits", "count"},
    {"brick.cache_misses", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string root;
  std::string work_dir;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N"
               " --seconds S --trace 0|1 --root DIR --work-dir DIR"
               " [--corrupt]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      a.trace = v[0] - '0';
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0 || a.root.empty() ||
      a.work_dir.empty())
    usage("missing argument");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig6_spgemm") return make_fig6_spgemm();
  if (name == "sram_flow") return make_sram_flow();
  if (name == "brick_golden") return make_brick_golden();
  if (name == "dse_yield") return make_dse_yield();
  usage(("unknown workload " + name).c_str());
}

struct Phase {
  std::vector<double> pass_s;                // wall time of each pass
  std::vector<std::vector<double>> item_ms;  // per pass, in item order
  std::vector<std::vector<double>> step_ms;  // per pass, in step order
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Repeats passes until `seconds` are spent (at least one pass). Every
/// pass must reproduce the first pass's digest of simulated results.
Phase run_passes(Workload& w, Tracer& tracer, double seconds, bool corrupt,
                 std::uint64_t& digest) {
  Phase ph;
  const double start = now_s();
  do {
    Pass p(tracer, corrupt);
    const double t0 = now_s();
    w.pass(p);
    ph.pass_s.push_back(now_s() - t0 - p.excluded_s);
    if (digest == 0) digest = p.digest.value();
    p.check(p.digest.value() == digest,
            "simulated results differ from the first pass");
    ph.item_ms.push_back(std::move(p.item_ms));
    ph.step_ms.push_back(std::move(p.step_ms));
    ph.attempted += p.attempted;
    ph.failed += p.failed;
  } while (now_s() - start < seconds);
  return ph;
}

/// Each position's fastest time over the passes. Other load on the machine
/// only ever adds time, so the fastest is the steadiest estimate of what
/// the work costs.
std::vector<double> fastest_per_position(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out = passes.front();
  for (const auto& v : passes)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], v[i]);
  return out;
}

/// Per-item latencies: each item's fastest time over the passes. A
/// workload whose pass is a single item (one DSE sweep) pools its passes
/// instead, so its latencies are the distribution over repeated calls.
std::vector<double> item_latencies(const Phase& ph) {
  if (ph.item_ms.front().size() > 1) return fastest_per_position(ph.item_ms);
  std::vector<double> out;
  for (const auto& v : ph.item_ms) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const MetricDef* defs, std::size_t n, const Metrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld,"
              " \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  RunInfo info;
  info.seed = args.seed;
  info.root = args.root;
  info.work_dir = args.work_dir;
  Tracer tracer(args.trace == 1);
  Tracer untraced(false);

  // Set-up: at least three times, then until half a second is spent.
  std::vector<double> setup_s;
  const double setup_start = now_s();
  while (setup_s.size() < 3 ||
         (now_s() - setup_start < 0.5 && setup_s.size() < 1000)) {
    const double t0 = now_s();
    w->setup(info, tracer);
    setup_s.push_back(now_s() - t0);
  }
  info.setup_reps = static_cast<int>(setup_s.size());

  std::uint64_t digest = 0;
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Phase timed = run_passes(*w, untraced, untraced_seconds, args.corrupt, digest);
  std::int64_t attempted = timed.attempted;
  std::int64_t failed = timed.failed;

  // A pass at its fastest: every step at its fastest over the passes.
  double wall = 0.0;
  for (double ms : fastest_per_position(timed.step_ms)) wall += ms / 1e3;
  std::vector<double> items = item_latencies(timed);
  std::sort(items.begin(), items.end());
  const std::size_t n = items.size();
  // The tail is the highest percentile with ten items beyond it; with
  // fewer than twenty items that would not lie above the median, so the
  // slowest item stands in.
  const std::size_t tail_index = n >= 20 ? n - 11 : n - 1;

  Metrics e2e;
  e2e["setup_s"] = median(setup_s);
  e2e["wall_s"] = wall;
  e2e["items_per_s"] = w->items_per_pass() / wall;
  e2e["item_p50_ms"] = median(items);
  e2e["item_tail_ms"] = items[tail_index];
  e2e["peak_rss_mib"] = peak_rss_mib();

  Metrics layers;
  if (args.trace) {
    const Phase traced = run_passes(*w, tracer, args.seconds / 2, args.corrupt, digest);
    attempted += traced.attempted;
    failed += traced.failed;
    info.traced_passes = static_cast<int>(traced.pass_s.size());
    w->layer_metrics(tracer, info, layers);
    layers["trace.overhead_s"] = fastest(traced.pass_s) - fastest(timed.pass_s);
    const std::string stem = args.work_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    tracer.write_chrome_json(stem + ".trace.json");
    std::ofstream(stem + ".layers.txt") << tracer.table();
    std::fprintf(stderr, "per-layer self/total time over %d set-ups and %d"
                 " traced passes (%s.trace.json):\n%s",
                 info.setup_reps, info.traced_passes, stem.c_str(),
                 tracer.table().c_str());
  }

  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace);
  std::printf("setup_s %.6f s (median of %zu set-ups)\n", e2e["setup_s"],
              setup_s.size());
  std::printf("wall_s %.6f s (each step at its fastest over %zu passes of %d"
              " items)\n", wall, timed.pass_s.size(), w->items_per_pass());
  std::printf("pass_s fastest %.6f median %.6f slowest %.6f\n",
              fastest(timed.pass_s), median(timed.pass_s),
              *std::max_element(timed.pass_s.begin(), timed.pass_s.end()));
  std::printf("item_p50_ms %.3f ms, item_tail_ms %.3f ms (p%.0f of %zu items)\n",
              e2e["item_p50_ms"], e2e["item_tail_ms"],
              100.0 * static_cast<double>(tail_index + 1) / static_cast<double>(n), n);
  std::printf("peak_rss_mib %.1f MiB\n", e2e["peak_rss_mib"]);
  std::printf("fail_frac %.6f (%lld of %lld items and checks failed)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::printf("sim_digest %016llx\n", static_cast<unsigned long long>(digest));
  const std::string summary = w->summary();
  if (!summary.empty()) std::printf("%s\n", summary.c_str());
  if (args.trace) {
    for (const MetricDef& d : kPerLayer)
      if (layers.count(d.name))
        std::printf("  %-28s %.9g %s\n", d.name, layers[d.name], d.unit);
    print_json(failed == 0, attempted, failed, kPerLayer,
               std::size(kPerLayer), layers);
  } else {
    print_json(failed == 0, attempted, failed, kEndToEnd,
               std::size(kEndToEnd), e2e);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
