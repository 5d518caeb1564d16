// Shared harness of the limsynth reproduction benchmark: the in-memory span
// tracer, the digest of simulated results, and the pass loop every workload
// runs under.
//
// A workload builds its inputs from the seed in setup(), then runs passes
// over a fixed list of items. Each pass checks every output against an
// oracle and folds every simulated statistic into a digest; the harness
// repeats passes until the measuring time is spent.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over simulated statistics. Doubles are hashed by bit pattern, so
/// a change in any simulated value changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Spans around layer calls, recorded from the benchmark's main thread and
/// kept in memory until the run ends. A disabled tracer records nothing and
/// each span costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Opens a span named after the layer call it wraps ("arch.lim_spgemm").
  [[nodiscard]] Span span(const char* name) {
    return Span(enabled_ ? this : nullptr, name);
  }

  struct Layer {
    std::int64_t calls = 0;
    double total_s = 0.0;  // summed span durations
    double self_s = 0.0;   // minus the time covered by child spans
  };
  /// Per-name aggregates over every span recorded so far.
  std::map<std::string, Layer> layers() const;
  double total_s(const std::string& name) const;
  std::int64_t calls(const std::string& name) const;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write_chrome_json(const std::string& path) const;
  /// Per-layer calls / total / self table.
  std::string table() const;

 private:
  struct Event {
    const char* name = nullptr;
    double start = 0.0;
    double end = 0.0;
    double child_s = 0.0;
  };
  bool enabled_;
  double origin_ = now_s();
  std::vector<Event> events_;
  std::vector<std::size_t> open_;
};

/// One pass over a workload's items.
struct Pass {
  Pass(Tracer& t, bool c) : tracer(t), corrupt(c) {}

  Tracer& tracer;  // disabled outside the traced phase
  bool corrupt;    // self-test: the workload damages one output
  Digest digest;
  std::vector<double> item_ms;  // host latency of each item, in item order
  /// Host time of each timed step (items and the oracle work between
  /// them), in pass order; every pass runs the same steps.
  std::vector<double> step_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Traced-only verification work inside the pass that wall_s leaves out.
  double excluded_s = 0.0;

  /// Counts one checked item or cross-check; a failure is logged to stderr.
  void check(bool ok, const std::string& what);
  /// Runs and times one item. `body` returns whether its output passed
  /// the oracle; an exception counts as a failed item.
  void item(const std::string& what, const std::function<bool()>& body);
  /// Runs and times one step of a pass that is not an item.
  void step(const std::function<void()>& body);
};

using Metrics = std::map<std::string, double>;

struct RunInfo {
  std::uint64_t seed = 0;
  std::string root;      // checkout root: committed CSVs are read from here
  std::string work_dir;  // temporary files (journals) go here
  int setup_reps = 0;
  int traced_passes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input of the timed phase from the seed (timed as setup_s).
  virtual void setup(const RunInfo& info, Tracer& tracer) = 0;
  /// One pass over every item: run, check and digest each output.
  virtual void pass(Pass& p) = 0;
  /// Items one pass completes: the numerator of items_per_s.
  virtual int items_per_pass() const = 0;
  /// Per-layer metrics from the traced passes.
  virtual void layer_metrics(const Tracer& tracer, const RunInfo& info,
                             Metrics& out) = 0;
  /// A workload-specific result line printed on every run.
  virtual std::string summary() const { return ""; }
};

std::unique_ptr<Workload> make_fig6_spgemm();
std::unique_ptr<Workload> make_sram_flow();
std::unique_ptr<Workload> make_brick_golden();
std::unique_ptr<Workload> make_dse_yield();

double median(std::vector<double> v);
/// The file's bytes; empty when it cannot be read.
std::string read_file(const std::string& path);

}  // namespace perfbench
