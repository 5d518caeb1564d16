// dse_yield: a Fig. 4c-style partition sweep with the yield axis on, run
// through the checkpointed executor at jobs = hardware threads.
//
// A pass is one journaled sweep over every viable brick shape of a grid of
// array sizes plus two deliberately invalid shapes; each point samples the
// seeded defect populations of its chips and repairs them. Items: one DSE
// point. Oracles: every valid shape succeeds, every invalid shape fails,
// and the journal equals the serial executor's byte for byte.
//
// The brick cache starts empty in every set-up, whose serial sweep (the
// oracle) fills it; the timed sweeps then find every brick in it, like a
// resident process sweeping again. The traced passes also run the serial
// executor (jobs=1) and evaluate the points one by one, with and without
// the yield axis, to separate load imbalance from contention and to price
// the yield axis.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "brick/cache.hpp"
#include "lim/checkpoint.hpp"
#include "lim/dse.hpp"

namespace perfbench {
namespace {

using namespace limsynth;

constexpr int kYieldChips = 400;

class DseYield : public Workload {
 public:
  void setup(const RunInfo& info, Tracer& /*tracer*/) override {
    process_ = tech::default_process();
    choices_.clear();
    valid_.clear();
    for (int words : {256, 512, 1024, 2048})
      for (int bits : {8, 16, 32})
        for (int bw : {8, 16, 32, 64})
          if (words / bw <= 64) {
            choices_.push_back({words, bits, bw});
            valid_.push_back(true);
          }
    choices_.push_back({96, 8, 7});    // words not divisible by brick_words
    choices_.push_back({128, 80, 16});  // word width out of range
    valid_.insert(valid_.end(), {false, false});
    options_ = {};
    options_.yield_chips = kYieldChips;
    options_.yield_seed = info.seed;
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
    journal_ = info.work_dir + "/dse_journal.jsonl";
    // The oracle: the serial executor's journal.
    brick::BrickCache::global().clear();
    reference_ = sweep(1, nullptr);
  }

  int items_per_pass() const override { return static_cast<int>(choices_.size()); }

  void pass(Pass& p) override {
    brick::BrickCache& cache = brick::BrickCache::global();
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    const double t0 = now_s();
    std::string journal;
    {
      auto s = p.tracer.span("lim.sweep_parallel");
      journal = sweep(jobs_, &p);
    }
    const double parallel_s = now_s() - t0;
    p.item_ms.push_back(parallel_s * 1e3);
    p.step_ms.push_back(parallel_s * 1e3);
    if (p.corrupt && !journal.empty()) journal[journal.size() / 2] ^= 1;
    p.check(journal == reference_, "parallel journal differs from the serial one");
    p.digest.add(journal);
    if (!p.tracer.enabled()) return;

    const double x0 = now_s();
    hits_ += static_cast<double>(cache.hits() - hits);
    misses_ += static_cast<double>(cache.misses() - misses);
    parallel_s_.push_back(parallel_s);
    const double s0 = now_s();
    {
      auto s = p.tracer.span("lim.sweep_serial");
      sweep(1, nullptr);
    }
    serial_s_.push_back(now_s() - s0);
    evaluate_points(p.tracer);
    p.excluded_s += now_s() - x0;
  }

  void layer_metrics(const Tracer& tracer, const RunInfo& info,
                     Metrics& out) override {
    const double passes = info.traced_passes;
    const double serial = median(serial_s_);
    out["lim.sweep_serial_s"] = serial;
    out["lim.parallel_speedup"] = serial / median(parallel_s_);
    out["lim.jobs"] = jobs_;
    std::vector<double> sorted = point_ms_;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double v : point_ms_) sum += v;
    out["lim.point_p50_ms"] = median(point_ms_);
    out["lim.point_max_share"] = sorted.back() / sum;
    const double with = tracer.total_s("lim.evaluate_partition");
    const double without = tracer.total_s("lim.evaluate_partition_no_yield");
    out["lim.yield_share"] = (with - without) / with;
    out["brick.cache_get_s"] = tracer.total_s("brick.cache_get") / passes;
    out["brick.cache_hits"] = hits_ / passes;
    out["brick.cache_misses"] = misses_ / passes;
  }

 private:
  /// One journaled sweep; returns the journal bytes.
  /// With `p`, every point is checked against its expected validity.
  std::string sweep(int jobs, Pass* p) {
    std::remove(journal_.c_str());
    lim::CheckpointOptions ckpt;
    ckpt.journal_path = journal_;
    ckpt.jobs = jobs;
    const lim::CheckpointedSweep result =
        lim::sweep_partitions_checkpointed(choices_, process_, options_, ckpt);
    if (p != nullptr) {
      p->check(result.points.size() == choices_.size(), "sweep is complete");
      for (std::size_t i = 0; i < result.points.size(); ++i)
        p->check(result.points[i].ok == valid_[i],
                 choices_[i].label() +
                     (valid_[i] ? " failed: " + result.points[i].error
                                : " passed although invalid"));
    }
    std::string journal = read_file(journal_);
    std::remove(journal_.c_str());
    return journal;
  }

  /// Times every valid point alone: its brick-cache lookup, the point with
  /// the yield axis and the point without it.
  void evaluate_points(Tracer& tracer) {
    brick::BrickCache& cache = brick::BrickCache::global();
    lim::SweepOptions no_yield = options_;
    no_yield.yield_chips = 0;
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      if (!valid_[i]) continue;
      const lim::PartitionChoice& c = choices_[i];
      {
        auto s = tracer.span("brick.cache_get");
        cache.get({c.bitcell, c.brick_words, c.bits, c.stack()}, process_);
      }
      const double t0 = now_s();
      {
        auto s = tracer.span("lim.evaluate_partition");
        lim::evaluate_partition(c, process_, options_);
      }
      point_ms_.push_back((now_s() - t0) * 1e3);
      auto s = tracer.span("lim.evaluate_partition_no_yield");
      lim::evaluate_partition(c, process_, no_yield);
    }
  }

  tech::Process process_ = tech::default_process();
  std::vector<lim::PartitionChoice> choices_;
  std::vector<bool> valid_;
  lim::SweepOptions options_;
  int jobs_ = 1;
  std::string journal_;
  std::string reference_;  // journal of the serial executor
  // Gathered in the traced passes.
  double hits_ = 0.0;
  double misses_ = 0.0;
  std::vector<double> parallel_s_;
  std::vector<double> serial_s_;
  std::vector<double> point_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_dse_yield() {
  return std::make_unique<DseYield>();
}

}  // namespace perfbench
