// brick_golden: brick characterization against the golden transient
// simulation, over the Table 1 grid (16x10 and 32x12 8T bricks at stacks
// 1/4/8), seeded extra SRAM shapes and one CAM brick.
//
// Set-up compiles every brick (compile_brick). Items: estimate_brick +
// golden_read + golden_write (+ golden_match for the CAM brick) of one
// compiled brick. Oracle: no golden call
// throws, and the estimator stays within the error band the repository's
// tests hold it to: 12% on the Table 1 grid, 20% elsewhere (30% on CAM
// match energy).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "bench.hpp"
#include "brick/brick.hpp"
#include "brick/estimator.hpp"
#include "brick/golden.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace limsynth;
using tech::BitcellKind;

struct Case {
  brick::BrickSpec spec;
  double band;  // allowed |estimate / golden - 1|
};

double rel_err(double estimate, double golden) {
  return std::fabs(estimate / golden - 1.0);
}

class BrickGolden : public Workload {
 public:
  void setup(const RunInfo& info, Tracer& tracer) override {
    const tech::Process process = tech::default_process();
    cases_.clear();
    for (const auto& [words, bits] : {std::pair{16, 10}, std::pair{32, 12}})
      for (int stack : {1, 4, 8})
        cases_.push_back({{BitcellKind::kSram8T, words, bits, stack}, 0.12});
    // Extra shapes in seeded order. Seeded shapes would change the golden
    // solver's work from seed to seed, so the seed orders a fixed set.
    std::vector<Case> extras;
    for (const auto& [kind, words, bits, stack] :
         {std::tuple{BitcellKind::kSram8T, 16, 8, 2},
          std::tuple{BitcellKind::kSram8T, 32, 16, 1},
          std::tuple{BitcellKind::kSram8T, 32, 8, 2},
          std::tuple{BitcellKind::kSram8T, 64, 12, 1},
          std::tuple{BitcellKind::kSram8T, 64, 32, 2},
          std::tuple{BitcellKind::kSram8T, 24, 7, 3},
          std::tuple{BitcellKind::kSram8T, 128, 4, 1},
          std::tuple{BitcellKind::kSram6T, 16, 10, 1},
          std::tuple{BitcellKind::kSram6T, 32, 8, 4},
          std::tuple{BitcellKind::kSram6T, 64, 16, 1}})
      extras.push_back({{kind, words, bits, stack}, 0.20});
    Rng rng(info.seed);
    for (std::size_t i = extras.size(); i > 1; --i)
      std::swap(extras[i - 1], extras[rng.below(i)]);
    cases_.insert(cases_.end(), extras.begin(), extras.end());
    cases_.push_back({{BitcellKind::kCamNor10T, 16, 10, 1}, 0.20});
    bricks_.clear();
    for (const Case& c : cases_) {
      auto s = tracer.span("brick.compile");
      bricks_.push_back(brick::compile_brick(c.spec, process));
    }
  }

  int items_per_pass() const override { return static_cast<int>(cases_.size()); }

  void pass(Pass& p) override {
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      const brick::Brick& b = bricks_[i];
      p.item(c.spec.name(), [&] {
        const brick::BrickEstimate est = [&] {
          auto s = p.tracer.span("brick.estimate");
          return brick::estimate_brick(b);
        }();
        brick::GoldenMeasurement rd = [&] {
          auto s = p.tracer.span("brick.golden_read");
          return brick::golden_read(b);
        }();
        const brick::GoldenMeasurement wr = [&] {
          auto s = p.tracer.span("brick.golden_write");
          return brick::golden_write(b);
        }();
        if (p.corrupt && i == 0) rd.delay *= 2.0;
        for (double v : {est.read_delay, est.read_energy, est.write_energy,
                         est.match_energy, est.bank_area, rd.delay, rd.energy,
                         wr.delay, wr.energy})
          p.digest.add(v);
        const double err = std::max({rel_err(est.read_delay, rd.delay),
                                     rel_err(est.read_energy, rd.energy),
                                     rel_err(est.write_energy, wr.energy)});
        bool ok = err <= c.band;
        if (b.is_cam()) {
          const brick::GoldenMeasurement m = [&] {
            auto s = p.tracer.span("brick.golden_match");
            return brick::golden_match(b);
          }();
          p.digest.add(m.delay);
          p.digest.add(m.energy);
          ok = ok && m.delay > 0.0 && rel_err(est.match_energy, m.energy) <= 0.30;
        }
        max_err_ = std::max(max_err_, err);
        return ok;
      });
    }
  }

  void layer_metrics(const Tracer& tracer, const RunInfo& info,
                     Metrics& out) override {
    for (const char* name : {"brick.golden_read", "brick.golden_write",
                             "brick.golden_match", "brick.compile",
                             "brick.estimate"}) {
      // Bricks are compiled in set-up, everything else in the passes.
      const double per = std::strcmp(name, "brick.compile") == 0
                             ? info.setup_reps
                             : info.traced_passes;
      out[std::string(name) + "_s"] = tracer.total_s(name) / per;
      out[std::string(name) + "_calls"] =
          static_cast<double>(tracer.calls(name)) / per;
    }
    out["brick.est_err_pct_max"] = max_err_ * 100.0;
  }

  std::string summary() const override {
    return "est_err_pct_max " + std::to_string(max_err_ * 100.0) +
           " % (largest estimator-vs-golden error over read delay, read"
           " energy and write energy)";
  }

 private:
  std::vector<Case> cases_;
  std::vector<brick::Brick> bricks_;
  double max_err_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_brick_golden() {
  return std::make_unique<BrickGolden>();
}

}  // namespace perfbench
