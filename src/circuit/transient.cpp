// Backward-Euler stepping behind circuit::simulate, and its nodal solver:
// NodalLu below states the no-pivot argument and the rules that keep every
// result bit-identical to a dense partial-pivot LU.
#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace limsynth::circuit {

namespace {

/// Step budget per attempt (settling + main phase), see TransientConfig.
constexpr std::size_t kMaxSteps = 20'000'000;

/// Smooth 0..1 turn-on of a MOS switch as a function of its overdrive,
/// normalized to vdd. Centered near a 0.45*vdd threshold with a soft knee,
/// approximating the effective-current behaviour of a short-channel device
/// between cutoff and full-on.
double switch_fraction(double v_over_vdd) {
  const double lo = 0.30;  // below: off
  const double hi = 0.75;  // above: fully on
  if (v_over_vdd <= lo) return 0.0;
  if (v_over_vdd >= hi) return 1.0;
  const double x = (v_over_vdd - lo) / (hi - lo);
  return x * x * (3.0 - 2.0 * x);  // smoothstep
}

/// Sparse LU of the nodal matrix, factored in natural unknown order with no
/// pivoting. The pattern (diagonal, resistor and device pairs, plus the fill
/// of eliminating in that order) is fixed once per attempt; the values are
/// refactored only when the matrix changed.
///
/// No row swaps are needed: the matrix is symmetric and strictly diagonally
/// dominant (positive resistances and r_on, caps >= 0, a 1e-12 leak on
/// every diagonal), and so is every Schur complement, so partial pivoting
/// would never pick a row below the diagonal. factor() checks that instead
/// of assuming it.
///
/// The arithmetic is exactly that of a dense partial-pivot LU over the
/// same matrix, so results are bit-identical to one:
///  1. Each entry accumulates its stamps from zero in the caller's order
///     (resistors, devices, capacitor companions, leak). Only the leading
///     resistor part may be summed once and reused.
///  2. Elimination runs column ascending, then row ascending, skips a zero
///     multiplier f = a[r][c] * (1 / pivot), and updates a[r][k] -= f *
///     a[c][k] with no reassociation. Entries outside the pattern would
///     only ever receive -= f * 0.
///  3. Forward substitution with the stored multipliers runs column
///     ascending, reproducing the dense b[r] -= f * b[c] interleaved with
///     the elimination.
///  4. Back substitution runs k ascending and skips a[r][k] == 0: 0 * NaN
///     would smear a poisoned unknown across unrelated rows and
///     misattribute the fault.
///  5. A NaN pivot (a device gated by a NaN voltage) makes every later
///     dense multiplier NaN, zero entries included, so every unknown from
///     that column on comes out NaN. factor() stops there and solve() marks
///     those unknowns NaN, so the watchdog names the same node.
class NodalLu {
 public:
  /// Symbolic phase for `n` unknowns coupled by the given (i, j) pairs.
  NodalLu(std::size_t n, const std::vector<std::pair<int, int>>& pairs)
      : n_(n), poisoned_from_(n) {
    // upper[c]: columns right of the diagonal in row c, which by symmetry
    // are also the rows below the diagonal in column c.
    std::vector<std::vector<std::size_t>> upper(n);
    for (const auto& [i, j] : pairs)
      if (i != j)
        upper[static_cast<std::size_t>(std::min(i, j))].push_back(
            static_cast<std::size_t>(std::max(i, j)));
    for (auto& u : upper) {
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
    }
    // Eliminating column c makes its later neighbours a clique (the fill).
    std::vector<std::size_t> merged;
    for (std::size_t c = 0; c < n; ++c) {
      const auto& uc = upper[c];
      for (auto it = uc.begin(); it != uc.end(); ++it) {
        auto& ur = upper[*it];
        merged.clear();
        std::set_union(ur.begin(), ur.end(), it + 1, uc.end(),
                       std::back_inserter(merged));
        ur.swap(merged);
      }
    }
    std::vector<std::vector<std::size_t>> lower(n);
    for (std::size_t c = 0; c < n; ++c)
      for (const std::size_t r : upper[c]) lower[r].push_back(c);

    // Row-major storage: lower entries, diagonal, upper entries, each row
    // ascending.
    row_end_.resize(n);
    diag_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      col_.insert(col_.end(), lower[r].begin(), lower[r].end());
      diag_[r] = col_.size();
      col_.push_back(r);
      col_.insert(col_.end(), upper[r].begin(), upper[r].end());
      row_end_[r] = col_.size();
    }
    val_.assign(col_.size(), 0.0);

    // For an upper entry p = (c, r), mirror_[p] is the position of (r, c),
    // where row r's multiplier for column c lives. update_ lists, for each
    // column c, each row r and each column k right of c's diagonal, the
    // position of (r, k).
    mirror_.resize(col_.size());
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t p = diag_[c] + 1; p < row_end_[c]; ++p) {
        mirror_[p] = pos(col_[p], c);
        for (std::size_t q = diag_[c] + 1; q < row_end_[c]; ++q)
          update_.push_back(pos(col_[p], col_[q]));
      }
  }

  /// Value position of the structural entry (row, col).
  std::size_t pos(std::size_t row, std::size_t col) const {
    const auto first = col_.begin() + static_cast<std::ptrdiff_t>(
                                          row == 0 ? 0 : row_end_[row - 1]);
    const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_end_[row]);
    const auto it = std::lower_bound(first, last, col);
    LIMS_CHECK(it != last && *it == col);
    return static_cast<std::size_t>(it - col_.begin());
  }
  std::size_t diag(std::size_t i) const { return diag_[i]; }

  /// Matrix values, indexed by pos() and diag(). The caller stamps them,
  /// then factor() overwrites them with the factors.
  std::vector<double>& values() { return val_; }

  /// In-place numeric factorization (rules 2 and 5).
  void factor() {
    poisoned_from_ = n_;
    std::size_t u = 0;
    for (std::size_t c = 0; c < n_; ++c) {
      const double pivot = val_[diag_[c]];
      if (std::isnan(pivot)) {
        poisoned_from_ = c;
        return;
      }
      const double best = std::fabs(pivot);
      const std::size_t first = diag_[c] + 1;
      const std::size_t last = row_end_[c];
      for (std::size_t p = first; p < last; ++p)
        LIMS_CHECK_MSG(!(std::fabs(val_[mirror_[p]]) > best),
                       "nodal matrix lost diagonal dominance: row "
                           << col_[p] << " would need a pivot swap at col "
                           << c);
      if (best <= 1e-30)
        LIMS_FAIL(ErrorCode::kNumericalFault,
                  "singular conductance matrix at col " << c);
      const double inv = 1.0 / pivot;
      for (std::size_t p = first; p < last; ++p) {
        const double f = val_[mirror_[p]] * inv;
        val_[mirror_[p]] = f;
        if (f == 0.0) {
          u += last - first;
          continue;
        }
        for (std::size_t q = first; q < last; ++q)
          val_[update_[u++]] -= f * val_[q];
      }
    }
  }

  /// Solves the factored system in place (rules 3 to 5).
  void solve(std::vector<double>& x) const {
    for (std::size_t c = 0; c < poisoned_from_; ++c)
      for (std::size_t p = diag_[c] + 1; p < row_end_[c]; ++p) {
        const double f = val_[mirror_[p]];
        if (f != 0.0) x[col_[p]] -= f * x[c];
      }
    for (std::size_t r = poisoned_from_; r < n_; ++r)
      x[r] = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t r = poisoned_from_; r-- > 0;) {
      double acc = x[r];
      for (std::size_t p = diag_[r] + 1; p < row_end_[r]; ++p)
        if (val_[p] != 0.0) acc -= val_[p] * x[col_[p]];
      x[r] = acc / val_[diag_[r]];
    }
  }

 private:
  std::size_t n_;
  std::size_t poisoned_from_;  // first unknown with a NaN pivot, else n_
  std::vector<std::size_t> col_;      // column of each entry, rows in turn
  std::vector<std::size_t> row_end_;  // one past each row's last entry
  std::vector<std::size_t> diag_;     // position of each diagonal entry
  std::vector<std::size_t> mirror_;
  std::vector<std::size_t> update_;
  std::vector<double> val_;
};

/// Internal signal for the adaptive-dt retry loop: a step produced a
/// non-finite node voltage. Never escapes simulate().
struct NonFiniteVoltage {
  NodeId node;
  double time;
};

}  // namespace

TransientResult::TransientResult(std::vector<double> times,
                                 std::vector<std::vector<double>> waves,
                                 double energy_from_vdd, double vdd)
    : times_(std::move(times)),
      waves_(std::move(waves)),
      energy_(energy_from_vdd),
      vdd_(vdd) {}

double TransientResult::cross_time(NodeId node, double frac, bool rising,
                                   double after) const {
  const auto& w = waves_.at(static_cast<std::size_t>(node));
  const double level = frac * vdd_;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    if (times_[i] < after) continue;
    const double v0 = w[i - 1];
    const double v1 = w[i];
    const bool crossed = rising ? (v0 < level && v1 >= level)
                                : (v0 > level && v1 <= level);
    if (crossed) {
      const double f = (level - v0) / (v1 - v0);
      return times_[i - 1] + f * (times_[i] - times_[i - 1]);
    }
  }
  return -1.0;
}

double TransientResult::voltage_at(NodeId node, double t) const {
  const auto& w = waves_.at(static_cast<std::size_t>(node));
  if (t <= times_.front()) return w.front();
  if (t >= times_.back()) return w.back();
  const auto it = std::lower_bound(times_.begin(), times_.end(), t);
  const auto i = static_cast<std::size_t>(it - times_.begin());
  if (i == 0) return w.front();
  const double f = (t - times_[i - 1]) / (times_[i] - times_[i - 1]);
  return w[i - 1] + f * (w[i] - w[i - 1]);
}

double TransientResult::final_voltage(NodeId node) const {
  return waves_.at(static_cast<std::size_t>(node)).back();
}

namespace {

TransientResult simulate_once(const Circuit& circuit,
                              const TransientConfig& config, const double dt) {
  const auto& process = circuit.process();
  const double vdd = process.vdd;
  const int total_nodes = static_cast<int>(circuit.node_count());

  // Node classification: fixed nodes are gnd, vdd, and PWL-forced nodes.
  std::vector<int> solve_index(static_cast<std::size_t>(total_nodes), -1);
  std::vector<const PwlSource*> forced(static_cast<std::size_t>(total_nodes), nullptr);
  for (const auto& src : circuit.sources())
    forced[static_cast<std::size_t>(src.node)] = &src;

  int n_unknown = 0;
  for (int node = 0; node < total_nodes; ++node) {
    if (node == circuit.gnd() || node == circuit.vdd() ||
        forced[static_cast<std::size_t>(node)] != nullptr)
      continue;
    solve_index[static_cast<std::size_t>(node)] = n_unknown++;
  }

  // Lumped capacitance per node (grounded caps).
  std::vector<double> cap(static_cast<std::size_t>(total_nodes), 0.0);
  for (const auto& c : circuit.caps()) cap[static_cast<std::size_t>(c.node)] += c.farads;
  // Gate caps of devices load their gate node.
  // (Device gate load is included explicitly by circuit builders via
  // add_cap; no implicit load here to keep extraction explicit.)

  // State.
  std::vector<double> volt(static_cast<std::size_t>(total_nodes), 0.0);
  volt[static_cast<std::size_t>(circuit.vdd())] = vdd;
  for (const auto& src : circuit.sources())
    volt[static_cast<std::size_t>(src.node)] = src.value_at(0.0);
  for (const auto& [node, v] : circuit.initial_conditions())
    volt[static_cast<std::size_t>(node)] = v;
  auto volt_of = [&](NodeId node) { return volt[static_cast<std::size_t>(node)]; };
  // Switch fraction of a device at the present voltages.
  auto fraction_on = [&](const Device& d) {
    const double vg = volt_of(d.gate);
    return d.type == DeviceType::kNmos ? switch_fraction(vg / vdd)
                                       : switch_fraction((vdd - vg) / vdd);
  };

  // Where each resistor and device lands in the nodal system. The matrix
  // pattern and its fill are fixed for the attempt.
  struct Branch {
    NodeId a = 0, b = 0;
    int ia = -1, ib = -1;  // unknown indices, -1 for fixed nodes
    // Value positions of (ia, ia), (ia, ib), (ib, ib) and (ib, ia).
    std::size_t aa = 0, ab = 0, bb = 0, ba = 0;
  };
  auto branch = [&](NodeId a, NodeId b) {
    return Branch{a, b, solve_index[static_cast<std::size_t>(a)],
                  solve_index[static_cast<std::size_t>(b)]};
  };
  std::vector<Branch> res_branch;
  std::vector<double> res_g;
  res_branch.reserve(circuit.resistors().size());
  res_g.reserve(circuit.resistors().size());
  for (const auto& r : circuit.resistors()) {
    res_branch.push_back(branch(r.a, r.b));
    res_g.push_back(1.0 / r.ohms);
  }
  std::vector<Branch> dev_branch;
  dev_branch.reserve(circuit.devices().size());
  for (const auto& d : circuit.devices())
    dev_branch.push_back(branch(d.drain, d.source));
  std::vector<std::pair<int, int>> pairs;
  for (const auto* list : {&res_branch, &dev_branch})
    for (const Branch& br : *list)
      if (br.ia >= 0 && br.ib >= 0) pairs.emplace_back(br.ia, br.ib);
  NodalLu lu(static_cast<std::size_t>(n_unknown), pairs);
  for (auto* list : {&res_branch, &dev_branch})
    for (Branch& br : *list) {
      const auto ia = static_cast<std::size_t>(br.ia);
      const auto ib = static_cast<std::size_t>(br.ib);
      if (br.ia >= 0) br.aa = lu.diag(ia);
      if (br.ib >= 0) br.bb = lu.diag(ib);
      if (br.ia >= 0 && br.ib >= 0) {
        br.ab = lu.pos(ia, ib);
        br.ba = lu.pos(ib, ia);
      }
    }

  // Stamps a conductance between a branch's nodes: the a side, then the b
  // side.
  std::vector<double>& mat = lu.values();
  std::vector<double> rhs;
  auto stamp_matrix = [&](const Branch& br, double g) {
    if (br.ia >= 0) {
      mat[br.aa] += g;
      if (br.ib >= 0) mat[br.ab] -= g;
    }
    if (br.ib >= 0) {
      mat[br.bb] += g;
      if (br.ia >= 0) mat[br.ba] -= g;
    }
  };
  auto stamp_rhs = [&](const Branch& br, double g) {
    if (br.ia >= 0 && br.ib < 0)
      rhs[static_cast<std::size_t>(br.ia)] += g * volt_of(br.b);
    if (br.ib >= 0 && br.ia < 0)
      rhs[static_cast<std::size_t>(br.ib)] += g * volt_of(br.a);
  };

  // Resistors, C/dt and the leak are constant within an attempt, so the
  // matrix depends on the device switch fractions alone. The resistor
  // stamps come first in every entry, so they are summed once here.
  for (std::size_t k = 0; k < res_branch.size(); ++k)
    stamp_matrix(res_branch[k], res_g[k]);
  const std::vector<double> resistor_mat = mat;
  // Capacitor companion models (backward Euler): g = C/dt, i = C/dt * v_prev.
  struct CapStamp {
    NodeId node;
    std::size_t i;  // unknown index
    double g;
  };
  std::vector<CapStamp> cap_g;
  for (int node = 0; node < total_nodes; ++node) {
    const int i = solve_index[static_cast<std::size_t>(node)];
    const double c = cap[static_cast<std::size_t>(node)];
    if (i >= 0 && c > 0.0)
      cap_g.push_back({node, static_cast<std::size_t>(i), c / dt});
  }
  // Switch fractions now and at the last factorization. A NaN fraction
  // never compares equal, so a poisoned gate refactors every step.
  std::vector<double> fracs(circuit.devices().size(), 0.0);
  std::vector<double> factored_frac(fracs.size(), 0.0);
  bool factored = false;

  const auto steps = static_cast<std::size_t>(config.t_stop / dt);
  const auto settle_steps = static_cast<std::size_t>(config.dc_settle / dt);
  std::vector<double> rec_times;
  std::vector<std::vector<double>> rec_waves(
      static_cast<std::size_t>(total_nodes));
  auto record = [&](double t) {
    rec_times.push_back(t);
    for (int node = 0; node < total_nodes; ++node)
      rec_waves[static_cast<std::size_t>(node)].push_back(
          volt[static_cast<std::size_t>(node)]);
  };
  record(0.0);

  double energy = 0.0;

  // Advances one backward-Euler step with sources evaluated at time `t`;
  // returns the energy drawn from vdd during the step.
  auto advance = [&](double t) -> double {
    // Update forced nodes.
    for (const auto& src : circuit.sources())
      volt[static_cast<std::size_t>(src.node)] = src.value_at(t);

    if (n_unknown > 0) {
      bool changed = !factored;
      for (std::size_t k = 0; k < fracs.size(); ++k) {
        fracs[k] = fraction_on(circuit.devices()[k]);
        changed = changed || fracs[k] != factored_frac[k];
      }
      if (changed) {
        mat = resistor_mat;
        for (std::size_t k = 0; k < fracs.size(); ++k) {
          if (fracs[k] <= 0.0) continue;
          stamp_matrix(dev_branch[k], fracs[k] / circuit.devices()[k].r_on);
        }
        for (const CapStamp& cs : cap_g) mat[lu.diag(cs.i)] += cs.g;
        // Tiny leak to ground keeps floating nodes (e.g. all devices off)
        // well-conditioned without visibly affecting waveforms.
        for (std::size_t i = 0; i < static_cast<std::size_t>(n_unknown); ++i)
          mat[lu.diag(i)] += 1e-12;
        lu.factor();
        factored_frac = fracs;
        factored = true;
      }

      rhs.assign(static_cast<std::size_t>(n_unknown), 0.0);
      for (std::size_t k = 0; k < res_branch.size(); ++k)
        stamp_rhs(res_branch[k], res_g[k]);
      for (std::size_t k = 0; k < fracs.size(); ++k) {
        if (fracs[k] <= 0.0) continue;
        stamp_rhs(dev_branch[k], fracs[k] / circuit.devices()[k].r_on);
      }
      for (const CapStamp& cs : cap_g) rhs[cs.i] += cs.g * volt_of(cs.node);

      lu.solve(rhs);
      for (int node = 0; node < total_nodes; ++node) {
        const int i = solve_index[static_cast<std::size_t>(node)];
        if (i >= 0) volt[static_cast<std::size_t>(node)] = rhs[static_cast<std::size_t>(i)];
      }
    }

    // NaN/Inf watchdog: a diverged or poisoned solve must not propagate
    // silently into delay/energy measurements downstream.
    for (int node = 0; node < total_nodes; ++node)
      if (!std::isfinite(volt[static_cast<std::size_t>(node)]))
        throw NonFiniteVoltage{node, t};

    // Supply current: every branch touching vdd.
    double i_vdd = 0.0;
    for (const auto& r : circuit.resistors()) {
      if (r.a == circuit.vdd())
        i_vdd += (vdd - volt[static_cast<std::size_t>(r.b)]) / r.ohms;
      else if (r.b == circuit.vdd())
        i_vdd += (vdd - volt[static_cast<std::size_t>(r.a)]) / r.ohms;
    }
    for (const auto& d : circuit.devices()) {
      NodeId other;
      if (d.drain == circuit.vdd()) other = d.source;
      else if (d.source == circuit.vdd()) other = d.drain;
      else continue;
      const double frac = fraction_on(d);
      if (frac <= 0.0) continue;
      i_vdd += (vdd - volt[static_cast<std::size_t>(other)]) * frac / d.r_on;
    }
    return vdd * i_vdd * dt;
  };

  // DC settling phase: sources pinned at t=0, nothing recorded/accounted.
  for (std::size_t step = 0; step < settle_steps; ++step) (void)advance(0.0);
  // Re-impose user initial conditions after settling (.ic semantics):
  // settling establishes the gates' DC states, but nodes the caller pinned
  // (precharged bitlines, storage cells) must start t=0 at their declared
  // voltage even if start-up glitches disturbed them.
  for (const auto& [node, v] : circuit.initial_conditions())
    volt[static_cast<std::size_t>(node)] = v;
  // Settling may have moved node voltages; refresh the t=0 record.
  rec_times.clear();
  for (auto& w : rec_waves) w.clear();
  record(0.0);

  for (std::size_t step = 1; step <= steps; ++step) {
    const double t = static_cast<double>(step) * dt;
    energy += advance(t);
    if (config.record_waveforms &&
        (step % static_cast<std::size_t>(config.waveform_stride) == 0 ||
         step == steps))
      record(t);
  }

  return TransientResult(std::move(rec_times), std::move(rec_waves), energy, vdd);
}

}  // namespace

TransientResult simulate(const Circuit& circuit, const TransientConfig& config) {
  // Validate the stepping relationships up front so a bad config is a
  // typed error, not a hang or silent NaN propagation.
  if (!std::isfinite(config.t_stop) || config.t_stop <= 0.0)
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "transient t_stop must be finite and positive, got "
                  << config.t_stop);
  if (!std::isfinite(config.dt) || config.dt < 0.0)
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "transient dt must be finite and >= 0 (0 = auto), got "
                  << config.dt);
  if (!std::isfinite(config.dc_settle) || config.dc_settle < 0.0)
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "transient dc_settle must be finite and >= 0, got "
                  << config.dc_settle);
  if (config.waveform_stride < 1)
    LIMS_FAIL(ErrorCode::kInvalidConfig, "waveform_stride must be >= 1, got "
                                             << config.waveform_stride);
  if (config.max_dt_retries < 0)
    LIMS_FAIL(ErrorCode::kInvalidConfig, "max_dt_retries must be >= 0, got "
                                             << config.max_dt_retries);
  const double dt0 =
      config.dt > 0.0 ? config.dt : circuit.process().tau() / 40.0;
  if (dt0 >= config.t_stop)
    LIMS_FAIL(ErrorCode::kInvalidConfig, "transient t_stop ("
                                             << config.t_stop
                                             << " s) must exceed dt (" << dt0
                                             << " s)");

  // Bounded adaptive-dt retry: halve dt on a non-finite step, up to
  // max_dt_retries attempts, then fail typed.
  double dt = dt0;
  for (int attempt = 0;; ++attempt, dt *= 0.5) {
    const double steps = (config.t_stop + config.dc_settle) / dt;
    if (steps > static_cast<double>(kMaxSteps))
      LIMS_FAIL(ErrorCode::kResourceExhausted,
                "transient would take " << steps << " steps at dt " << dt
                                        << " s, over the budget of "
                                        << kMaxSteps);
    try {
      return simulate_once(circuit, config, dt);
    } catch (const NonFiniteVoltage& nf) {
      if (attempt >= config.max_dt_retries)
        LIMS_FAIL(ErrorCode::kNumericalFault,
                  "non-finite voltage on node "
                      << circuit.node_name(nf.node) << " at t " << nf.time
                      << " s; still non-finite after " << attempt
                      << " dt-halving retries (final dt " << dt << " s)");
    }
  }
}

double measure_delay(const TransientResult& result, const Circuit& circuit,
                     NodeId in, bool in_rising, NodeId out, bool out_rising,
                     double after) {
  (void)circuit;
  const double t_in = result.cross_time(in, 0.5, in_rising, after);
  if (t_in < 0.0) return -1.0;
  const double t_out = result.cross_time(out, 0.5, out_rising, t_in);
  if (t_out < 0.0) return -1.0;
  return t_out - t_in;
}

}  // namespace limsynth::circuit
