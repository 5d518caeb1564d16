#include "circuit/elmore.hpp"

#include <cmath>

namespace limsynth::circuit {

RcTree::RcTree(double driver_res, double root_cap) : driver_res_(driver_res) {
  LIMS_CHECK(driver_res > 0.0);
  parent_.push_back(-1);
  res_.push_back(driver_res);
  cap_.push_back(root_cap);
}

int RcTree::add_node(int parent, double res, double cap) {
  LIMS_CHECK(parent >= 0 && parent < node_count());
  LIMS_CHECK(res >= 0.0 && cap >= 0.0);
  parent_.push_back(parent);
  res_.push_back(res);
  cap_.push_back(cap);
  return node_count() - 1;
}

int RcTree::add_line(int parent, double total_res, double total_cap,
                     int segments, double tap_cap) {
  LIMS_CHECK(segments >= 1);
  int node = parent;
  const double r = total_res / segments;
  const double c = total_cap / segments;
  for (int i = 0; i < segments; ++i) node = add_node(node, r, c + tap_cap);
  return node;
}

double RcTree::elmore(int node) const {
  LIMS_CHECK(node >= 0 && node < node_count());
  // Downstream capacitance of each node (cap of its full subtree).
  const int n = node_count();
  std::vector<double> down(cap_);
  // Children appear after parents (append-only construction), so a reverse
  // sweep accumulates subtrees.
  for (int i = n - 1; i >= 1; --i) down[static_cast<std::size_t>(parent_[static_cast<std::size_t>(i)])] += down[static_cast<std::size_t>(i)];

  // Elmore to `node` = sum over edges on the path of R_edge * C_downstream,
  // plus driver resistance times total cap.
  double delay = driver_res_ * down[0];
  int cur = node;
  while (cur != 0) {
    delay += res_[static_cast<std::size_t>(cur)] * down[static_cast<std::size_t>(cur)];
    cur = parent_[static_cast<std::size_t>(cur)];
  }
  return delay;
}

}  // namespace limsynth::circuit
