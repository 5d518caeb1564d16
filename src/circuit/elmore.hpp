// Elmore delay on RC trees.
//
// The brick performance-estimation tool models wordlines, bitlines and the
// stacked-brick ARBL as RC trees driven by a source resistance; Elmore's
// first moment gives the dominant time constant and a calibrated crossing
// factor converts it to a threshold-crossing delay.
#pragma once

#include <vector>

#include "util/error.hpp"

namespace limsynth::circuit {

/// RC tree: node 0 is the driving point; every other node has exactly one
/// parent reached through a resistance, plus a grounded capacitance.
class RcTree {
 public:
  /// Creates the tree with the given driver (source) resistance and the
  /// capacitance sitting directly at the driving point.
  explicit RcTree(double driver_res, double root_cap = 0.0);

  /// Adds a node hanging off `parent` through `res`, loaded with `cap`.
  /// Returns the new node's index.
  int add_node(int parent, double res, double cap);

  /// Adds a uniform RC line of total (res, cap) split into `segments`
  /// hanging off `parent`; each segment optionally carries `tap_cap`
  /// (e.g. a bitcell load). Returns the far-end node.
  int add_line(int parent, double total_res, double total_cap, int segments,
               double tap_cap = 0.0);

  int node_count() const { return static_cast<int>(parent_.size()); }

  /// Elmore delay (first moment of the impulse response) from the source
  /// to `node`, including the driver resistance charging everything.
  double elmore(int node) const;

 private:
  double driver_res_;
  std::vector<int> parent_;   // parent_[0] == -1
  std::vector<double> res_;   // resistance to parent; res_[0] = driver
  std::vector<double> cap_;
};

}  // namespace limsynth::circuit
