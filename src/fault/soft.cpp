#include "fault/soft.hpp"

#include <limits>

#include "util/error.hpp"

namespace limsynth::fault {

SoftErrorBudget soft_error_budget(const tech::Process& process,
                                  double mem_bits, double flops,
                                  double gates) {
  LIMS_CHECK_MSG(mem_bits >= 0.0 && flops >= 0.0 && gates >= 0.0,
                 "negative site count");
  SoftErrorBudget b;
  b.mem_bits = mem_bits;
  b.flops = flops;
  b.gates = gates;
  b.fit_mem = process.seu_fit_per_mbit * mem_bits / 1e6;
  b.fit_flop = process.seu_fit_per_flop * flops;
  b.fit_set = process.set_fit_per_gate * gates;
  return b;
}

double fit_to_mtbf_hours(double fit) {
  LIMS_CHECK_MSG(fit >= 0.0, "negative FIT " << fit);
  if (fit == 0.0) return std::numeric_limits<double>::infinity();
  return 1e9 / fit;
}

}  // namespace limsynth::fault
