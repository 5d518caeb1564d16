// Soft-error (transient fault) rate bookkeeping.
//
// Where fault/defects.hpp models *manufacturing* defects — permanent,
// sampled once per chip — this module prices *runtime* upsets: the raw
// single-event rates a technology contributes per storage bit, per flop,
// and per gate, and the arithmetic that turns a fault-injection campaign's
// measured derating factors (AVF: the fraction of raw upsets that become
// architecturally visible) into the effective FIT of a design. The raw
// rates live in tech::Process; the derating factors come from src/seu
// campaigns on the live event-driven simulation.
#pragma once

#include <cstdint>

#include "tech/process.hpp"

namespace limsynth::fault {

/// Raw (undereated) upset budget of one design in the given technology:
/// how often the environment flips *something*, before asking whether the
/// flip matters. FIT = failures per 1e9 device-hours.
struct SoftErrorBudget {
  double mem_bits = 0.0;    // storage bits exposed to SEU (incl. ECC checks)
  double flops = 0.0;       // sequential elements
  double gates = 0.0;       // combinational gates exposed to SET

  double fit_mem = 0.0;     // raw FIT of the whole array
  double fit_flop = 0.0;    // raw FIT of all sequential state
  double fit_set = 0.0;     // raw FIT of capturable combinational pulses
};

/// Builds the raw budget from the process rates and the design's site
/// counts (storage bits including ECC check bits, flop count, gate count).
SoftErrorBudget soft_error_budget(const tech::Process& process,
                                  double mem_bits, double flops, double gates);

/// Mean time between failures in hours for a given FIT (inf at 0 FIT).
double fit_to_mtbf_hours(double fit);

}  // namespace limsynth::fault
