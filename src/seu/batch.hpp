// Batched SEU replay on the bit-plane kernel.
//
// One bit-plane pass (bitsim::BatchSim) replays the campaign stimulus for
// 64 lanes at once: lane 0 carries the resident golden (no injection) and
// lanes 1..63 each carry one injected sample. Classification falls out of
// golden-XOR divergence masks — a lane's outcome is read from which
// divergence planes (read-port data, SECDED observation, final array
// state) have its bit set — so 63 samples classify for roughly the cost
// of one scalar replay.
//
// Scalar fallback rules (the kernel's domain is deliberately narrow):
//  * SET pulse samples never enter a batch — pulse-width physics needs
//    the timed event engine (run_injection);
//  * designs the kernel cannot bind (unsupported cells, combinational
//    cycles) fail at BatchKernel construction with a typed Error;
//  * any engine error inside a pass, any watchdog expiry, and any lane-0
//    divergence from the recorded scalar golden throw out of run_batch —
//    callers rerun those samples through run_injection, where hangs
//    classify per sample. A batch thus never *classifies* a hang; it
//    defers to the scalar path instead.
#pragma once

#include <memory>
#include <vector>

#include "bitsim/bitsim.hpp"
#include "seu/seu.hpp"

namespace limsynth::seu {

/// Lanes available for injected samples per batch pass (lane 0 is the
/// resident golden).
inline constexpr int kBatchSamples = bitsim::kLanes - 1;

/// Build-once batch artifact for a rig: the BatchProgram levelized from
/// the rig's binding, shared const across campaign workers. Throws
/// Error(kInvalidConfig / kNonConvergence) when the design falls outside
/// the bit-plane kernel's domain.
class BatchKernel {
 public:
  explicit BatchKernel(const SeuRig& rig);

  const bitsim::BatchProgram& program() const { return *program_; }

 private:
  std::unique_ptr<bitsim::BatchProgram> program_;
};

/// Replays up to kBatchSamples macro-bit / flop injections in one
/// bit-plane pass and classifies each against `golden`, byte-compatible
/// with run_injection's results. Lane 0 is cross-checked against the
/// recorded golden every cycle and on the final array image; divergence
/// (or any engine error / watchdog expiry) throws, and the caller reruns
/// the group through run_injection. SET specs are rejected with
/// Error(kInvalidConfig).
std::vector<InjectionResult> run_batch(const SeuRig& rig,
                                       const BatchKernel& kernel,
                                       const GoldenRun& golden,
                                       const std::vector<InjectionSpec>& specs);

}  // namespace limsynth::seu
