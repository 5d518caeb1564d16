// Runtime soft-error injection on the event-driven engine.
//
// Where fault/defects.hpp samples *permanent* manufacturing defects, this
// module injects *transient* faults into a live simulation and asks what
// the architecture does with them:
//
//  * SEU in the macro array  — peek/poke bit flips in a bank's stored
//    words through the MacroModel state surface (optionally an adjacent
//    multi-bit burst, the MCU model);
//  * SEU in a flop           — EventSimulator::flip_flop inverts the
//    stored state and relaunches Q through the real CK->Q arc;
//  * SET on a gate output    — EventSimulator::arm_set_pulse inverts the
//    net for a bounded width; arc delays, inertial filtering and the
//    capture window decide whether the pulse is latched.
//
// Every injection runs against a golden (fault-free) replay of the same
// stimulus and is classified by the standard soft-error taxonomy:
//
//   masked      outputs and final state identical to golden
//   corrected   SECDED observed fixing a single-bit read (live reference
//               decode of every read word), outputs clean
//   sdc         silent data corruption: an output word differed
//   due         detected uncorrectable: the SECDED reference decode
//               flagged a double-bit error on a read
//   hang        the faulty run failed to complete (event budget blown,
//               watchdog expired, engine error)
//
// A masked run whose *final array state* still differs from golden is
// additionally flagged `latent` — the corruption is parked in rows the
// trace never read back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "evsim/annotate.hpp"
#include "evsim/crosscheck.hpp"
#include "evsim/evsim.hpp"
#include "lim/macro_models.hpp"
#include "lim/sram_builder.hpp"

namespace limsynth::seu {

enum class SiteKind { kMacroBit = 0, kFlop = 1, kSetPulse = 2 };
constexpr int kSiteKinds = 3;
const char* site_kind_name(SiteKind kind);

enum class Outcome {
  kMasked = 0,
  kCorrectedSecded = 1,
  kSdc = 2,
  kDetectedUncorrectable = 3,
  kHang = 4,
};
constexpr int kOutcomes = 5;
const char* outcome_name(Outcome o);
/// Inverse of outcome_name; false for an unknown token (torn journal).
bool parse_outcome(const std::string& name, Outcome* out);

/// One injectable location. Which fields are meaningful depends on kind:
/// macro bits use bank/row/bit, flops use flop, SETs use net.
struct FaultSite {
  SiteKind kind = SiteKind::kMacroBit;
  int bank = 0;
  int row = 0;
  int bit = 0;
  netlist::InstId flop = -1;
  netlist::NetId net = netlist::kNoNet;

  /// Stable human-readable locus ("bank0.row12.bit3", flop or net name).
  std::string describe(const netlist::Netlist& nl) const;
};

struct InjectionSpec {
  FaultSite site;
  /// Cycle the fault lands in: state is corrupted (or the pulse armed)
  /// just before this cycle's capture edge.
  std::uint64_t cycle = 0;
  /// Adjacent bits flipped for macro-array SEUs (1 = single-bit upset,
  /// >1 = multi-cell upset burst). Clipped at the stored word width.
  int burst = 1;
  evsim::TimeFs set_width_fs = 120'000;  // 120 ps deposited-charge pulse
  evsim::TimeFs set_lead_fs = 250'000;   // strike-to-edge distance
};

/// Everything a run needs, shared immutably across campaign workers.
/// Each run builds its own EventSimulator; design/bound/cells/ann/trace
/// are only ever read.
struct SeuRig {
  const lim::SramDesign* design = nullptr;
  /// The caller's one binding of design->nl, which `ann` was annotated
  /// from and the batch kernel levelizes.
  const netlist::BoundDesign* bound = nullptr;
  const tech::StdCellLib* cells = nullptr;
  const evsim::TimingAnnotation* ann = nullptr;
  const evsim::StimulusTrace* trace = nullptr;
  /// Per-injection wall-clock budget (s); <= 0 disables the watchdog.
  double run_timeout_seconds = 60.0;
};

/// lim::random_cycles as a stimulus trace: the random workload every SEU
/// study and `limsynth simulate` replay.
evsim::StimulusTrace random_trace(const lim::SramDesign& design, int cycles,
                                  std::uint64_t seed);

/// The fault-free reference: per-cycle read-port outputs and the final
/// array image, recorded once and compared against by every injection.
struct GoldenRun {
  std::vector<std::uint64_t> rdata;           // bus value per cycle
  std::vector<std::vector<std::uint64_t>> mem;  // final words [bank][row]
};

struct InjectionResult {
  Outcome outcome = Outcome::kMasked;
  bool latent = false;
  /// First cycle whose rdata differed (only meaningful for kSdc).
  std::uint64_t first_mismatch_cycle = 0;
  /// Diagnostic for kHang: the engine error message.
  std::string detail;
};

/// SramBankModel that additionally reference-decodes every word the read
/// port returns (fault::secded_decode with `data_bits` payload bits),
/// recording whether the live SECDED logic had to correct — or failed to
/// correct — a read. `data_bits` == 0 disables the check (non-ECC banks).
class ObservedSramBank : public lim::SramBankModel {
 public:
  ObservedSramBank(int rows, int code_bits, int data_bits)
      : SramBankModel(rows, code_bits), data_bits_(data_bits) {}

  void on_clock(netlist::Simulator& sim, netlist::InstId inst) override;

  bool corrected_seen() const { return corrected_seen_; }
  bool due_seen() const { return due_seen_; }

 private:
  int data_bits_ = 0;
  bool corrected_seen_ = false;
  bool due_seen_ = false;
};

/// Replays the rig's stimulus fault-free (quiesce mode, zero-init) and
/// records the reference outputs and final state.
GoldenRun run_golden(const SeuRig& rig);

/// Replays the stimulus with one injected fault and classifies the run
/// against `golden`. Never throws for engine failures — those classify
/// as kHang; programming errors (bad site coordinates) still throw.
InjectionResult run_injection(const SeuRig& rig, const GoldenRun& golden,
                              const InjectionSpec& spec);

}  // namespace limsynth::seu
