// Journaled DSE sweeps: the paper's partition sweep (§3, Fig. 4c) on the
// one journaled executor (util/jsonl.hpp).
//
// Every sweep runs there, journaled or not. Each completed DsePoint is one
// JSONL line keyed by its config hash, appended in sweep order, so the
// journal is byte-identical for any `jobs`. Resuming reuses every point
// whose key matches and recomputes only the rest: a torn last line (SIGKILL
// mid write) counts as unwritten, and entries from a *different* sweep
// (changed shapes or options) match no key, so stale checkpoints are
// ignored rather than trusted.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "lim/dse.hpp"
#include "util/jsonl.hpp"

namespace limsynth::lim {

/// Stable 64-bit key of one sweep point: the partition shape plus every
/// SweepOptions field that affects its metrics (FNV-1a over a canonical
/// encoding). Changing the sweep options changes every key.
std::uint64_t dse_point_key(const PartitionChoice& choice,
                            const SweepOptions& options);

using CheckpointOptions = jsonl::RunOptions;

struct CheckpointedSweep {
  /// One point per choice in sweep order: the journaled prefix, truncated
  /// when the sweep stopped early. Points resumed from the journal carry
  /// the summary metrics only (no BrickEstimate detail).
  std::vector<DsePoint> points;
  jsonl::Provenance provenance;
};

/// Evaluates every choice (a failed point is recorded on its DsePoint, not
/// thrown) with optional journaling, resume, watchdog and worker pool.
/// Throws Error(kIo) when the journal file cannot be opened for append.
CheckpointedSweep sweep_partitions_checkpointed(
    const std::vector<PartitionChoice>& choices, const tech::Process& process,
    const SweepOptions& options = {}, const CheckpointOptions& ckpt = {});

/// CSV with one row per point (header + shape, status, error code, and
/// %.17g metrics). Stable formatting: a resumed sweep's CSV byte-matches
/// an uninterrupted run's.
void write_dse_csv(const std::vector<DsePoint>& points, std::ostream& os);

}  // namespace limsynth::lim
