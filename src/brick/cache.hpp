// Fingerprint-keyed memo cache for compiled bricks.
//
// A DSE sweep evaluates hundreds of partitions that keep recompiling the
// same handful of brick shapes (the same brick_words x bits brick appears
// in every stack count, and repeated sweeps re-visit identical specs).
// Compilation + characterization of one shape is pure — the result is a
// function of (BrickSpec, Process) only — so the cache keys a canonical
// fingerprint of both and shares one immutable CompiledBrick across all
// consumers. Thread-safe: parallel DSE workers hit the same cache, and a
// shape is compiled outside the lock (first insert wins on a race).
//
// Optionally two-tier: attach_store() backs the in-memory map with a
// crash-safe on-disk BrickStore (brick/store.hpp) shared across processes
// and CI runs, so a cold process on a warm disk skips compilation the way
// a warm process skips it. The disk tier is strictly best-effort — any
// store failure degrades to compiling in memory.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "brick/brick.hpp"
#include "brick/estimator.hpp"
#include "liberty/library.hpp"

namespace limsynth::brick {

class BrickStore;

/// Everything downstream stages ever derive from one brick shape: the
/// compiled brick, its analytic estimate (at kReferenceLoad), and the
/// generated macro LibCell as read back from its Liberty text. Immutable
/// once cached.
struct CompiledBrick {
  Brick brick;
  BrickEstimate estimate;
  liberty::LibCell libcell;
};

/// Canonical cache key: every BrickSpec field plus every Process constant
/// that feeds the compiler/estimator, doubles in %.17g so two processes
/// collide only when they are bit-identical.
std::string brick_fingerprint(const BrickSpec& spec,
                              const tech::Process& process);

class BrickCache {
 public:
  /// Returns the compiled brick for (spec, process), compiling it on the
  /// first request. Throws whatever compile_brick throws on unbuildable
  /// specs (failures are not cached).
  std::shared_ptr<const CompiledBrick> get(const BrickSpec& spec,
                                           const tech::Process& process);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;
  /// Drops every in-memory entry and resets the hit/miss counters
  /// (benchmarks use this to measure cold-vs-warm sweeps). An attached
  /// disk store stays attached and keeps its entries — clearing emulates
  /// a process restart on a warm disk.
  void clear();

  /// Attaches (or, with nullptr, detaches) the persistent tier. A miss
  /// consults the store before compiling; a compile publishes to it,
  /// best-effort.
  void attach_store(std::shared_ptr<BrickStore> store);
  std::shared_ptr<BrickStore> store() const;

  /// The process-wide cache every flow entry point shares.
  static BrickCache& global();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledBrick>> map_;
  std::shared_ptr<BrickStore> store_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace limsynth::brick
