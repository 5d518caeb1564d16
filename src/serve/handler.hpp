// Request execution for the characterization daemon.
//
// One entry point turns a decoded Request into a reply payload, with the
// PR-2 failure model applied per request instead of per process: every
// limsynth::Error thrown anywhere under the op (bad shapes, numerics,
// exhausted watchdog budgets) is caught and returned as a typed error
// reply carrying the taxonomy code — the connection and the process
// always survive. Deadlines reuse the existing Watchdog machinery,
// checked at stage boundaries exactly like the batch flows do.
//
// A `batch` request runs many items under ONE watchdog with per-item
// error isolation: each item goes through the same run-item pipeline an
// individual request uses (same functions, same reply writer), so a
// batched result is byte-identical to the one-frame-per-request result
// — including the typed per-item error a failing or malformed item
// yields. One sick item costs one line of the results, never the batch.
//
// The handler runs against resident state: the process/StdCellLib pair
// built once at server start and the process-wide two-tier BrickCache
// (in-memory + optional on-disk store), which is what makes repeated
// characterization queries fast — the MemSPICE split served over a
// socket.
#pragma once

#include <atomic>
#include <string>

#include "serve/codec.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::serve {

struct HandlerContext {
  const tech::Process* process = nullptr;
  const tech::StdCellLib* cells = nullptr;
  /// Hard per-request compute budget; per-request deadline_ms overrides
  /// downward only.
  double max_deadline_seconds = 30.0;
  /// Drain flag: long-running ops poll it and fail with kInterrupted so
  /// a SIGTERM drain is bounded by one stage, not one request.
  const std::atomic<bool>* cancel = nullptr;
};

/// A handled request: the reply payload plus the classification the
/// server's stats need (every path produces a valid reply).
struct Handled {
  std::string payload;
  bool ok = true;
  ErrorCode code = ErrorCode::kInternal;  ///< meaningful when !ok
  int batch_items = 0;   ///< items carried when op == kBatch
  int batch_failed = 0;  ///< items that yielded a typed error
};

/// Executes one request. Never throws.
Handled handle_request(const Request& req, const HandlerContext& ctx);

}  // namespace limsynth::serve
