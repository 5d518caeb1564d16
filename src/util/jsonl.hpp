// JSON-lines journals and the one journaled executor.
//
// Both resumable runs (lim/checkpoint.hpp DSE sweeps, seu/campaign
// injection campaigns) go through run_journaled: a worker pool computes
// numbered slots, and each finished slot becomes one self-contained JSON
// object per line, appended strictly in slot order. The line helpers
// implement exactly that dialect: flat objects, string/number/bool fields,
// no nesting. Readers return false instead of throwing on malformed input,
// because a torn trailing line after SIGKILL is an expected artifact, not
// an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/watchdog.hpp"

namespace limsynth::jsonl {

/// A journal file split into complete lines, with the kill-mid-append
/// artifact separated out: bytes after the last '\n' are a *torn tail* —
/// a line whose append never finished — and must be treated as unwritten
/// (the point is simply re-evaluated), not as corruption. Only complete
/// lines that still fail to parse indicate real damage.
struct JournalText {
  std::vector<std::string> lines;  ///< complete ('\n'-terminated) lines
  bool torn_tail = false;          ///< file ended mid-line (SIGKILL artifact)
};

/// Reads `path` and splits it into complete lines ('\r' stripped, empty
/// lines dropped). Returns false when the file cannot be opened; a
/// missing journal is not an error to resume from, just empty.
bool read_journal_text(const std::string& path, JournalText* out);

/// FNV-1a 64-bit — journal fingerprints (stable across platforms).
std::uint64_t fnv1a(const std::string& data);

/// `v` as a 16-digit lowercase hex string (fingerprint formatting).
std::string to_hex(std::uint64_t v);

std::string json_escape(const std::string& s);

/// Unescapes json_escape output. Returns false on a truncated escape
/// (torn line).
bool json_unescape(const std::string& s, std::string* out);

/// Shortest round-trip decimal for a double (%.17g).
std::string format_g17(double v);

/// Finds `"name":` in `line` and returns the offset just past the colon,
/// or npos.
std::size_t find_field(const std::string& line, const std::string& name);

/// Reads a quoted JSON string starting at `pos` (which must point at the
/// opening quote). Returns false on malformed/truncated input.
bool read_string(const std::string& line, std::size_t pos, std::string* out);

bool read_double(const std::string& line, std::size_t pos, double* out);

/// Non-negative integer field (rejects '-', fractions are truncated
/// upstream by never being written).
bool read_u64(const std::string& line, std::size_t pos, std::uint64_t* out);

bool read_bool(const std::string& line, std::size_t pos, bool* out);

/// How a journaled run journals, resumes and stops.
struct RunOptions {
  /// JSONL journal; empty = no journaling. Always opened for append: a
  /// rerun never discards finished work, and a resume takes the last line
  /// for each key.
  std::string journal_path;
  /// Load journal_path first and reuse every line whose key names a slot.
  bool resume = false;
  /// Wall-clock budget, checked between work units; 0 = unlimited. On
  /// expiry the run stops cleanly with `timed_out` set.
  double timeout_seconds = 0.0;
  /// Pool threads claiming work units; at least one.
  int jobs = 1;
  /// Cooperative cancellation (SIGINT/SIGTERM handlers set it), checked
  /// between work units: the run stops cleanly with `interrupted` set.
  const std::atomic<bool>* cancel = nullptr;
};

/// How a journaled run went. Never part of a deterministic output: an
/// uninterrupted run and a kill-and-resume differ only here.
struct Provenance {
  int computed = 0;   ///< slots evaluated by this run
  int resumed = 0;    ///< slots satisfied from the journal
  int stale = 0;      ///< journal keys naming no slot (another run's lines)
  int malformed = 0;  ///< complete journal lines skipped as corrupt
  /// The journal ended mid-line (kill during an append). The fragment
  /// counts as unwritten, not as malformed: its slot is recomputed.
  bool torn_tail = false;
  bool timed_out = false;
  bool interrupted = false;  ///< stopped by RunOptions::cancel
};

template <class T>
struct Journaled {
  /// The journaled prefix: slots [0, records.size()) in slot order. A run
  /// that stops early keeps no finished slot beyond the first unfinished
  /// one; a resume recomputes those.
  std::vector<T> records;
  Provenance provenance;
};

/// The one journaled executor. Slot i is journaled under `keys[i]`.
///  - `parse(line, &key, &rec)` reads one journal line; false = malformed.
///  - `format(keys[i], rec)` renders slot i as one '\n'-terminated line.
///  - `plan(todo)` groups the slots still to compute (ascending) into work
///    units, which the pool claims in order. It is called once, after the
///    journal is open, so setup work placed in it never runs for a
///    journal that cannot be written.
///  - `run(unit)` computes one unit's records, in the unit's slot order.
/// Finished slots are journaled strictly in slot order behind a cursor, so
/// the journal bytes and the result do not depend on `jobs`. Throws
/// Error(kInvalidConfig) for `jobs` < 1 and Error(kIo) when the journal
/// cannot be opened for append.
template <class T, class Parse, class Format, class Plan, class Run>
Journaled<T> run_journaled(const std::string& what, const RunOptions& opt,
                           const std::vector<std::string>& keys,
                           const Parse& parse, const Format& format,
                           const Plan& plan, const Run& run) {
  LIMS_CHECK_MSG(opt.jobs > 0, what << " run needs at least one worker");
  const std::size_t n = keys.size();
  Journaled<T> res;
  Provenance& prov = res.provenance;
  std::vector<T> slots(n);
  std::vector<char> done(n, 0);
  std::vector<char> from_journal(n, 0);

  if (opt.resume && !opt.journal_path.empty()) {
    JournalText text;  // a missing journal resumes nothing
    read_journal_text(opt.journal_path, &text);
    prov.torn_tail = text.torn_tail;
    std::unordered_map<std::string, T> last;  // the last line per key
    for (const std::string& line : text.lines) {
      std::string key;
      T rec{};
      if (parse(line, &key, &rec))
        last.insert_or_assign(std::move(key), std::move(rec));
      else
        ++prov.malformed;
    }
    std::unordered_set<std::string> used;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = last.find(keys[i]);
      if (it == last.end()) continue;
      slots[i] = it->second;
      done[i] = from_journal[i] = 1;
      used.insert(keys[i]);
    }
    prov.stale = static_cast<int>(last.size() - used.size());
  }

  std::ofstream out;
  if (!opt.journal_path.empty()) {
    out.open(opt.journal_path, std::ios::app);
    if (!out)
      LIMS_FAIL(ErrorCode::kIo, "cannot open " << what
                                               << " journal for append: "
                                               << opt.journal_path);
  }

  // Once the pool runs, `mu` guards slots, done and the cursor; every slot
  // before the cursor is journaled.
  std::mutex mu;
  std::size_t cursor = 0;
  // Journals every done slot at the cursor, in order.
  const auto flush_ready = [&] {
    for (; cursor < n && done[cursor]; ++cursor)
      if (!from_journal[cursor] && out.is_open())
        out << format(keys[cursor], slots[cursor]);
    if (out.is_open()) out.flush();
  };
  flush_ready();  // a resumed prefix needs no work to pass

  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i)
    if (!done[i]) todo.push_back(i);
  const std::vector<std::vector<std::size_t>> units = plan(todo);

  const Watchdog watchdog(what + " run", opt.timeout_seconds);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> interrupted{false};
  parallel_for(units.size(), opt.jobs, [&](std::size_t u) {
    // Stop between units: every slot before the cursor is journaled, so a
    // --resume run loses no finished work.
    if (opt.cancel && opt.cancel->load(std::memory_order_relaxed)) {
      interrupted.store(true);
      return false;
    }
    if (watchdog.expired()) {
      timed_out.store(true);
      return false;
    }
    std::vector<T> recs = run(units[u]);
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t k = 0; k < units[u].size(); ++k) {
      slots[units[u][k]] = std::move(recs[k]);
      done[units[u][k]] = 1;
    }
    flush_ready();
    return true;
  });
  prov.timed_out = timed_out.load();
  prov.interrupted = interrupted.load();

  slots.resize(cursor);
  for (std::size_t i = 0; i < cursor; ++i)
    ++(from_journal[i] ? prov.resumed : prov.computed);
  res.records = std::move(slots);
  return res;
}

}  // namespace limsynth::jsonl
