#include "lim/checkpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/watchdog.hpp"

namespace limsynth::lim {

namespace {

using jsonl::find_field;
using jsonl::fnv1a;
using jsonl::format_g17;
using jsonl::json_escape;
using jsonl::read_bool;
using jsonl::read_double;
using jsonl::read_string;

/// Parses one journal line into (key, point). Returns false on any
/// malformed or truncated field — the caller skips the line.
bool parse_journal_line(const std::string& line, std::uint64_t* key,
                        DsePoint* point) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;

  std::size_t pos = find_field(line, "key");
  std::string key_hex;
  if (pos == std::string::npos || !read_string(line, pos, &key_hex))
    return false;
  char* end = nullptr;
  *key = std::strtoull(key_hex.c_str(), &end, 16);
  if (end == key_hex.c_str() || *end != '\0') return false;

  pos = find_field(line, "ok");
  if (pos == std::string::npos || !read_bool(line, pos, &point->ok))
    return false;

  pos = find_field(line, "code");
  std::string code_name;
  if (pos == std::string::npos || !read_string(line, pos, &code_name))
    return false;
  if (!error_code_from_name(code_name, &point->error_code)) return false;

  pos = find_field(line, "error");
  if (pos == std::string::npos || !read_string(line, pos, &point->error))
    return false;

  const struct {
    const char* name;
    double* dst;
  } numbers[] = {
      {"read_delay", &point->read_delay},
      {"read_energy", &point->read_energy},
      {"area", &point->area},
      {"yield", &point->post_repair_yield},
  };
  for (const auto& n : numbers) {
    pos = find_field(line, n.name);
    if (pos == std::string::npos || !read_double(line, pos, n.dst))
      return false;
  }
  return true;
}

}  // namespace

std::uint64_t dse_point_key(const PartitionChoice& choice,
                            const SweepOptions& options) {
  std::ostringstream os;
  os << "words=" << choice.words << ";bits=" << choice.bits
     << ";brick_words=" << choice.brick_words
     << ";bitcell=" << tech::bitcell_kind_name(choice.bitcell)
     << ";ecc=" << options.ecc << ";spare_rows=" << options.spare_rows
     << ";yield_chips=" << options.yield_chips
     << ";yield_seed=" << options.yield_seed
     << ";d0=" << format_g17(options.defect_density_per_m2)
     << ";alpha=" << format_g17(options.cluster_alpha);
  return fnv1a(os.str());
}

void append_journal_entry(std::ostream& os, std::uint64_t key,
                          const DsePoint& point) {
  os << "{\"key\":\"" << jsonl::to_hex(key) << "\",\"label\":\""
     << json_escape(point.choice.label()) << "\",\"ok\":"
     << (point.ok ? "true" : "false") << ",\"code\":\""
     << error_code_name(point.ok ? ErrorCode::kInternal : point.error_code)
     << "\",\"error\":\"" << json_escape(point.error)
     << "\",\"read_delay\":" << format_g17(point.read_delay)
     << ",\"read_energy\":" << format_g17(point.read_energy)
     << ",\"area\":" << format_g17(point.area)
     << ",\"yield\":" << format_g17(point.post_repair_yield) << "}\n";
  os.flush();
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  jsonl::JournalText text;
  if (!jsonl::read_journal_text(path, &text))
    return load;  // missing journal = nothing to resume
  // A torn tail (kill mid-append) is an expected artifact, not damage:
  // that point is simply unwritten and will be re-evaluated. Complete
  // lines that fail to parse are real corruption and are counted.
  load.torn_tail = text.torn_tail;
  for (const std::string& line : text.lines) {
    std::uint64_t key = 0;
    DsePoint point;
    if (parse_journal_line(line, &key, &point))
      load.points[key] = std::move(point);
    else
      ++load.malformed_lines;
  }
  return load;
}

CheckpointedSweep sweep_partitions_checkpointed(
    const std::vector<PartitionChoice>& choices, const tech::Process& process,
    const SweepOptions& options, const CheckpointOptions& ckpt) {
  DIAG_CONTEXT("checkpointed DSE sweep");
  CheckpointedSweep result;
  result.points.reserve(choices.size());

  JournalLoad journal;
  if (ckpt.resume && !ckpt.journal_path.empty()) {
    journal = load_journal(ckpt.journal_path);
    result.malformed = journal.malformed_lines;
    result.torn_tail = journal.torn_tail;
  }

  std::ofstream out;
  if (!ckpt.journal_path.empty()) {
    out.open(ckpt.journal_path, std::ios::app);
    if (!out)
      LIMS_FAIL(ErrorCode::kIo,
                "cannot open DSE journal for append: " << ckpt.journal_path);
  }

  // One slot per choice in sweep order. Pool workers claim indices and
  // deposit results into their slot; journal lines are appended strictly
  // in slot order behind `flush_cursor`, so a parallel run's journal is
  // byte-identical to a serial run's.
  struct Slot {
    std::uint64_t key = 0;
    DsePoint point;
    bool done = false;
    bool from_journal = false;  // already journaled by a previous run
  };
  std::vector<Slot> slots(choices.size());
  std::size_t matched = 0;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    slots[i].key = dse_point_key(choices[i], options);
    const auto hit = journal.points.find(slots[i].key);
    if (hit == journal.points.end()) continue;
    slots[i].point = hit->second;
    slots[i].point.choice = choices[i];  // journal stores metrics, not shape
    slots[i].done = true;
    slots[i].from_journal = true;
    ++matched;
  }
  result.stale = static_cast<int>(journal.points.size() - matched);

  const Watchdog watchdog("DSE sweep", ckpt.timeout_seconds);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> interrupted{false};
  std::mutex mu;
  std::size_t flush_cursor = 0;  // guarded by mu

  // Appends every done slot at the cursor, in order. Caller holds `mu`.
  const auto flush_ready = [&] {
    while (flush_cursor < slots.size() && slots[flush_cursor].done) {
      Slot& s = slots[flush_cursor];
      if (!s.from_journal && out.is_open())
        append_journal_entry(out, s.key, s.point);
      ++flush_cursor;
    }
  };
  {
    const std::lock_guard<std::mutex> lock(mu);
    flush_ready();  // a resumed prefix needs no evaluation to flush past
  }

  parallel_for(slots.size(), ckpt.jobs, [&](std::size_t i) {
    if (slots[i].done) return true;  // satisfied from the journal
    if (ckpt.cancel && ckpt.cancel->load(std::memory_order_relaxed)) {
      // Signal-driven stop, same contract as a timeout: every finished
      // point is already flushed in order, so --resume loses nothing.
      interrupted.store(true);
      return false;
    }
    if (watchdog.expired()) {
      // Stop cleanly between points: everything flushed so far is in
      // the journal, so a --resume run completes the sweep.
      timed_out.store(true);
      return false;
    }
    DsePoint p = evaluate_partition_caught(choices[i], process, options);
    const std::lock_guard<std::mutex> lock(mu);
    slots[i].point = std::move(p);
    slots[i].done = true;
    flush_ready();
    return true;
  });
  result.timed_out = timed_out.load();
  result.interrupted = interrupted.load();

  // The result is the contiguous done prefix (the same truncation a serial
  // timeout produces); completed islands beyond a gap stay unjournaled and
  // are recomputed by a resume.
  for (const Slot& s : slots) {
    if (!s.done) break;
    result.points.push_back(s.point);
    ++(s.from_journal ? result.resumed : result.computed);
  }
  return result;
}

void write_dse_csv(const std::vector<DsePoint>& points, std::ostream& os) {
  os << "words,bits,brick_words,stack,bitcell,ok,error_code,"
        "read_delay_s,read_energy_j,area_m2,post_repair_yield,error\n";
  for (const auto& p : points) {
    os << p.choice.words << ',' << p.choice.bits << ',' << p.choice.brick_words
       << ',' << p.choice.stack() << ','
       << tech::bitcell_kind_name(p.choice.bitcell) << ','
       << (p.ok ? "true" : "false") << ','
       << (p.ok ? "none" : error_code_name(p.error_code)) << ','
       << format_g17(p.read_delay) << ',' << format_g17(p.read_energy) << ','
       << format_g17(p.area) << ',' << format_g17(p.post_repair_yield) << ','
       << '"' << json_escape(p.error) << '"' << '\n';
  }
}

}  // namespace limsynth::lim
