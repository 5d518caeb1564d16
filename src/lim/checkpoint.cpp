#include "lim/checkpoint.hpp"

#include <cstdlib>
#include <ostream>
#include <sstream>

namespace limsynth::lim {

namespace {

using jsonl::find_field;
using jsonl::fnv1a;
using jsonl::format_g17;
using jsonl::json_escape;
using jsonl::read_bool;
using jsonl::read_double;
using jsonl::read_string;

/// One completed point as a JSONL line. Metrics use %.17g so a reloaded
/// point is bit-identical to the computed one.
std::string journal_line(const std::string& key, const DsePoint& point) {
  std::ostringstream os;
  os << "{\"key\":\"" << key << "\",\"label\":\""
     << json_escape(point.choice.label()) << "\",\"ok\":"
     << (point.ok ? "true" : "false") << ",\"code\":\""
     << error_code_name(point.ok ? ErrorCode::kInternal : point.error_code)
     << "\",\"error\":\"" << json_escape(point.error)
     << "\",\"read_delay\":" << format_g17(point.read_delay)
     << ",\"read_energy\":" << format_g17(point.read_energy)
     << ",\"area\":" << format_g17(point.area)
     << ",\"yield\":" << format_g17(point.post_repair_yield) << "}\n";
  return os.str();
}

/// Parses one journal line into (key, point). Returns false on any
/// malformed or truncated field — the executor skips the line.
bool parse_journal_line(const std::string& line, std::string* key,
                        DsePoint* point) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;

  std::size_t pos = find_field(line, "key");
  std::string key_hex;
  if (pos == std::string::npos || !read_string(line, pos, &key_hex))
    return false;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(key_hex.c_str(), &end, 16);
  if (end == key_hex.c_str() || *end != '\0') return false;
  *key = jsonl::to_hex(value);

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
     // Clustering is always the process's; "-1" is how earlier keys
     // spelled that, so their journals still resume.
     << ";alpha=-1";
  return fnv1a(os.str());
}

CheckpointedSweep sweep_partitions_checkpointed(
    const std::vector<PartitionChoice>& choices, const tech::Process& process,
    const SweepOptions& options, const CheckpointOptions& ckpt) {
  DIAG_CONTEXT("checkpointed DSE sweep");
  std::vector<std::string> keys;
  keys.reserve(choices.size());
  for (const PartitionChoice& c : choices)
    keys.push_back(jsonl::to_hex(dse_point_key(c, options)));

  const auto singletons = [](const std::vector<std::size_t>& todo) {
    std::vector<std::vector<std::size_t>> units;
    for (const std::size_t i : todo) units.push_back({i});
    return units;
  };
  const auto evaluate = [&](const std::vector<std::size_t>& unit) {
    return std::vector<DsePoint>{
        evaluate_partition_caught(choices[unit.front()], process, options)};
  };
  jsonl::Journaled<DsePoint> run = jsonl::run_journaled<DsePoint>(
      "DSE", ckpt, keys, parse_journal_line, journal_line, singletons,
      evaluate);

  CheckpointedSweep result;
  result.points = std::move(run.records);
  result.provenance = run.provenance;
  // The journal stores metrics, not the shape.
  for (std::size_t i = 0; i < result.points.size(); ++i)
    result.points[i].choice = choices[i];
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
