#include "util/jsonl.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace limsynth::jsonl {

bool read_journal_text(const std::string& path, JournalText* out) {
  out->lines.clear();
  out->torn_tail = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      // No terminating newline: the final append was cut mid-write.
      out->torn_tail = true;
      break;
    }
    std::string line = data.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) out->lines.push_back(std::move(line));
    pos = nl + 1;
  }
  return true;
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string to_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool json_unescape(const std::string& s, std::string* out) {
  out->clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        const std::string hex = s.substr(i + 1, 4);
        *out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

std::string format_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t find_field(const std::string& line, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t pos = line.find(tag);
  return pos == std::string::npos ? std::string::npos : pos + tag.size();
}

bool read_string(const std::string& line, std::size_t pos, std::string* out) {
  if (pos >= line.size() || line[pos] != '"') return false;
  std::size_t end = pos + 1;
  while (end < line.size()) {
    if (line[end] == '\\') {
      end += 2;
      continue;
    }
    if (line[end] == '"') break;
    ++end;
  }
  if (end >= line.size()) return false;  // unterminated: torn line
  return json_unescape(line.substr(pos + 1, end - pos - 1), out);
}

bool read_double(const std::string& line, std::size_t pos, double* out) {
  if (pos >= line.size()) return false;
  const char* start = line.c_str() + pos;
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool read_u64(const std::string& line, std::size_t pos, std::uint64_t* out) {
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  std::uint64_t v = 0;
  std::size_t i = pos;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    const std::uint64_t next = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    if (next / 10 != v) return false;  // overflow
    v = next;
  }
  *out = v;
  return true;
}

bool read_bool(const std::string& line, std::size_t pos, bool* out) {
  if (line.compare(pos, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (line.compare(pos, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace limsynth::jsonl
