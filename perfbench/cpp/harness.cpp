#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->events_.size();
  Event e;
  e.name = name;
  e.start = now_s();
  tracer_->events_.push_back(e);
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Event& e = tracer_->events_[index_];
  e.end = now_s();
  tracer_->open_.pop_back();
  if (!tracer_->open_.empty())
    tracer_->events_[tracer_->open_.back()].child_s += e.end - e.start;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::map<std::string, Layer> out;
  for (const Event& e : events_) {
    Layer& l = out[e.name];
    ++l.calls;
    l.total_s += e.end - e.start;
    l.self_s += e.end - e.start - e.child_s;
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0.0;
  for (const Event& e : events_)
    if (name == e.name) t += e.end - e.start;
  return t;
}

std::int64_t Tracer::calls(const std::string& name) const {
  std::int64_t n = 0;
  for (const Event& e : events_)
    if (name == e.name) ++n;
  return n;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                  i ? "," : "", e.name, (e.start - origin_) * 1e6,
                  (e.end - e.start) * 1e6);
    os << buf;
  }
  os << "\n]}\n";
}

std::string Tracer::table() const {
  const std::map<std::string, Layer> ls = layers();
  std::vector<std::pair<std::string, Layer>> rows(ls.begin(), ls.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s\n", "layer", "calls",
                "total_s", "self_s");
  os << buf;
  for (const auto& [name, l] : rows) {
    std::snprintf(buf, sizeof buf, "%-28s %8lld %12.6f %12.6f\n", name.c_str(),
                  static_cast<long long>(l.calls), l.total_s, l.self_s);
    os << buf;
  }
  return os.str();
}

void Pass::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Pass::item(const std::string& what, const std::function<bool()>& body) {
  bool ok = false;
  std::string error;
  const double t0 = now_s();
  try {
    ok = body();
  } catch (const std::exception& e) {
    error = std::string(" threw: ") + e.what();
  }
  item_ms.push_back((now_s() - t0) * 1e3);
  step_ms.push_back(item_ms.back());
  check(ok, what + error);
}

void Pass::step(const std::function<void()>& body) {
  const double t0 = now_s();
  body();
  step_ms.push_back((now_s() - t0) * 1e3);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
