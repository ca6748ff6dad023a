#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned thread_tag() {
  return static_cast<unsigned>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                               0xffff);
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(steady_seconds()) {}

double Tracer::now() const { return steady_seconds() - origin_; }

int Tracer::begin(const char* name, std::uint64_t sim) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = t;
  s.parent = open_.empty() ? -1 : open_.back();
  s.sim = sim;
  s.thread = 0;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (!enabled_ || index < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = t;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add_finished(const char* name, double start, double end, int parent,
                          std::uint64_t sim) {
  if (!enabled_) return;
  const unsigned tag = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, sim, tag == 0 ? 1u : tag});
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end >= s.start)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;  // never closed
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, s.start), b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[layer_of(s.name)] += (s.end - s.start) - covered;
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"sim\":%llu}}%s\n",
                 s.name, layer_of(s.name).c_str(), s.thread, s.start * 1e6,
                 std::max(0.0, s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.sim),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
