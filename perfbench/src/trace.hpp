// Span recorder for the traced run. A span is (name, start, end, parent,
// simulation id, thread); the layer is the name's prefix up to the first '.'
// ("core.run" -> core). Spans stay in memory and are written once, at the
// end of the run, as a Chrome trace-event file. With tracing off every call
// is a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since the tracer was created (the span time base).
  double now() const;

  /// Open a span on the calling (main) thread, nested under the innermost
  /// open one; returns its index, or -1 with tracing off.
  int begin(const char* name, std::uint64_t sim);
  void end(int index);

  /// Record an already-finished span from another thread (farm workers),
  /// parented to `parent` (an index begin() returned).
  void add_finished(const char* name, double start, double end, int parent,
                    std::uint64_t sim);

  /// Self time per layer: each span's duration minus the part of its
  /// interval its children cover (children may overlap, e.g. concurrent farm
  /// jobs, so their union is subtracted).
  std::map<std::string, double> self_seconds_by_layer() const;
  std::size_t span_count() const;

  /// Write every span as a Chrome trace-event JSON array; false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    std::uint64_t sim = 0;
    unsigned thread = 0;
  };

  const bool enabled_;
  const double origin_;
  mutable std::mutex mu_;  // guards spans_ and open_
  std::vector<Span> spans_;
  std::vector<int> open_;  // main-thread stack of open spans
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint64_t sim = 0)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        index_(t_ != nullptr ? t_->begin(name, sim) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer* t_;
  int index_;
};

}  // namespace perfbench
