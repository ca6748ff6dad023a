// Observability records: cycle-stamped structured events and the aggregate
// profile of one observed run.
//
// A Hub holds what an obs::Observer (obs/observer.hpp) reads from an engine
// at cycle boundaries: the event ring, the StageProfile and the model Meta.
// No engine calls into a hub, so every build can observe a run, and a run
// without an observer pays nothing for it. The observer reads only state
// that every backend reaches identically at a boundary, so interpreted,
// compiled, generated and freestanding runs fill a hub identically;
// tests/test_obs.cpp pins this.
//
// Two consumers sit on top (src/obs/export.hpp):
//  * export_chrome_trace() — Chrome-trace-event / Perfetto JSON, one track
//    per pipeline stage;
//  * format_profile() — the aggregate StageProfile as a text report
//    (occupancy histograms, stall-cause breakdowns, fire counts).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.hpp"

namespace rcpn::obs {

enum class EventKind : std::uint8_t {
  /// An instruction token entered a (non-end) place.
  token_enter,
  /// An instruction token reached the virtual end stage.
  retire,
  /// An instruction token was squashed by a flush.
  squash,
  /// A transition fired (instruction or independent sub-net).
  fire,
  /// Ready tokens of a place found no firable transition (cause attached).
  stall,
  /// A stage's occupancy changed (sampled at end of cycle; value = tokens).
  occupancy,
};

const char* event_kind_name(EventKind k);

/// One cycle-stamped event. Field use depends on kind:
///  token_enter  place, seq, pc
///  retire       seq, pc
///  squash       seq, pc
///  fire         transition, value = its firings in the cycle
///  stall        place, cause, value = the place's stalls of that cause in
///               the cycle (a boundary shows counts, not which token stalled)
///  occupancy    place = STAGE id, value = token count
struct Event {
  std::uint64_t cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  std::uint32_t value = 0;
  std::int16_t place = -1;
  std::int16_t transition = -1;
  EventKind kind = EventKind::token_enter;
  core::StallCause cause = core::StallCause::no_ready_token;

  bool operator==(const Event&) const = default;
};

/// Bounded ring buffer of events: drop-oldest on overflow, with a
/// dropped counter so exporters can flag truncation instead of hiding it.
/// The buffer grows as events arrive, up to the capacity, so a short
/// observed run holds only its own events; once full it wraps in place.
class EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit EventSink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(const Event& e) {
    if (buf_.size() < capacity_) {
      if (buf_.size() == buf_.capacity())
        buf_.reserve(std::min(capacity_, std::max<std::size_t>(64, 2 * buf_.size())));
      buf_.push_back(e);
      return;
    }
    buf_[head_] = e;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events evicted because the ring was full (oldest-first eviction).
  std::uint64_t dropped() const { return dropped_; }

  /// The retained events, oldest first: from head_ once the ring has
  /// wrapped (head_ stays 0 while it grows).
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(buf_.size());
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end());
    out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

  /// Drop the events and counters; the buffer keeps its allocation.
  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  /// The retained events; full (size capacity_) once the ring wraps, with
  /// head_ the oldest slot and the next one overwritten.
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Model identity bound when observation starts: the names and the
/// place->stage mapping the exporters need, so exporting needs no live Net.
struct Meta {
  std::string model;
  std::vector<std::string> stage_names;
  std::vector<std::string> place_names;
  std::vector<std::int16_t> place_stage;  // PlaceId -> owning StageId
  std::vector<std::string> transition_names;
  /// Trigger place of each transition (-1 for independent transitions).
  std::vector<std::int16_t> transition_place;
};

/// Aggregate counters over the observed cycles, extending core::Stats with
/// the per-structure breakdown the paper's analysis lacks: where cycles pool
/// up (occupancy) and why tokens wait (stall causes).
struct StageProfile {
  std::uint64_t cycles = 0;
  /// [stage][occupancy] -> number of cycles the stage ended holding exactly
  /// that many tokens (visible + incoming). Rows grow on demand.
  std::vector<std::vector<std::uint64_t>> occupancy_hist;
  /// [place * core::kNumStallCauses + cause], the observed share of
  /// core::Stats::place_stall_causes; kept here so a profile is
  /// self-contained once the engine is gone.
  std::vector<std::uint64_t> stall_causes;
  /// [transition] -> firings (the observed share of Stats::transition_fires).
  std::vector<std::uint64_t> fires;

  bool operator==(const StageProfile&) const = default;
};

/// Per-run observability hub: the ring buffer, the aggregate profile and
/// the model meta. Not thread-safe — one hub per run, like the engine
/// itself. An obs::Observer binds the meta and records into it.
class Hub {
 public:
  explicit Hub(std::size_t ring_capacity = EventSink::kDefaultCapacity)
      : sink_(ring_capacity) {}

  /// Bind the model and start from an empty ring and profile.
  void bind(Meta meta) {
    meta_ = std::move(meta);
    clear();
  }

  const Meta& meta() const { return meta_; }
  EventSink& sink() { return sink_; }
  const EventSink& sink() const { return sink_; }
  const StageProfile& profile() const { return profile_; }

  /// Drop recorded events and counters; keep the binding.
  void clear() {
    sink_.clear();
    profile_ = StageProfile{};
    profile_.occupancy_hist.resize(meta_.stage_names.size());
    profile_.stall_causes.assign(meta_.place_names.size() * core::kNumStallCauses,
                                 0);
    profile_.fires.assign(meta_.transition_names.size(), 0);
    last_occ_.assign(meta_.stage_names.size(), ~std::uint32_t{0});
  }

  // -- recording entry points (obs::Observer calls these) ---------------------

  void on_token_enter(std::uint64_t cycle, std::int16_t place, std::uint32_t seq,
                      std::uint64_t pc) {
    sink_.push({.cycle = cycle, .pc = pc, .seq = seq, .place = place,
                .kind = EventKind::token_enter});
  }

  void on_retire(std::uint64_t cycle, std::uint32_t seq, std::uint64_t pc) {
    sink_.push({.cycle = cycle, .pc = pc, .seq = seq, .kind = EventKind::retire});
  }

  void on_squash(std::uint64_t cycle, std::uint32_t seq, std::uint64_t pc) {
    sink_.push({.cycle = cycle, .pc = pc, .seq = seq, .kind = EventKind::squash});
  }

  void on_fire(std::uint64_t cycle, std::int16_t transition, std::uint64_t count) {
    if (static_cast<std::size_t>(transition) < profile_.fires.size())
      profile_.fires[static_cast<std::size_t>(transition)] += count;
    sink_.push({.cycle = cycle, .value = static_cast<std::uint32_t>(count),
                .transition = transition, .kind = EventKind::fire});
  }

  void on_stall(std::uint64_t cycle, std::int16_t place, core::StallCause cause,
                std::uint64_t count) {
    const std::size_t idx = static_cast<std::size_t>(place) * core::kNumStallCauses +
                            static_cast<std::size_t>(cause);
    if (idx < profile_.stall_causes.size()) profile_.stall_causes[idx] += count;
    sink_.push({.cycle = cycle, .value = static_cast<std::uint32_t>(count),
                .place = place, .kind = EventKind::stall, .cause = cause});
  }

  /// End-of-cycle occupancy sample for one stage. The histogram accumulates
  /// every cycle; a ring event is only recorded when the value changed, so
  /// the trace stays proportional to activity, not run length.
  void sample_stage(std::uint64_t cycle, std::int16_t stage, std::uint32_t occ) {
    const auto s = static_cast<std::size_t>(stage);
    if (s < profile_.occupancy_hist.size()) {
      auto& row = profile_.occupancy_hist[s];
      if (row.size() <= occ) row.resize(occ + 1, 0);
      ++row[occ];
    }
    if (s < last_occ_.size() && last_occ_[s] != occ) {
      last_occ_[s] = occ;
      sink_.push(
          {.cycle = cycle, .value = occ, .place = stage, .kind = EventKind::occupancy});
    }
  }

  void on_cycle_end() { ++profile_.cycles; }

 private:
  EventSink sink_;
  Meta meta_;
  StageProfile profile_;
  /// Last occupancy value recorded per stage (change detection for counter
  /// events); ~0 forces a baseline event on the first sample.
  std::vector<std::uint32_t> last_occ_;
};

}  // namespace rcpn::obs
