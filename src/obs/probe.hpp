// Observability probe layer: cycle-stamped structured events + aggregate
// profiles for every engine backend.
//
// A Hub is attached to a run through core::EngineOptions::obs (runtime-only:
// it never participates in job identity or golden traces). The engines call the on_*() probe entry points from shared
// accounting helpers, so all four backends — interpreted, compiled,
// generated(linked) and freestanding — emit *identical* event streams for the
// same (machine, workload, options) run; tests/test_obs.cpp pins this.
//
// Compile-time gating: the probe call sites in the engines sit behind
// `#if RCPN_OBS` (a cmake option, -DRCPN_OBS=ON), so a default build carries
// zero probe code in the hot loop — bench_obs_overhead asserts an attached
// hub then costs nothing. This header itself always compiles (the exporters
// and their tests work on hand-built hubs in any configuration).
//
// Two consumers sit on top (src/obs/export.hpp):
//  * export_chrome_trace() — Chrome-trace-event / Perfetto JSON, one track
//    per pipeline stage;
//  * format_profile() — the aggregate StageProfile as a text report
//    (occupancy histograms, stall-cause breakdowns, firing-cost counters).
#pragma once

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
  /// A ready token found no firable transition this cycle (cause attached).
  stall,
  /// A stage's occupancy changed (sampled at end of cycle; value = tokens).
  occupancy,
};

const char* event_kind_name(EventKind k);

/// One cycle-stamped probe event. Field use depends on kind:
///  token_enter  place, seq, pc
///  retire       seq, pc
///  squash       seq, pc
///  fire         transition
///  stall        place, cause, seq, pc (the stalled token)
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

/// Bounded ring buffer of probe events: drop-oldest on overflow, with a
/// dropped counter so exporters can flag truncation instead of hiding it.
class EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit EventSink(std::size_t capacity = kDefaultCapacity)
      : buf_(capacity == 0 ? 1 : capacity) {}

  void push(const Event& e) {
    buf_[head_] = e;
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    if (size_ < buf_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  /// Events evicted because the ring was full (oldest-first eviction).
  std::uint64_t dropped() const { return dropped_; }

  /// The retained events, oldest first.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(size_);
    const std::size_t start = size_ < buf_.size() ? 0 : head_;
    for (std::size_t i = 0; i < size_; ++i)
      out.push_back(buf_[(start + i) % buf_.size()]);
    return out;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

  /// Checkpoint support (src/ckpt/): restore replays the retained events via
  /// push() and then reinstates the eviction counter, so a resumed run's
  /// stream (retained events + dropped count) matches the straight run's.
  void ckpt_set_dropped(std::uint64_t d) { dropped_ = d; }

 private:
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Model identity captured at Engine::build(): the names and the place->stage
/// mapping the exporters need, so exporting needs no live Net.
struct Meta {
  std::string model;
  std::vector<std::string> stage_names;
  std::vector<std::string> place_names;
  std::vector<std::int16_t> place_stage;  // PlaceId -> owning StageId
  std::vector<std::string> transition_names;
  /// Trigger place of each transition (-1 for independent transitions).
  std::vector<std::int16_t> transition_place;
};

/// Aggregate counters extending core::Stats with the per-structure breakdown
/// the paper's analysis lacks: where cycles pool up (occupancy), why tokens
/// wait (stall causes) and what candidate scans cost (fires vs attempts —
/// the input for profile-guided emission, ROADMAP #1).
struct StageProfile {
  std::uint64_t cycles = 0;
  /// [stage][occupancy] -> number of cycles the stage ended holding exactly
  /// that many tokens (visible + incoming). Rows grow on demand.
  std::vector<std::vector<std::uint64_t>> occupancy_hist;
  /// [place * core::kNumStallCauses + cause] — mirrors
  /// core::Stats::place_stall_causes (the always-on attribution); kept here
  /// too so a profile is self-contained once the engine is gone.
  std::vector<std::uint64_t> stall_causes;
  /// [transition] -> firings (mirrors Stats::transition_fires).
  std::vector<std::uint64_t> fires;
  /// [transition] -> candidate evaluations (try_fire entries + independent
  /// enable checks). attempts - fires = wasted scan work per transition.
  std::vector<std::uint64_t> attempts;

  bool operator==(const StageProfile&) const = default;
};

struct HubOptions {
  std::size_t ring_capacity = EventSink::kDefaultCapacity;
  /// Record individual events into the ring (the profile always aggregates).
  bool record_events = true;
};

/// Per-engine observability hub: the ring buffer, the aggregate profile and
/// the model meta. Not thread-safe — one hub per engine/run, like the engine
/// itself. Attach with `options.obs = &hub` before the run; the engine binds
/// the meta at build().
class Hub {
 public:
  explicit Hub(HubOptions options = {})
      : options_(options), sink_(options.ring_capacity) {}

  /// Called by Engine::build(). Sizes the profile; re-binding with the same
  /// shape (e.g. a rebuild of the same model) preserves accumulated counters.
  void bind(Meta meta) {
    const bool same_shape =
        bound_ && meta.place_names.size() == meta_.place_names.size() &&
        meta.transition_names.size() == meta_.transition_names.size() &&
        meta.stage_names.size() == meta_.stage_names.size();
    meta_ = std::move(meta);
    if (!same_shape) {
      profile_ = StageProfile{};
      profile_.occupancy_hist.resize(meta_.stage_names.size());
      profile_.stall_causes.assign(
          meta_.place_names.size() * core::kNumStallCauses, 0);
      profile_.fires.assign(meta_.transition_names.size(), 0);
      profile_.attempts.assign(meta_.transition_names.size(), 0);
      last_occ_.assign(meta_.stage_names.size(), ~std::uint32_t{0});
    }
    bound_ = true;
  }

  bool bound() const { return bound_; }
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
    profile_.attempts.assign(meta_.transition_names.size(), 0);
    last_occ_.assign(meta_.stage_names.size(), ~std::uint32_t{0});
  }

  // -- probe entry points (engines call these from shared helpers) ------------

  void on_token_enter(std::uint64_t cycle, std::int16_t place, std::uint32_t seq,
                      std::uint64_t pc) {
    if (options_.record_events)
      sink_.push(Event{cycle, pc, seq, 0, place, -1, EventKind::token_enter,
                       core::StallCause::no_ready_token});
  }

  void on_retire(std::uint64_t cycle, std::uint32_t seq, std::uint64_t pc) {
    if (options_.record_events)
      sink_.push(Event{cycle, pc, seq, 0, -1, -1, EventKind::retire,
                       core::StallCause::no_ready_token});
  }

  void on_squash(std::uint64_t cycle, std::uint32_t seq, std::uint64_t pc) {
    if (options_.record_events)
      sink_.push(Event{cycle, pc, seq, 0, -1, -1, EventKind::squash,
                       core::StallCause::no_ready_token});
  }

  void on_fire(std::uint64_t cycle, std::int16_t transition) {
    if (static_cast<std::size_t>(transition) < profile_.fires.size())
      ++profile_.fires[static_cast<std::size_t>(transition)];
    if (options_.record_events)
      sink_.push(Event{cycle, 0, 0, 0, -1, transition, EventKind::fire,
                       core::StallCause::no_ready_token});
  }

  void on_attempt(std::int16_t transition) {
    if (static_cast<std::size_t>(transition) < profile_.attempts.size())
      ++profile_.attempts[static_cast<std::size_t>(transition)];
  }

  void on_stall(std::uint64_t cycle, std::int16_t place, core::StallCause cause,
                std::uint32_t seq, std::uint64_t pc) {
    const std::size_t idx = static_cast<std::size_t>(place) * core::kNumStallCauses +
                            static_cast<std::size_t>(cause);
    if (idx < profile_.stall_causes.size()) ++profile_.stall_causes[idx];
    if (options_.record_events)
      sink_.push(Event{cycle, pc, seq, 0, place, -1, EventKind::stall, cause});
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
    if (options_.record_events && s < last_occ_.size() && last_occ_[s] != occ) {
      last_occ_[s] = occ;
      sink_.push(Event{cycle, 0, 0, occ, stage, -1, EventKind::occupancy,
                       core::StallCause::no_ready_token});
    }
  }

  void on_cycle_end(std::uint64_t /*cycle*/) { ++profile_.cycles; }

  // -- checkpoint support (src/ckpt/) -----------------------------------------
  // The ring contents, the aggregate profile and the occupancy
  // change-detection latch are all run state: restoring them makes the
  // resumed run's event stream byte-identical to the straight run's.
  StageProfile& ckpt_profile() { return profile_; }
  const std::vector<std::uint32_t>& last_occ() const { return last_occ_; }
  void ckpt_set_last_occ(std::size_t stage, std::uint32_t occ) {
    if (stage < last_occ_.size()) last_occ_[stage] = occ;
  }

 private:
  HubOptions options_;
  EventSink sink_;
  Meta meta_;
  StageProfile profile_;
  /// Last occupancy value recorded per stage (change detection for counter
  /// events); ~0 forces a baseline event on the first sample.
  std::vector<std::uint32_t> last_occ_;
  bool bound_ = false;
};

}  // namespace rcpn::obs
