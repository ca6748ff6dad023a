// The boundary observer: fills an obs::Hub from what a core::Engine shows
// between cycles, so observing a run puts no code in any backend's loop.
//
// Attach an Observer at a cycle boundary and call end_cycle() after each
// step of one cycle. It binds the hub to the engine's net and reads, per
// cycle:
//  * retirements and squashes, through the engine's on_retire/on_squash
//    hooks (chained after the hooks already installed, restored on
//    destruction);
//  * token entries, as the (seq, place) pairs of instruction tokens in the
//    stage token lists (visible and incoming) that the previous boundary did
//    not hold: a token that enters and leaves a place within one cycle is
//    not seen there;
//  * fires and per-place stall causes, as core::Stats deltas: a stall event
//    carries place, cause and count, since a boundary cannot tell which
//    ready token got which cause;
//  * every stage's occupancy (PipelineStage::occupancy()).
//
// The events of cycle c, all stamped c, go into the ring in this order:
//   1. retire, by seq;
//   2. squash, by seq;
//   3. token_enter, by place id, then seq;
//   4. fire, by transition id;
//   5. stall, by place id, then cause;
//   6. occupancy, by stage id (the hub records a change only).
// Every backend reaches the same state at every boundary (the four-way
// harness and the every-cycle checkpoint sweep rest on that), so every
// backend gives the same stream. A window of a run is a restore at its
// first cycle with an observer attached after it.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "obs/probe.hpp"

namespace rcpn::obs {

class Observer {
 public:
  /// Start observing `eng` at its current cycle boundary into `hub`, which
  /// is bound to the engine's net (its ring and profile start empty).
  Observer(core::Engine& eng, Hub& hub);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Record the cycle the engine has just run. Call after every step of one
  /// cycle; after a step that ran no cycle it records nothing.
  void end_cycle();

 private:
  /// An instruction token at a boundary: where it sits, and its pc.
  /// Ordered by (seq, place), the pair whose change is an entry.
  struct Resident {
    std::uint32_t seq;
    core::PlaceId place;
    std::uint64_t pc;
    bool operator<(const Resident& o) const {
      return std::tie(seq, place) < std::tie(o.seq, o.place);
    }
  };
  /// A retirement or squash the hooks saw during the cycle.
  struct Exit {
    std::uint32_t seq;
    std::uint64_t pc;
  };

  void read_residents(std::vector<Resident>& out) const;

  core::Engine& eng_;
  Hub& hub_;
  core::Engine::Hooks chained_;
  /// The boundary last recorded, and the engine's counters there.
  core::Cycle clock_;
  std::vector<std::uint64_t> fires_;
  std::vector<std::uint64_t> stall_causes_;
  /// Tokens at that boundary, sorted; next_ is scratch.
  std::vector<Resident> residents_, next_;
  std::vector<Exit> retired_, squashed_;
};

}  // namespace rcpn::obs
