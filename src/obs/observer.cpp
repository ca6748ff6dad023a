#include "obs/observer.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <tuple>
#include <utility>

namespace rcpn::obs {

namespace {

Meta meta_of(const core::Net& net) {
  Meta meta;
  meta.model = net.name();
  for (unsigned s = 0; s < net.num_stages(); ++s)
    meta.stage_names.push_back(net.stage(static_cast<core::StageId>(s)).name());
  for (unsigned p = 0; p < net.num_places(); ++p) {
    const core::Place& place = net.place(static_cast<core::PlaceId>(p));
    meta.place_names.push_back(place.name);
    meta.place_stage.push_back(place.stage);
  }
  for (unsigned t = 0; t < net.num_transitions(); ++t) {
    const core::Transition& tr = net.transition(static_cast<core::TransitionId>(t));
    meta.transition_names.push_back(tr.name());
    meta.transition_place.push_back(tr.independent() ? core::kNoPlace
                                                     : tr.trigger_place());
  }
  return meta;
}

}  // namespace

Observer::Observer(core::Engine& eng, Hub& hub)
    : eng_(eng),
      hub_(hub),
      chained_(eng.hooks()),
      clock_(eng.clock()),
      fires_(eng.stats().transition_fires),
      stall_causes_(eng.stats().place_stall_causes) {
  hub_.bind(meta_of(eng.net()));
  read_residents(residents_);
  eng_.hooks().on_retire = [this](core::InstructionToken* t) {
    if (chained_.on_retire) chained_.on_retire(t);
    retired_.push_back({t->seq, t->pc});
  };
  eng_.hooks().on_squash = [this](core::InstructionToken* t) {
    if (chained_.on_squash) chained_.on_squash(t);
    squashed_.push_back({t->seq, t->pc});
  };
}

Observer::~Observer() { eng_.hooks() = std::move(chained_); }

void Observer::read_residents(std::vector<Resident>& out) const {
  out.clear();
  const core::Net& net = eng_.net();
  for (unsigned s = 0; s < net.num_stages(); ++s) {
    const core::PipelineStage& stage = net.stage(static_cast<core::StageId>(s));
    for (const auto* list : {&stage.tokens(), &stage.incoming()})
      for (const core::Token* t : *list)
        if (t->kind == core::TokenKind::instruction) {
          const auto* it = static_cast<const core::InstructionToken*>(t);
          out.push_back({it->seq, it->place, it->pc});
        }
  }
  std::sort(out.begin(), out.end());
}

void Observer::end_cycle() {
  if (eng_.clock() == clock_) return;
  assert(eng_.clock() == clock_ + 1 && "end_cycle() after a step of several cycles");
  const core::Cycle c = clock_;
  clock_ = eng_.clock();

  const auto by_seq = [](const Exit& a, const Exit& b) { return a.seq < b.seq; };
  std::sort(retired_.begin(), retired_.end(), by_seq);
  for (const Exit& e : retired_) hub_.on_retire(c, e.seq, e.pc);
  retired_.clear();
  std::sort(squashed_.begin(), squashed_.end(), by_seq);
  for (const Exit& e : squashed_) hub_.on_squash(c, e.seq, e.pc);
  squashed_.clear();

  // Entries: the (seq, place) pairs of this boundary the last one lacked.
  read_residents(next_);
  std::vector<Resident> entered;
  std::set_difference(next_.begin(), next_.end(), residents_.begin(), residents_.end(),
                      std::back_inserter(entered));
  std::sort(entered.begin(), entered.end(), [](const Resident& a, const Resident& b) {
    return std::tie(a.place, a.seq) < std::tie(b.place, b.seq);
  });
  for (const Resident& r : entered) hub_.on_token_enter(c, r.place, r.seq, r.pc);
  residents_.swap(next_);

  const core::Stats& st = eng_.stats();
  fires_.resize(st.transition_fires.size(), 0);
  for (std::size_t t = 0; t < fires_.size(); ++t) {
    if (const std::uint64_t d = st.transition_fires[t] - fires_[t])
      hub_.on_fire(c, static_cast<std::int16_t>(t), d);
    fires_[t] = st.transition_fires[t];
  }
  stall_causes_.resize(st.place_stall_causes.size(), 0);
  for (std::size_t i = 0; i < stall_causes_.size(); ++i) {
    if (const std::uint64_t d = st.place_stall_causes[i] - stall_causes_[i])
      hub_.on_stall(c, static_cast<std::int16_t>(i / core::kNumStallCauses),
                    static_cast<core::StallCause>(i % core::kNumStallCauses), d);
    stall_causes_[i] = st.place_stall_causes[i];
  }

  const core::Net& net = eng_.net();
  for (unsigned s = 0; s < net.num_stages(); ++s)
    hub_.sample_stage(c, static_cast<std::int16_t>(s),
                      net.stage(static_cast<core::StageId>(s)).occupancy());
  hub_.on_cycle_end();
}

}  // namespace rcpn::obs
