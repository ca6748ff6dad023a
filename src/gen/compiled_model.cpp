#include "gen/compiled_model.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/engine.hpp"

namespace rcpn::gen {

namespace {

CompiledTransition compile_one(CompiledModel& cm, const core::Transition& t) {
  CompiledTransition ct;
  ct.guard = t.guard_fn();
  ct.guard_env = t.guard_env();
  ct.action = t.action_fn();
  ct.action_env = t.action_env();
  ct.id = t.id();
  ct.delay = t.delay();
  ct.max_fires = t.max_fires_per_cycle();

  ct.res_in_begin = static_cast<std::uint32_t>(cm.res_in.size());
  for (const core::InArc& a : t.inputs())
    if (a.need == core::ArcNeed::reservation) cm.res_in.push_back(a.place);
  ct.n_res_in = static_cast<std::uint16_t>(cm.res_in.size() - ct.res_in_begin);

  ct.out_begin = static_cast<std::uint32_t>(cm.out_arcs.size());
  for (const core::OutArc& a : t.outputs())
    cm.out_arcs.push_back(StaticOutArc{a.place, a.emit == core::ArcEmit::reservation});
  ct.n_out = static_cast<std::uint16_t>(cm.out_arcs.size() - ct.out_begin);

  ct.simple = !t.independent() && t.inputs().size() == 1 && t.outputs().size() == 1 &&
              t.outputs()[0].emit == core::ArcEmit::move;
  if (ct.simple) ct.move_place = t.outputs()[0].place;
  return ct;
}

}  // namespace

CompiledModel CompiledModel::lower(const core::Engine& eng) {
  if (!eng.built())
    throw std::logic_error("gen: CompiledModel::lower() needs a built engine");
  const core::Net& net = eng.net();

  CompiledModel cm;
  cm.num_places = net.num_places();
  cm.num_types = net.num_types();
  cm.num_stages = net.num_stages();
  cm.num_transitions = net.num_transitions();

  // Fig 6 as contiguous runs: each sub-net transition has exactly one trigger
  // place and one type, so laying the table out cell-by-cell stores every
  // transition exactly once, already in candidate order.
  cm.cell.assign(static_cast<std::size_t>(cm.num_places) * cm.num_types, CandRange{});
  for (unsigned p = 0; p < cm.num_places; ++p) {
    for (unsigned ty = 0; ty < cm.num_types; ++ty) {
      const auto& cands =
          eng.candidates(static_cast<core::PlaceId>(p), static_cast<core::TypeId>(ty));
      CandRange& r = cm.cell[static_cast<std::size_t>(p) * cm.num_types + ty];
      r.begin = static_cast<std::uint32_t>(cm.body.size());
      r.count = static_cast<std::uint32_t>(cands.size());
      for (const core::Transition* t : cands) cm.body.push_back(compile_one(cm, *t));
    }
  }

  for (core::TransitionId tid : net.independent_transitions())
    cm.independent.push_back(compile_one(cm, net.transition(tid)));

  cm.order.assign(eng.process_order().begin(), eng.process_order().end());
  for (unsigned s = 0; s < cm.num_stages; ++s)
    if (net.stage(static_cast<core::StageId>(s)).two_list())
      cm.two_list_stages.push_back(static_cast<core::StageId>(s));

  cm.place_stage.resize(cm.num_places);
  cm.place_delay.resize(cm.num_places);
  for (unsigned p = 0; p < cm.num_places; ++p) {
    cm.place_stage[p] = net.place(static_cast<core::PlaceId>(p)).stage;
    cm.place_delay[p] = net.place(static_cast<core::PlaceId>(p)).delay;
  }

  // Token-pool sizing. A bounded stage can never hold more slots than its
  // capacity (has_room gates every entry); unlimited stages get one batch.
  // The arena hints cover the theoretical in-flight maximum: every bounded
  // slot occupied at once, by either kind of token.
  constexpr std::uint32_t kUnlimitedBatch = 64;
  std::uint64_t bounded_slots = 0;
  cm.stage_reserve.resize(cm.num_stages);
  for (unsigned s = 0; s < cm.num_stages; ++s) {
    const core::PipelineStage& st = net.stage(static_cast<core::StageId>(s));
    cm.stage_reserve[s] = st.unlimited() ? kUnlimitedBatch : st.capacity();
    if (!st.unlimited()) bounded_slots += st.capacity();
  }
  constexpr std::uint64_t kPoolCap = 4096;
  cm.instr_pool_hint = static_cast<std::uint32_t>(std::min(bounded_slots, kPoolCap));
  cm.res_pool_hint = static_cast<std::uint32_t>(std::min(bounded_slots, kPoolCap));
  return cm;
}

}  // namespace rcpn::gen
