// CompiledModel: the "generated simulator" data of paper §4-5, materialized.
//
// The interpreted core::Engine already performs the paper's static extraction
// (Fig 6 candidate tables, reverse-topological place order, two-list set) but
// stores the results as pointer-linked structures: a vector-of-vectors of
// Transition*, each Transition a heap object carrying std::vector arc lists.
// CompiledModel::lower() flattens those build products into the dense tables
// a generated simulator would be compiled from:
//
//  * `body` — every sub-net transition, laid out contiguously grouped by
//    (trigger place, operation class) and priority-sorted within a group, so
//    one Fig 6 cell is one linear run of rows;
//  * `cell` — the Fig 6 table itself: (place, type) -> [begin, count) run;
//  * flat arc arrays (`res_in`, `out_arcs`) shared by all transitions;
//  * guard/action delegates copied out as raw function pointers with their
//    environments pre-bound — the environments (machine context,
//    builder-owned closures) stay owned by the model layer and must outlive
//    the compiled tables;
//  * the Fig 8 process order and the two-list stage set as plain id arrays.
//
// Everything is ids, exactly what gen::emit_simulator() prints as the
// constexpr Traits of a generated simulator (which names each transition's
// delegates straight from the net); gen::TableEngine resolves the stage
// pointers it needs at build(), for this runtime view (the compiled backend)
// and the emitted one alike. Neither touches the lowered core::Net.
#pragma once

#include <cstdint>
#include <vector>

#include "core/net.hpp"
#include "gen/table_engine.hpp"

namespace rcpn::gen {

/// One transition row plus its pre-bound delegates (the runtime form of an
/// emitted StaticTx, whose delegates live in the Traits dispatch switches).
struct CompiledTransition : StaticTx {
  core::GuardFn guard = nullptr;
  void* guard_env = nullptr;
  core::ActionFn action = nullptr;
  void* action_env = nullptr;
};

struct CompiledModel {
  unsigned num_places = 0;
  unsigned num_types = 0;
  unsigned num_stages = 0;
  unsigned num_transitions = 0;

  /// Sub-net transitions grouped by (trigger place, type), priority order.
  std::vector<CompiledTransition> body;
  /// Fig 6: [place * num_types + type] -> run in `body`.
  std::vector<CandRange> cell;
  /// Instruction-independent sub-net, declaration order (Fig 8 tail).
  std::vector<CompiledTransition> independent;

  /// Flat reservation-input places (StaticTx::res_in_begin).
  std::vector<core::PlaceId> res_in;
  /// Flat output arcs in declaration order (StaticTx::out_begin).
  std::vector<StaticOutArc> out_arcs;

  /// Fig 8 processing order (reverse topological; end places dropped).
  std::vector<core::PlaceId> order;
  /// Stages running the two-list (master/slave) algorithm.
  std::vector<core::StageId> two_list_stages;

  /// Per-place structure-of-arrays: owning stage and residence delay.
  std::vector<core::StageId> place_stage;
  std::vector<std::uint32_t> place_delay;

  /// Token-pool sizing, applied by TableEngine::build(): per-stage slot
  /// reservation (stage capacity; the end stage and other unlimited stages
  /// get a fixed batch) and arena pre-allocation hints, so the generated
  /// simulator's steady state never grows a vector.
  std::vector<std::uint32_t> stage_reserve;
  std::uint32_t instr_pool_hint = 0;
  std::uint32_t res_pool_hint = 0;

  const CandRange& candidates(core::PlaceId p, core::TypeId type) const {
    return cell[static_cast<std::size_t>(p) * num_types + static_cast<unsigned>(type)];
  }

  /// Flatten the build products of an already-built engine.
  static CompiledModel lower(const core::Engine& eng);
};

}  // namespace rcpn::gen
