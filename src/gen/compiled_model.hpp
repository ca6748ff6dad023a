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
//    one Fig 6 cell is one linear run of POD descriptors;
//  * `cell` — the Fig 6 table itself: (place, type) -> [begin, count) run;
//  * flat arc arrays (`res_in`, `out_arcs`) shared by all transitions;
//  * guard/action delegates copied out as raw function pointers with their
//    environments pre-bound (the ROADMAP devirtualization item) — the
//    environments (machine context, builder-owned closures) stay owned by
//    the model layer and must outlive the compiled tables;
//  * the Fig 8 process order and the two-list stage set as plain id arrays.
//
// gen::CompiledEngine executes these tables; gen::emit_cpp() prints them as
// a standalone C++ source file (the paper's "simulator generation" made
// visible); both leave the lowered core::Net untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "core/net.hpp"

namespace rcpn::core {
class Engine;
}

namespace rcpn::gen {

struct CompiledOutArc {
  core::PlaceId place = core::kNoPlace;
  /// true: emit a fresh reservation token; false: move the instruction token.
  bool reservation = false;
  /// Pre-resolved owning stage of `place` (token entry without the id hop).
  core::PipelineStage* stage = nullptr;
};

/// One transition, flattened: everything the hot loop reads in firing order,
/// no indirection into Transition/std::vector storage.
struct CompiledTransition {
  core::GuardFn guard = nullptr;
  void* guard_env = nullptr;
  core::ActionFn action = nullptr;
  void* action_env = nullptr;
  /// Simple shape only: pre-resolved destination of the single move arc.
  core::PipelineStage* move_stage = nullptr;
  core::PlaceId move_place = core::kNoPlace;
  core::TransitionId id = core::TransitionId{-1};
  std::uint32_t delay = 0;
  /// Flat ranges into CompiledModel::res_in / out_arcs.
  std::uint32_t res_in_begin = 0;
  std::uint32_t out_begin = 0;
  std::uint16_t n_res_in = 0;
  std::uint16_t n_out = 0;
  /// Independent transitions only: firings per cycle.
  std::int32_t max_fires = 1;
  /// One trigger arc in, one move arc out — the latch-to-latch fast path
  /// (precomputed so the per-firing shape test of the interpreted engine
  /// disappears).
  bool simple = false;
};

/// Half-open run into CompiledModel::body.
struct CandRange {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
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

  /// Which named delegate each entry binds (same index as body/independent;
  /// empty string = anonymous closure or no delegate). Cold emission
  /// metadata, kept out of the hot CompiledTransition rows —
  /// gen::emit_simulator() turns these into direct calls.
  struct DelegateSyms {
    std::string guard, action;
  };
  std::vector<DelegateSyms> body_syms;
  std::vector<DelegateSyms> independent_syms;

  /// Flat reservation-input places (CompiledTransition::res_in_begin).
  std::vector<core::PlaceId> res_in;
  /// Flat output arcs in declaration order (CompiledTransition::out_begin).
  std::vector<CompiledOutArc> out_arcs;

  /// Fig 8 processing order (reverse topological; end places dropped).
  std::vector<core::PlaceId> order;
  /// Pre-resolved owning stage of each `order` entry (same index): the hot
  /// loop reaches each place's token pool without the id->stage hop.
  std::vector<core::PipelineStage*> order_stage;
  /// Stages running the two-list (master/slave) algorithm.
  std::vector<core::StageId> two_list_stages;
  /// The same stages pre-resolved for the per-cycle promote loop.
  std::vector<core::PipelineStage*> two_list_stage_ptrs;

  /// Per-place structure-of-arrays: owning stage and residence delay.
  std::vector<core::StageId> place_stage;
  std::vector<std::uint32_t> place_delay;

  /// Token-pool sizing, applied by CompiledEngine::build(): per-stage slot
  /// reservation (stage capacity; the end stage and other unlimited stages
  /// get a fixed batch) and arena pre-allocation hints, so the generated
  /// simulator's steady state never grows a vector.
  std::vector<std::uint32_t> stage_reserve;
  std::uint32_t instr_pool_hint = 0;
  std::uint32_t res_pool_hint = 0;

  const CandRange& candidates(core::PlaceId p, core::TypeId type) const {
    return cell[static_cast<std::size_t>(p) * num_types + static_cast<unsigned>(type)];
  }

  /// Flatten the build products of an already-built engine. The engine is
  /// taken mutable only to pre-resolve PipelineStage pointers; the pass reads
  /// everything else through the const introspection surface.
  static CompiledModel lower(core::Engine& eng);
};

}  // namespace rcpn::gen
