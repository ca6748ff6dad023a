// CompiledEngine: the high-performance backend "generated" from a model at
// run time, with no C++ compile step.
//
// build() runs the shared static extraction, lowers it into a CompiledModel
// (contiguous Fig 6 runs, flat arc arrays, guards and actions as pre-bound
// raw delegates) and hands that to gen::TableEngine, the one hot loop the
// generated backend runs too. Everything that defines the *semantics* —
// token services, two-list promotion, retirement, flush, pools, stats, the
// deadlock watchdog — is the inherited Engine code operating on the same
// state, so the backends are cycle-for-cycle equivalent by construction
// (tests/test_gen.cpp pins this stepwise on five machine models, and
// tests/test_freestanding.cpp's four-way harness on all six golden machines).
//
// Actions keep calling FireCtx::engine services unchanged: a CompiledEngine
// IS-A core::Engine, so models never know which backend runs them.
//
// The two-list options act at analysis time and are honored by every
// backend.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "gen/compiled_model.hpp"
#include "gen/table_engine.hpp"

namespace rcpn::gen {

/// TableEngine's view of a CompiledModel lowered at build(); delegates
/// dispatch through each row's bound function pointer.
struct RuntimeTables {
  using Row = CompiledTransition;
  CompiledModel cm;

  void bind(core::Engine& eng) { cm = CompiledModel::lower(eng); }
  const Row& body(std::uint32_t i) const { return cm.body[i]; }
  std::uint32_t num_body() const { return static_cast<std::uint32_t>(cm.body.size()); }
  const Row& independent(std::uint32_t i) const { return cm.independent[i]; }
  std::uint32_t num_independent() const {
    return static_cast<std::uint32_t>(cm.independent.size());
  }
  const CandRange* cells(core::PlaceId p) const {
    return cm.cell.data() + static_cast<std::size_t>(p) * cm.num_types;
  }
  core::PlaceId res_in(std::uint32_t i) const { return cm.res_in[i]; }
  StaticOutArc out_arc(std::uint32_t i) const { return cm.out_arcs[i]; }
  std::uint32_t stage_reserve(unsigned s) const { return cm.stage_reserve[s]; }
  std::uint32_t instr_pool_hint() const { return cm.instr_pool_hint; }
  std::uint32_t res_pool_hint() const { return cm.res_pool_hint; }
  static bool guard(const Row& r, core::FireCtx& ctx) {
    return r.guard == nullptr || r.guard(r.guard_env, ctx);
  }
  static void action(const Row& r, core::FireCtx& ctx) {
    if (r.action != nullptr) r.action(r.action_env, ctx);
  }
};

extern template class TableEngine<RuntimeTables>;

class CompiledEngine final : public TableEngine<RuntimeTables> {
 public:
  explicit CompiledEngine(core::Net& net, core::EngineOptions options = {})
      : TableEngine(net, options) {}

  /// The lowered tables (introspection, emit_simulator, tests).
  const CompiledModel& compiled() const { return tables_.cm; }
};

}  // namespace rcpn::gen
