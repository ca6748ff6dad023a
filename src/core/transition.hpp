// Transitions and arcs.
//
// A transition carries the functionality an instruction executes when moving
// between states. Enabling (paper §3, redefined from CPN):
//   guard true  AND  matching tokens on every input arc
//               AND  the output places' stages have spare capacity.
// Output arcs either move the triggering instruction token or emit a fresh
// reservation token (the "arc expression" of the paper, specialised to the
// two conversions processor models use). Input arcs from a place carry a
// priority that fixes the deterministic order in which that place's output
// transitions may consume tokens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/place.hpp"
#include "core/token.hpp"

namespace rcpn::core {

class Engine;

/// Context handed to guards and actions. `token` is the triggering
/// instruction token (nullptr inside instruction-independent transitions).
/// `transition` is the id of the transition being evaluated/fired: named
/// delegates shared between several transitions key per-transition
/// parameters off it (machines/fuzz_model.hpp is the canonical example) —
/// this is what keeps such models emittable by gen::emit_simulator, whose
/// dispatch calls one named function per case with no closure environment.
struct FireCtx {
  Engine* engine = nullptr;
  InstructionToken* token = nullptr;
  TransitionId transition = TransitionId{-1};
};

/// Raw delegates: one indirect call, no std::function overhead. This is the
/// only registration form the core layer has — the shape of the paper's
/// generated simulators. Callers register a static function plus an
/// environment pointer; the model layer (ModelBuilder) boxes arbitrary
/// closures behind this same signature when a model needs them.
using GuardFn = bool (*)(void* env, FireCtx& ctx);
using ActionFn = void (*)(void* env, FireCtx& ctx);

/// Per-firing limits of every engine's hot loop, which sizes its scratch
/// arrays by them: reservation input arcs of one transition, and distinct
/// stages its arcs touch (trigger, reservation and output places together).
/// model::ModelBuilderBase::validate() rejects transitions beyond them.
constexpr unsigned kMaxReservationInputs = 4;
constexpr unsigned kMaxArcStages = 8;

enum class ArcNeed : std::uint8_t {
  /// The arc along which the triggering instruction token enters. Exactly
  /// one per sub-net transition.
  trigger,
  /// The arc consumes one reservation token from its place.
  reservation,
};

struct InArc {
  PlaceId place = kNoPlace;
  ArcNeed need = ArcNeed::trigger;
  /// Order among the output transitions of `place` (lower fires first);
  /// meaningful on trigger arcs (Fig 6 sorts candidate lists by it).
  std::uint8_t priority = 0;
};

enum class ArcEmit : std::uint8_t {
  /// Move the triggering instruction token into the place.
  move,
  /// Emit a fresh reservation token into the place.
  reservation,
};

struct OutArc {
  PlaceId place = kNoPlace;
  ArcEmit emit = ArcEmit::move;
};

class Transition {
 public:
  Transition(std::string name, TransitionId id, TypeId subnet)
      : name_(std::move(name)), id_(id), subnet_(subnet) {}

  const std::string& name() const { return name_; }
  TransitionId id() const { return id_; }
  /// Operation class whose sub-net this transition belongs to; kNoType for
  /// instruction-independent transitions.
  TypeId subnet() const { return subnet_; }
  bool independent() const { return subnet_ == kNoType; }

  const std::vector<InArc>& inputs() const { return in_; }
  const std::vector<OutArc>& outputs() const { return out_; }
  const std::vector<PlaceId>& state_refs() const { return state_refs_; }

  bool has_guard() const { return guard_fn_ != nullptr; }
  bool eval_guard(FireCtx& ctx) const { return guard_fn_(guard_env_, ctx); }
  bool has_action() const { return action_fn_ != nullptr; }
  void run_action(FireCtx& ctx) const { action_fn_(action_env_, ctx); }

  /// Read-only view of the bound raw delegates (std::function registrations
  /// are already boxed behind these). The gen:: lowering pass copies them
  /// into its flat tables so the compiled engine dispatches without touching
  /// Transition objects; the pointed-to environments stay owned here.
  GuardFn guard_fn() const { return guard_fn_; }
  void* guard_env() const { return guard_env_; }
  ActionFn action_fn() const { return action_fn_; }
  void* action_env() const { return action_env_; }

  /// Fully-qualified C++ symbol of the delegate, when the model bound a
  /// *named* function (desc::DelegateRegistry, guard_ref/action_ref). Empty
  /// for anonymous closures. gen::emit_simulator() turns these into direct
  /// calls in the generated translation unit — a delegate without a symbol
  /// cannot be emitted. The *_takes_machine flags record the named function's
  /// arity: (Machine&, FireCtx&) or just (FireCtx&).
  const std::string& guard_symbol() const { return guard_symbol_; }
  const std::string& action_symbol() const { return action_symbol_; }
  bool guard_symbol_takes_machine() const { return guard_symbol_machine_; }
  bool action_symbol_takes_machine() const { return action_symbol_machine_; }

  /// Execution delay of the transition's functionality; added to the
  /// residence of the moved token at its next place.
  std::uint32_t delay() const { return delay_; }

  /// For independent transitions: how many times it may fire per cycle
  /// (e.g. a 2-wide fetch unit fires twice).
  int max_fires_per_cycle() const { return max_fires_; }

  /// Trigger place (kNoPlace for independent transitions).
  PlaceId trigger_place() const;
  /// Priority of the trigger arc.
  std::uint8_t trigger_priority() const;

 private:
  friend class TransitionBuilder;

  std::string name_;
  TransitionId id_;
  TypeId subnet_;
  GuardFn guard_fn_ = nullptr;
  void* guard_env_ = nullptr;
  ActionFn action_fn_ = nullptr;
  void* action_env_ = nullptr;
  std::string guard_symbol_;
  std::string action_symbol_;
  bool guard_symbol_machine_ = true;
  bool action_symbol_machine_ = true;
  std::uint32_t delay_ = 0;
  int max_fires_ = 1;
  std::vector<InArc> in_;
  std::vector<OutArc> out_;
  std::vector<PlaceId> state_refs_;
};

}  // namespace rcpn::core
