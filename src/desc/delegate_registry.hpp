// DelegateRegistry: the single source of truth for a model's named
// guard/action delegates (paper §3's "semantic functions bound by symbol").
//
// It is the only way to bind a named delegate: nothing else can pair a
// function with a spelled-out symbol string, so the same symbol maps to the
// same function everywhere. A DelegateRegistry owns that mapping once per
// machine family:
//
//   const desc::DelegateRegistry& fig2_delegates() {
//     static const desc::DelegateRegistry reg = [] {
//       desc::DelegateRegistry r("rcpn::machines::Fig2Machine",
//                                {"machines/simple_pipeline.hpp"});
//       auto d = r.bind<Fig2Machine>();
//       d.guard<&fig2_u1_guard>("rcpn::machines::fig2_u1_guard", TokenUse::none);
//       d.action<&fig2_u1_action>("rcpn::machines::fig2_u1_action", TokenUse::none);
//       return r;
//     }();
//     return reg;
//   }
//
// and is consumed by all three symbol users:
//   * model describe callbacks — b.use_delegates(reg) then
//     .guard_ref("sym") / .action_ref("sym") bind by symbol (the registry
//     also supplies the emit machine type + includes);
//   * gen::emit_simulator — the symbols lowered onto the net come from the
//     registry bindings, so the emitted direct calls and the registered
//     function pointers cannot drift apart;
//   * desc::Description loading — ModelBuilderBase::from_description resolves
//     every serialized symbol through the registry and rejects unknown ones
//     with a ModelError naming the symbol.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <typeindex>
#include <vector>

#include "core/transition.hpp"
#include "model/model_builder.hpp"

namespace rcpn::desc {

template <typename Machine>
class TypedDelegates;

/// Whether a delegate reads the trigger token (FireCtx::token). An
/// instruction-independent transition fires without one, so a binding that
/// reads it may not go there: ModelBuilderBase::validate() rejects it,
/// naming the transition and the symbol. Bindings read it unless they say
/// otherwise.
enum class TokenUse : std::uint8_t { reads, none };

class DelegateRegistry {
 public:
  /// One named delegate: the type-erased trampoline (env = machine pointer,
  /// one direct call to the function) plus the arity the call must
  /// be emitted with — (Machine&, FireCtx&) vs (FireCtx&).
  struct Binding {
    core::GuardFn guard = nullptr;    // set for guard bindings
    core::ActionFn action = nullptr;  // set for action bindings
    bool takes_machine = true;
    TokenUse token = TokenUse::reads;
  };

  /// `machine_type` is the fully-qualified C++ machine context type and
  /// `includes` the header(s) declaring it and the delegate functions — the
  /// emission metadata ModelBuilderBase::use_delegates installs on the model.
  explicit DelegateRegistry(std::string machine_type,
                            std::vector<std::string> includes = {});

  const std::string& machine_type() const { return machine_type_; }
  const std::vector<std::string>& includes() const { return includes_; }

  /// Typed fluent adder for delegates over `Machine`. The first bind() pins
  /// the registry's machine context type; a later bind with a different type
  /// throws ModelError (one registry, one context type).
  template <typename Machine>
  TypedDelegates<Machine> bind();

  /// True if the registry's delegates take `machine` as their context type
  /// (always true for an empty registry — nothing pinned the type yet).
  bool matches_machine(std::type_index machine) const {
    return !typed_ || ctx_type_ == machine;
  }

  /// Lookup by symbol; nullptr when unknown.
  const Binding* find_guard(std::string_view symbol) const;
  const Binding* find_action(std::string_view symbol) const;

  /// All registered symbols, sorted (diagnostics / docs).
  std::vector<std::string> guard_symbols() const;
  std::vector<std::string> action_symbols() const;

  /// Register a binding under `symbol`; throws ModelError on a duplicate.
  /// Prefer the typed bind<Machine>() adder, which derives the trampoline and
  /// arity from the function itself.
  void add_guard(std::string symbol, Binding binding);
  void add_action(std::string symbol, Binding binding);

 private:
  void pin_machine(std::type_index machine);

  template <typename Machine>
  friend class TypedDelegates;

  std::string machine_type_;
  std::vector<std::string> includes_;
  bool typed_ = false;
  std::type_index ctx_type_ = std::type_index(typeid(void));
  // Ordered maps: symbol listings (errors, docs) are deterministic.
  std::map<std::string, Binding, std::less<>> guards_;
  std::map<std::string, Binding, std::less<>> actions_;
};

/// Fluent adder returned by DelegateRegistry::bind<Machine>(). Instantiates
/// one direct-call trampoline per function: `Fn` is the function itself, so
/// the indirect call the engine makes is the only
/// indirection between the hot loop and the delegate body.
template <typename Machine>
class TypedDelegates {
 public:
  template <auto Fn>
  TypedDelegates& guard(std::string symbol, TokenUse token = TokenUse::reads) {
    DelegateRegistry::Binding b;
    b.token = token;
    if constexpr (std::is_invocable_r_v<bool, decltype(Fn), Machine&, core::FireCtx&>) {
      b.takes_machine = true;
      b.guard = [](void* env, core::FireCtx& ctx) {
        return static_cast<bool>(Fn(*static_cast<Machine*>(env), ctx));
      };
    } else {
      static_assert(std::is_invocable_r_v<bool, decltype(Fn), core::FireCtx&>,
                    "registry guard must be callable as bool(Machine&, FireCtx&) "
                    "or bool(FireCtx&)");
      b.takes_machine = false;
      b.guard = [](void*, core::FireCtx& ctx) { return static_cast<bool>(Fn(ctx)); };
    }
    reg_->add_guard(std::move(symbol), b);
    return *this;
  }

  template <auto Fn>
  TypedDelegates& action(std::string symbol, TokenUse token = TokenUse::reads) {
    DelegateRegistry::Binding b;
    b.token = token;
    if constexpr (std::is_invocable_v<decltype(Fn), Machine&, core::FireCtx&>) {
      b.takes_machine = true;
      b.action = [](void* env, core::FireCtx& ctx) {
        Fn(*static_cast<Machine*>(env), ctx);
      };
    } else {
      static_assert(std::is_invocable_v<decltype(Fn), core::FireCtx&>,
                    "registry action must be callable as void(Machine&, FireCtx&) "
                    "or void(FireCtx&)");
      b.takes_machine = false;
      b.action = [](void*, core::FireCtx& ctx) { Fn(ctx); };
    }
    reg_->add_action(std::move(symbol), b);
    return *this;
  }

 private:
  friend class DelegateRegistry;
  explicit TypedDelegates(DelegateRegistry* reg) : reg_(reg) {}
  DelegateRegistry* reg_;
};

template <typename Machine>
TypedDelegates<Machine> DelegateRegistry::bind() {
  pin_machine(std::type_index(typeid(Machine)));
  return TypedDelegates<Machine>(this);
}

}  // namespace rcpn::desc
