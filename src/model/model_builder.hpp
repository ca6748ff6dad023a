// The declarative modeling API (paper §3: a designer *describes* stages,
// latches and operation-class sub-nets; the simulator is generated from the
// description).
//
// ModelBuilder<Machine> is a construction-time layer over core::Net:
//
//  * declarations return typed handles (StageHandle, PlaceHandle, TypeHandle,
//    TransitionHandle) instead of raw integer ids;
//  * transitions are described with a fluent TransitionBuilder whose guards
//    and actions receive the machine context *typed* — bool(Machine&,
//    FireCtx&) — so no model code ever casts a void*;
//  * build() validates the whole description (duplicate names, dangling or
//    foreign handles, zero capacities, malformed arc sets) and throws
//    ModelError with a precise message instead of corrupting a net;
//  * lowering produces a plain core::Net: the engine's hot path (Fig 6 sorted
//    tables, two-list analysis, token pools) is untouched — the builder costs
//    nothing after build().
//
// The builder must outlive the lowered net: it owns the bound guard/action
// closures the net's transitions point into. model::Simulator<M> packages
// builder, net, engine and machine with the right lifetimes; use it unless
// you are doing something unusual.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeindex>
#include <vector>

#include "core/net.hpp"
#include "model/handles.hpp"

namespace rcpn::core {
struct EngineOptions;
}  // namespace rcpn::core

namespace rcpn::desc {
// Serialized model descriptions (src/desc/): the versioned model-as-data
// form of a builder description, and the symbol -> typed delegate registry
// that binds its named guards/actions. Only forward-declared here — the
// builder header stays independent of the serialization layer.
class Description;
class DelegateRegistry;
}  // namespace rcpn::desc

namespace rcpn::model {

/// Thrown by ModelBuilder::build() on an invalid model description.
class ModelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Non-template core of the builder: declaration records, validation and
/// lowering. The typed layer (ModelBuilder<M>) only adds guard/action binding.
class ModelBuilderBase {
 public:
  explicit ModelBuilderBase(std::string name);
  ModelBuilderBase(const ModelBuilderBase&) = delete;
  ModelBuilderBase& operator=(const ModelBuilderBase&) = delete;

  const std::string& name() const { return name_; }

  /// Declare a pipeline stage with `capacity` token slots (>= 1).
  StageHandle add_stage(std::string name, std::uint32_t capacity);
  /// Declare a place bound to `stage`; `delay` is its residence time (>= 1).
  PlaceHandle add_place(std::string name, StageHandle stage, std::uint32_t delay = 1);
  /// Declare an additional end place (shares the unlimited virtual end stage).
  PlaceHandle add_end_place(std::string name);
  /// Declare an operation class (instruction type / sub-net).
  TypeHandle add_type(std::string name);

  /// The virtual end place every instruction token retires into.
  PlaceHandle end() const { return PlaceHandle(tag_, core::PlaceId{0}); }

  // -- generation metadata ------------------------------------------------------
  // For gen::emit_simulator(): the fully-qualified C++ type of the machine
  // context the named delegates take, and the header(s) declaring that type
  // and those functions. A model that binds every guard/action by symbol
  // (use_delegates + guard_ref/action_ref) is fully emittable as a
  // standalone generated simulator; use_delegates sets both from the
  // registry.
  void emit_machine_type(std::string type) { emit_machine_type_ = std::move(type); }
  void emit_include(std::string header) { emit_includes_.push_back(std::move(header)); }

  // -- serialized descriptions (src/desc/) --------------------------------------

  /// Export the built model as a versioned serialized description
  /// (desc::kDescVersion): stages, places, types, transitions with arcs and
  /// named delegate symbol refs, emission metadata, and `options`'
  /// deadlock_limit. Requires built(); throws
  /// ModelError if any bound delegate is anonymous (unnamed closures cannot
  /// be serialized as data). Defined in desc/description.cpp.
  desc::Description describe(const core::EngineOptions& options) const;

  /// Load a serialized description into this (empty, un-built) builder:
  /// declarations are replayed in description order, and every guard/action
  /// symbol is resolved through `registry` — an unknown symbol or a
  /// description with an unsupported version is a ModelError naming it.
  /// After loading, build() lowers the model exactly as if the declarations
  /// had been made by hand. Defined in desc/description.cpp.
  void from_description(const desc::Description& description,
                        const desc::DelegateRegistry& registry);

  /// Attach the model's DelegateRegistry: installs its machine type +
  /// includes as the emission metadata and enables guard_ref/action_ref
  /// symbol binding. The typed overload on ModelBuilder<M> verifies the
  /// registry's context type against M.
  void use_delegates(const desc::DelegateRegistry& registry) {
    use_delegates_checked(registry, std::type_index(typeid(void)));
  }

  /// The attached registry, or nullptr.
  const desc::DelegateRegistry* delegates() const { return delegates_; }

  /// Pin the two-list (master/slave) flag of a stage, overriding the engine's
  /// circular-reference analysis (e.g. a combinational forwarding latch).
  void force_two_list(StageHandle stage, bool value);

  /// True if this builder issued `h` (guards Simulator::fires and other
  /// post-build lookups against dangling or foreign handles).
  bool owns(TransitionHandle h) const { return h.valid() && h.model_ == tag_; }

  /// True once build() has lowered the description.
  bool built() const { return net_.has_value(); }
  core::Net& net();
  const core::Net& net() const;

  /// Validate and lower the *structure* only — stages, places, types, arcs,
  /// delays — into a fresh net with no guards or actions bound. Works before
  /// build() and needs no machine context, so analysis passes (CPN
  /// conversion, DOT export) can consume a typed model description without
  /// constructing the machine it simulates. Callable any number of times;
  /// does not mark the builder built. Throws ModelError like build().
  core::Net structural_net() const;

 protected:
  using ErasedGuard = std::function<bool(void*, core::FireCtx&)>;
  using ErasedAction = std::function<void(void*, core::FireCtx&)>;

  struct InArcDef {
    PlaceHandle place;
    bool reservation = false;  // false: trigger arc
    std::uint8_t priority = 0;
  };
  struct OutArcDef {
    PlaceHandle place;
    bool reservation = false;  // false: move the instruction token
  };
  struct TransitionDef {
    std::string name;
    TypeHandle type;  // invalid for instruction-independent transitions
    bool independent = false;
    std::vector<InArcDef> in;
    std::vector<OutArcDef> out;
    std::vector<PlaceHandle> state_refs;
    std::optional<std::uint8_t> priority_override;
    std::uint32_t delay = 0;
    int max_fires = 1;
    ErasedGuard guard;
    ErasedAction action;
    /// Fast path for stateless callables: a trampoline instantiated per
    /// lambda type whose env is the machine pointer itself — one indirect
    /// call, the shape of the paper's generated simulators. Set instead of
    /// guard/action when the callable is empty.
    core::GuardFn fast_guard = nullptr;
    core::ActionFn fast_action = nullptr;
    /// Fully-qualified symbols of named delegates (guard_ref/action_ref);
    /// empty for anonymous closures. Lowered onto the core transition for
    /// gen::emit_simulator, together with the arity the call must be emitted
    /// with ((Machine&, FireCtx&) vs (FireCtx&)).
    std::string guard_symbol;
    std::string action_symbol;
    bool guard_symbol_machine = true;
    bool action_symbol_machine = true;
    /// The registry binding of the named delegate reads FireCtx::token
    /// (desc::TokenUse), which an independent transition never supplies.
    bool guard_reads_token = false;
    bool action_reads_token = false;
    /// Any callable was registered in the typed (Machine&) form, so
    /// build(nullptr) must be rejected.
    bool needs_machine = false;
  };

  TransitionDef& add_transition_def(std::string name, TypeHandle type, bool independent,
                                    TransitionHandle* out_handle);

  /// Validate the whole description, then lower it into an owned core::Net
  /// whose guard/action closures receive `machine`. Throws ModelError.
  core::Net& build_erased(void* machine);

  // Registry-backed symbol binding (guard_ref/action_ref and the description
  // loader); defined in desc/delegate_registry.cpp. Throws ModelError when no
  // registry is attached or the symbol is unknown.
  void use_delegates_checked(const desc::DelegateRegistry& registry,
                             std::type_index machine);
  void bind_guard_ref(TransitionDef& def, const std::string& symbol);
  void bind_action_ref(TransitionDef& def, const std::string& symbol);

  detail::ModelTag tag() const { return tag_; }

 private:
  struct StageDef {
    std::string name;
    std::uint32_t capacity = 0;
    std::optional<bool> forced_two_list;
  };
  struct PlaceDef {
    std::string name;
    StageHandle stage;  // unused when `end` (the virtual end stage)
    std::uint32_t delay = 1;
    bool end = false;
  };

  const desc::DelegateRegistry& require_delegates(const char* what,
                                                  const std::string& symbol) const;

  [[noreturn]] void fail(const std::string& what) const;
  void check_handle_base(detail::ModelTag model, const char* kind, int id, std::size_t limit,
                         const std::string& context) const;
  template <typename Handle>
  void check_handle(Handle h, const char* kind, std::size_t limit,
                    const std::string& context) const;
  void validate() const;
  void lower_structure_into(core::Net& net) const;

  std::string name_;
  detail::ModelTag tag_;
  std::vector<StageDef> stages_;
  std::vector<PlaceDef> places_;
  std::vector<std::string> types_;
  std::deque<TransitionDef> transitions_;
  std::string emit_machine_type_;
  std::vector<std::string> emit_includes_;
  const desc::DelegateRegistry* delegates_ = nullptr;

  std::optional<core::Net> net_;
  // Bound callables the lowered net points into (stable addresses).
  struct Bound {
    ErasedGuard guard;
    ErasedAction action;
    void* machine = nullptr;
  };
  std::deque<Bound> bound_;
};

template <typename Handle>
void ModelBuilderBase::check_handle(Handle h, const char* kind, std::size_t limit,
                                    const std::string& context) const {
  // PlaceHandle/StageHandle id 0 (the virtual end place/stage) is always
  // in range; declared entities occupy ids [1, limit].
  check_handle_base(h.valid() ? h.model_ : detail::kNoModel, kind, static_cast<int>(h.id()),
                    limit, context);
}

namespace detail {
/// Placeholder context type so ModelBuilder<void>'s guard/action templates
/// stay well-formed (no `void&` is ever spelled); never instantiated at
/// runtime.
struct NoMachine {};
}  // namespace detail

/// Typed fluent builder. `Machine` is the model's context type; guards and
/// actions may take either (Machine&, FireCtx&) or just (FireCtx&). With the
/// default Machine = void only the (FireCtx&) form exists.
template <typename Machine = void>
class ModelBuilder : public ModelBuilderBase {
  using Ctx = std::conditional_t<std::is_void_v<Machine>, detail::NoMachine, Machine>;

 public:
  using ModelBuilderBase::ModelBuilderBase;

  /// Fluent construction handle for one transition declaration.
  class TransitionBuilder {
   public:
    /// Trigger input arc: the instruction token is consumed from `p`.
    TransitionBuilder& from(PlaceHandle p, std::uint8_t priority = 0) {
      def_->in.push_back({p, /*reservation=*/false, priority});
      return *this;
    }
    /// Extra input arc consuming one reservation token from `p`.
    TransitionBuilder& consume_reservation(PlaceHandle p) {
      def_->in.push_back({p, /*reservation=*/true, 0});
      return *this;
    }
    /// Output arc moving the instruction token to `p`.
    TransitionBuilder& to(PlaceHandle p) {
      def_->out.push_back({p, /*reservation=*/false});
      return *this;
    }
    /// Output arc emitting a fresh reservation token into `p`.
    TransitionBuilder& emit_reservation(PlaceHandle p) {
      def_->out.push_back({p, /*reservation=*/true});
      return *this;
    }
    /// Declare that the guard queries the state of place `p` (can_read_in
    /// etc.); feeds the engine's circular-reference analysis.
    TransitionBuilder& reads_state(PlaceHandle p) {
      def_->state_refs.push_back(p);
      return *this;
    }
    /// Order among the output transitions of the trigger place (lower fires
    /// first). Alternative spelling of from()'s second argument.
    TransitionBuilder& priority(std::uint8_t pr) {
      def_->priority_override = pr;
      return *this;
    }
    /// Execution delay added to the moved token's next residence.
    TransitionBuilder& delay(std::uint32_t d) {
      def_->delay = d;
      return *this;
    }
    /// Independent transitions only: maximum firings per cycle (n-wide fetch).
    TransitionBuilder& max_fires_per_cycle(int n) {
      def_->max_fires = n;
      return *this;
    }

    /// Guard: bool(Machine&, FireCtx&) — or bool(FireCtx&) when the machine
    /// context is not needed. A capture-less callable lowers to a single
    /// raw-delegate call (no std::function in the hot loop): the engine's
    /// dispatch is then identical to hand-registered GuardFn delegates.
    template <typename G>
    TransitionBuilder& guard(G g) {
      // Last writer wins regardless of which storage the callable lands in.
      def_->guard = nullptr;
      def_->fast_guard = nullptr;
      def_->guard_symbol.clear();
      constexpr bool stateless = std::is_empty_v<G> && std::is_default_constructible_v<G>;
      if constexpr (!std::is_void_v<Machine> &&
                    std::is_invocable_r_v<bool, G&, Ctx&, core::FireCtx&>) {
        def_->needs_machine = true;
        if constexpr (stateless) {
          def_->fast_guard = [](void* env, core::FireCtx& ctx) {
            return static_cast<bool>(G{}(*static_cast<Ctx*>(env), ctx));
          };
        } else {
          def_->guard = [g = std::move(g)](void* m, core::FireCtx& ctx) mutable {
            return static_cast<bool>(g(*static_cast<Ctx*>(m), ctx));
          };
        }
      } else {
        static_assert(std::is_invocable_r_v<bool, G&, core::FireCtx&>,
                      "guard must be callable as bool(Machine&, FireCtx&) or bool(FireCtx&)");
        if constexpr (stateless) {
          def_->fast_guard = [](void*, core::FireCtx& ctx) {
            return static_cast<bool>(G{}(ctx));
          };
        } else {
          def_->guard = [g = std::move(g)](void*, core::FireCtx& ctx) mutable {
            return static_cast<bool>(g(ctx));
          };
        }
      }
      return *this;
    }

    /// Guard bound by *symbol* through the model's DelegateRegistry
    /// (use_delegates must have been called). The registry supplies the
    /// function pointer and arity, so the symbol string is the only thing
    /// spelled at the call site, and gen::emit_simulator() emits a direct
    /// call to it. Throws ModelError on an unknown symbol.
    TransitionBuilder& guard_ref(const std::string& symbol) {
      owner_->bind_guard_ref(*def_, symbol);
      return *this;
    }

    /// Action counterpart of guard_ref().
    TransitionBuilder& action_ref(const std::string& symbol) {
      owner_->bind_action_ref(*def_, symbol);
      return *this;
    }

    /// Action: void(Machine&, FireCtx&) — or void(FireCtx&). Same stateless
    /// fast path as guard().
    template <typename A>
    TransitionBuilder& action(A a) {
      def_->action = nullptr;
      def_->fast_action = nullptr;
      def_->action_symbol.clear();
      constexpr bool stateless = std::is_empty_v<A> && std::is_default_constructible_v<A>;
      if constexpr (!std::is_void_v<Machine> &&
                    std::is_invocable_v<A&, Ctx&, core::FireCtx&>) {
        def_->needs_machine = true;
        if constexpr (stateless) {
          def_->fast_action = [](void* env, core::FireCtx& ctx) {
            A{}(*static_cast<Ctx*>(env), ctx);
          };
        } else {
          def_->action = [a = std::move(a)](void* m, core::FireCtx& ctx) mutable {
            a(*static_cast<Ctx*>(m), ctx);
          };
        }
      } else {
        static_assert(std::is_invocable_v<A&, core::FireCtx&>,
                      "action must be callable as void(Machine&, FireCtx&) or void(FireCtx&)");
        if constexpr (stateless) {
          def_->fast_action = [](void*, core::FireCtx& ctx) { A{}(ctx); };
        } else {
          def_->action = [a = std::move(a)](void*, core::FireCtx& ctx) mutable { a(ctx); };
        }
      }
      return *this;
    }

    TransitionHandle handle() const { return h_; }
    operator TransitionHandle() const { return h_; }

   private:
    friend class ModelBuilder;
    TransitionBuilder(ModelBuilder* owner, TransitionDef* def, TransitionHandle h)
        : owner_(owner), def_(def), h_(h) {}
    ModelBuilder* owner_;
    TransitionDef* def_;
    TransitionHandle h_;
  };

  /// Attach the model's DelegateRegistry (see ModelBuilderBase): verifies the
  /// registry's delegates take this builder's Machine as context.
  void use_delegates(const desc::DelegateRegistry& registry) {
    use_delegates_checked(registry, std::type_index(typeid(Ctx)));
  }

  /// Declare a transition in operation class `type`'s sub-net.
  TransitionBuilder add_transition(std::string name, TypeHandle type) {
    TransitionHandle h;
    TransitionDef& def = add_transition_def(std::move(name), type, /*independent=*/false, &h);
    return TransitionBuilder(this, &def, h);
  }
  /// Declare an instruction-independent transition (fetch, µ-op expansion);
  /// runs at the end of every cycle in declaration order.
  TransitionBuilder add_independent_transition(std::string name) {
    TransitionHandle h;
    TransitionDef& def =
        add_transition_def(std::move(name), TypeHandle{}, /*independent=*/true, &h);
    return TransitionBuilder(this, &def, h);
  }

  /// Validate and lower to a core::Net whose guards/actions receive
  /// `*machine`. The builder keeps owning the net and the bound closures.
  core::Net& build(Machine* machine)
    requires(!std::is_void_v<Machine>)
  {
    return build_erased(machine);
  }
  core::Net& build()
    requires(std::is_void_v<Machine>)
  {
    return build_erased(nullptr);
  }
};

}  // namespace rcpn::model
