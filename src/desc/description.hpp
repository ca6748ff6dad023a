// Serialized model descriptions: the `rcpn-model/4` format (ROADMAP #4, the
// paper's ADL angle — ADL → RCPN model → generated simulator, with the RCPN
// model now a *data* artifact instead of compiled-in C++).
//
// A Description is the complete schedule-defining content of a ModelBuilder
// model: stages (order, capacity, pinned two-list flags), places (stage
// binding, residence delay, end places), operation classes, transitions
// (trigger/reservation arcs with priorities, move/reservation outputs,
// state_refs, delays, max_fires, named guard/action delegate symbols with
// arity), the emission metadata (machine type + includes) and the deadlock
// watchdog limit. The schedule is the model's alone: a two-list ablation is
// an edit of the description (`two_list=1` on every stage, or no
// `reads_state`), not an engine option. Round-trip contract: for any
// built model, build → describe → load → build produces byte-identical
// retire traces and stats on every backend (the round-trip tests hold all six
// golden machines + the fuzz family to it).
//
// The text form is line-based and canonical — one spelling per model, so
// describing the same model twice yields byte-identical files and the model
// zoo (models/*.rcpn) can be diffed in CI. See docs/rcpn-format.md for the
// schema and versioning policy.
//
// What a description deliberately does NOT contain: delegate *code*. Symbols
// are resolved at load time through a desc::DelegateRegistry; an unknown
// symbol or version string is a model::ModelError naming it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/net.hpp"
#include "model/model_builder.hpp"

namespace rcpn::desc {

/// Version tag of the format this library reads and writes — the first line
/// of every .rcpn file. Parsers reject any other version (there is no silent
/// best-effort loading of future formats).
inline constexpr const char* kDescVersion = "rcpn-model/4";

/// Name the serialized form uses for the virtual end place (id 0) in arcs.
/// Declared place names may not start with '@'.
inline constexpr const char* kEndPlaceName = "@end";

struct DescStage {
  std::string name;
  std::uint32_t capacity = 1;
  /// Pinned two-list flag: -1 = not forced (engine analysis decides),
  /// 0/1 = force_two_list(false/true).
  int forced_two_list = -1;
};

struct DescPlace {
  std::string name;
  std::string stage;  ///< empty for additional end places
  std::uint32_t delay = 1;
  bool end = false;
};

struct DescArcIn {
  std::string place;
  bool reservation = false;  // false: trigger arc
  std::uint8_t priority = 0;
};

struct DescArcOut {
  std::string place;
  bool reservation = false;  // false: move the instruction token
};

/// A named delegate reference: the fully-qualified symbol plus the arity the
/// registry binding must have ((Machine&, FireCtx&) vs (FireCtx&)).
struct DescDelegate {
  std::string symbol;  ///< empty = no delegate bound
  bool takes_machine = true;
};

struct DescTransition {
  std::string name;
  std::string type;  ///< operation class; empty for independent transitions
  bool independent = false;
  std::vector<DescArcIn> in;
  std::vector<DescArcOut> out;
  std::vector<std::string> state_refs;
  std::uint32_t delay = 0;
  int max_fires = 1;
  DescDelegate guard;
  DescDelegate action;
};

class Description {
 public:
  std::string version = kDescVersion;
  /// Model (net) name, e.g. "Fig5".
  std::string model;
  /// Emission metadata: the machine context type and its headers.
  std::string machine_type;
  std::vector<std::string> includes;
  std::uint64_t deadlock_limit = core::EngineOptions{}.deadlock_limit;
  std::vector<DescStage> stages;
  std::vector<DescPlace> places;
  std::vector<std::string> types;
  std::vector<DescTransition> transitions;
};

/// Serialize to the canonical text form (deterministic: equal descriptions
/// render byte-identically). Throws model::ModelError if a name cannot be
/// represented (embedded whitespace, a leading '@', or an empty name).
std::string to_text(const Description& d);

/// Parse the text form. Throws model::ModelError with the offending line
/// number on malformed input, and names the version string when it is not
/// kDescVersion.
Description parse(std::string_view text);

/// Extract the description of a lowered net, recording `options`'
/// deadlock_limit. Throws model::ModelError (naming the transitions) if any
/// bound delegate is anonymous — only symbol-referenced delegates serialize.
Description describe_net(const core::Net& net, const core::EngineOptions& options);

/// `base` with the description's deadlock_limit; everything else (backend,
/// obs) is kept from `base`.
core::EngineOptions engine_options(const Description& d, core::EngineOptions base = {});

/// Read + parse a .rcpn file; throws model::ModelError naming the path on
/// IO failure.
Description read_file(const std::string& path);

/// Serialize + write; throws model::ModelError naming the path on failure.
void write_file(const std::string& path, const Description& d);

/// Canonical zoo file name for a description: the lowercased model name plus
/// ".rcpn" (e.g. "StrongArm" -> "strongarm.rcpn").
std::string canonical_file_name(const Description& d);

}  // namespace rcpn::desc
