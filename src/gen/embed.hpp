// Embedded runtime sources + the amalgamation pass behind freestanding
// simulator emission.
//
// The library's own sources (everything a generated simulator can need:
// core engine/token storage, the model layer, the gen:: engines, machines,
// ISA/memory/register-file support) are embedded verbatim into the binary at
// build time (cmake/EmbedSources.cmake generates gen_embed_data.cpp from the
// checked-in files — a single source of truth: the emitter re-emits the same
// text the library was compiled from, it never forks it).
//
// amalgamate_sources() resolves the quoted-include closure of a set of root
// headers over that table and renders one self-contained C++ block:
//  * `#include "..."` lines are resolved recursively and dropped — every
//    pulled header is inlined exactly once, in topological order;
//  * for every pulled header, the embedded .cpp files belonging to it (the
//    convention: a .cpp names its owning header in its first quoted include)
//    are appended after all headers, so the block also *links* standalone;
//  * `#include <...>` lines are hoisted to one sorted, deduplicated system
//    include block; `#pragma once` is dropped.
//
// The result is what gen::emit_simulator() places at the top of a simulator
// program (an emission with a main): a trimmed, per-model subset of the
// runtime that compiles with zero repo includes and links against nothing
// but the C++ standard library.
#pragma once

#include <string>
#include <vector>

namespace rcpn::gen {

/// One embedded source file, keyed by its repo-relative path under src/.
struct EmbeddedFile {
  const char* path;
  const char* text;
};

/// The embedded table (defined in the build-generated gen_embed_data.cpp),
/// sorted by path.
extern const EmbeddedFile kEmbeddedFiles[];
extern const unsigned kNumEmbeddedFiles;

/// The embedded text of `path`, or nullptr when the file is not embedded.
const char* find_embedded_file(const std::string& path);

/// All embedded paths, in table (path-sorted) order.
std::vector<std::string> embedded_file_paths();

/// Amalgamate the quoted-include closure of `roots` (repo-relative header
/// paths) into one self-contained block. Deterministic: byte-identical output
/// for the same roots and the same embedded table. Throws std::runtime_error
/// naming the offender when a root or a transitively included file is not in
/// the embedded set.
std::string amalgamate_sources(const std::vector<std::string>& roots);

}  // namespace rcpn::gen
