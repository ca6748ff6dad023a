// Golden-workload dispatch: the ONE key-indexed table of "machine X on its
// small fixed workload".
//
// The trace format, diff, session interface and CLI live in
// machines/golden_trace.hpp; the per-machine sessions (golden_session_fig2,
// golden_session_strongarm_crc, ...) live next to their machines so a
// freestanding generated simulator can inline exactly one of them. This
// header adds the key-indexed dispatch the machine-generic consumers share:
//  * tests/test_golden_traces.cpp / tests/test_freestanding.cpp — diff the
//    library backends against the checked-in tests/golden/*.trace files;
//  * the rcpn_emit tool (examples/generated/) — builds the machine's session
//    to lower and emit its standalone generated simulator;
//  * the farm's in-process executor — runs every golden job as a session.
//
// Emitted simulators never touch this dispatch: their main() calls
// golden_cli_main with the machine's session factory directly.
//
// A machine that is built but has not run is a fresh session: read its
// engine() and engine().net().
//
// Machine keys: fig2, fig5, tomasulo, strongarm_crc, xscale_adpcm, stallcause.
#pragma once

#include <string>
#include <vector>

#include "machines/golden_trace.hpp"

namespace rcpn::machines {

/// The golden machine keys, in canonical order.
const std::vector<std::string>& golden_machine_keys();

/// Model (net) name for a machine key, e.g. "fig2" -> "Fig2". Throws on an
/// unknown key.
std::string golden_model_name(const std::string& key);

/// Construct machine `key` as a checkpointable golden session (workload
/// loaded, nothing run) on the engine `options` selects. Throws on an
/// unknown key.
std::unique_ptr<GoldenSession> make_golden_session(const std::string& key,
                                                   core::EngineOptions options);

/// Machine `key`'s golden workload run to completion: the retire trace
/// together with the engine's end-of-run statistics (the four-way
/// differential harness compares both). Throws on an unknown key.
GoldenRunResult run_golden_machine_full(const std::string& key,
                                        core::EngineOptions options);

// -- emission metadata (rcpn_emit) ---------------------------------------------

/// C++ expression constructing machine `key`'s golden session with an
/// `options` variable in scope, e.g.
/// "rcpn::machines::golden_session_fig2(options)" — the whole run of an
/// emitted main, --checkpoint-*/--restore included.
std::string golden_session_expr(const std::string& key);

/// Repo-relative header declaring that session factory (and the machine it
/// constructs), e.g. "machines/simple_pipeline.hpp".
std::string golden_session_header(const std::string& key);

}  // namespace rcpn::machines
