// Engine-state snapshotting and deterministic resume (ROADMAP #5).
//
// A snapshot captures the complete dynamic state of a run at a cycle
// boundary: the engine scalars and Stats (including stall-cause
// accounting), every live token with its per-stage list position
// (visible vs not-yet-promoted incoming), the operand/reservation state of
// the three-level register model, the machine context (register cells,
// memories, caches, predictors, syscall capture, workload cursors) and the
// retire-trace prefix produced so far. Restoring it into a freshly loaded
// machine and continuing is byte-identical — trace and stats — to never
// having stopped, on every backend; the engine
// base class owns all dynamic state, which is what makes one snapshot format
// valid for interpreted, compiled, generated(linked) and freestanding runs
// alike.
//
// Format: versioned text ("rcpn-ckpt/5", see docs/ckpt-format.md), written
// and parsed by ckpt::StateWriter/StateReader. Restore strictly verifies the
// snapshot identity — format version, machine key, model name, model digest
// (structure and schedule), workload id — and rejects any
// mismatch with a CkptError naming the offender, mirroring src/desc/'s error
// style. The backend is deliberately NOT part of the identity: all backends
// share the engine-base state, so a snapshot written by the linked build
// restores into a freestanding binary (and vice versa).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/state_io.hpp"
#include "core/engine.hpp"
#include "regfile/reg_ref.hpp"

namespace rcpn::ckpt {

/// One retirement of the trace prefix embedded in a snapshot: the cycle it
/// happened in, the instruction's pc and its dynamic sequence number. The
/// golden sessions record their traces in this form
/// (machines::GoldenRetireEvent), so a checkpoint carries them as they are.
struct RetireEvent {
  core::Cycle cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t seq = 0;
  bool operator==(const RetireEvent&) const = default;
};

/// Cross-reference coder for RegRef pointers. Live pointers are meaningless
/// across processes, so every RegRef reachable from a live instruction token
/// is addressed as (owning token's seq, enumeration index within that token)
/// — decode order is deterministic, so the pair re-identifies the same
/// operand object after re-materialization.
class RefCoder {
 public:
  void index(const regfile::RegRef* r, std::uint32_t seq, unsigned idx) {
    to_key_[r] = (static_cast<std::uint64_t>(seq) << 16) | idx;
  }
  void admit(regfile::RegRef* r, std::uint32_t seq, unsigned idx) {
    from_key_[(static_cast<std::uint64_t>(seq) << 16) | idx] = r;
  }
  /// "none" or "seq:idx".
  std::string encode(const regfile::RegRef* r) const;
  /// Inverse of encode(); errors through `r.fail` on an unresolvable ref.
  regfile::RegRef* decode(std::string_view tok, const StateReader& r) const;

 private:
  std::unordered_map<const regfile::RegRef*, std::uint64_t> to_key_;
  std::unordered_map<std::uint64_t, regfile::RegRef*> from_key_;
};

/// Per-machine serialization hook: what the engine cannot see. One
/// implementation per machine family, usually provided by the machine's
/// golden session (machines/*.cpp).
class MachineIO {
 public:
  virtual ~MachineIO() = default;

  /// Stable machine-family key ("fig5", "fuzz-7", ...) — snapshot identity.
  virtual std::string machine_key() const = 0;
  /// Identifies the loaded workload ("golden", "crc:1", ...) — snapshot
  /// identity: restore requires the same workload to be loaded first.
  virtual std::string workload_id() const = 0;

  /// Serialize / restore the machine context (registers, memory, caches,
  /// predictors, workload cursors). Called after the token records, so
  /// restore_machine may resolve RegRef cross-references via `refs`.
  virtual void save_machine(StateWriter& w, const RefCoder& refs) const = 0;
  virtual void restore_machine(StateReader& r, const RefCoder& refs) = 0;

  /// Re-materialize the static instruction at (pc, raw): decode-cache
  /// machines return dcache.get(pc, raw) — re-decoding is deterministic, so
  /// payload and operand binding come back identical. Return nullptr for
  /// pooled plain tokens; the snapshot layer then acquires from the engine
  /// pool. Called in ascending-seq order (original decode order), so clone
  /// chains for multiply-in-flight static instructions rebuild identically.
  virtual core::InstructionToken* materialize(std::uint64_t pc, std::uint32_t raw) {
    (void)pc;
    (void)raw;
    return nullptr;
  }

  /// Dynamic payload state beyond the core token fields (e.g. an ARM
  /// instruction's resolved/nullified/effective-address latches). Writes and
  /// reads a machine-defined, fixed-shape set of records per token.
  virtual void save_token_extra(StateWriter& w, const core::InstructionToken& t) const {
    (void)w;
    (void)t;
  }
  virtual void restore_token_extra(StateReader& r, core::InstructionToken& t) {
    (void)r;
    (void)t;
  }

  /// Stable enumeration of the RegRefs a token owns. Default: the RegRef
  /// slots of ops[]. Machines holding out-of-band references (ARM
  /// register-list transfers) override with a superset enumeration.
  virtual unsigned num_reg_refs(const core::InstructionToken& t) const;
  /// The i-th enumerated RegRef, or nullptr for non-RegRef slots.
  virtual regfile::RegRef* reg_ref(const core::InstructionToken& t, unsigned i) const;
};

/// Digest of a built net: stages (name, capacity, resolved two-list bit),
/// places (name, stage, delay), types, and transitions (name, type, delay,
/// fires per cycle, input arcs with need and priority, output arcs with
/// emit kind, state references, guard and action symbols). Restore refuses
/// a snapshot whose model structure, schedule or delegate bindings changed
/// since it was written. Read after the engine's build(), which resolves the
/// two-list bits. Reads core::Net only, so freestanding programs carry it.
std::string net_digest(const core::Net& net);

/// Serialize the complete dynamic state of `eng` + `io`'s machine, with
/// `trace` as the retire-trace prefix. The engine must be between cycles
/// (not inside step()/run()).
std::string save_snapshot(core::Engine& eng, const MachineIO& io,
                          const std::vector<RetireEvent>& trace);

/// Restore `text` into `eng`/`io`. The caller must have re-created the run
/// context first (machine constructed, same workload loaded, engine reset) —
/// exactly what Simulator::load does. Verifies the snapshot identity and
/// throws CkptError naming the offending field on any mismatch. On success
/// the embedded trace prefix is returned through `trace_out`.
void restore_snapshot(const std::string& text, core::Engine& eng, MachineIO& io,
                      std::vector<RetireEvent>& trace_out);

}  // namespace rcpn::ckpt
