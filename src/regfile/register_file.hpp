// Register file: the bottom level of the paper's three-level register model
// (Figure 3). Owns the actual storage cells, tracks the in-flight writers of
// every cell, and defines the Register objects that map architectural names
// onto (possibly shared, i.e. overlapping) storage.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "regfile/operand.hpp"

namespace rcpn::regfile {

class RegRef;

/// How write reservations interact:
///  * single_writer  — can_write() is false while any writer is pending
///    (scoreboard-style: WAW and WAR stall at issue).
///  * multi_writer   — multiple reservations may be in flight; commit order
///    is repaired with per-cell sequence numbers so that an older writer
///    completing *after* a newer one (out-of-order completion) does not
///    clobber the newer value.
enum class WritePolicy : std::uint8_t { single_writer, multi_writer };

using RegisterId = std::uint16_t;
using CellId = std::uint16_t;

/// A hazard invariant the model's guards must uphold was broken: a write
/// reservation beyond the writer stack of a cell, or an operand read with no
/// readable source. The usual cause is a model whose issue transition lacks
/// its hazard guard (paper §3.1 pairing rules: read() needs can_read(),
/// reserve_write() needs can_write()). Checked in every build.
class HazardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Architectural register: a named view onto one storage cell. Overlapping
/// registers (ARM banked registers, SPARC windows) are distinct Register
/// entries sharing a cell.
struct Register {
  std::string name;
  CellId cell = 0;
};

class RegisterFile {
 public:
  /// In-flight writers one cell can hold. A handful is the realistic maximum
  /// (pipeline depth); fixed inline storage keeps the hazard checks
  /// allocation-free (Per.14).
  static constexpr unsigned kMaxWriters = 8;

  /// Creates `num_cells` zero-initialised storage cells.
  RegisterFile(unsigned num_cells, WritePolicy policy);

  /// Define a named register over `cell`. Returns its id.
  RegisterId add_register(std::string name, CellId cell);

  /// Convenience: define registers r0..r{n-1} mapped 1:1 onto cells 0..n-1.
  void add_identity_registers(unsigned n, const std::string& prefix = "r");

  const Register& reg(RegisterId id) const { return regs_[id]; }
  unsigned num_registers() const { return static_cast<unsigned>(regs_.size()); }
  unsigned num_cells() const { return static_cast<unsigned>(cells_.size()); }
  WritePolicy policy() const { return policy_; }

  Word read_cell(CellId c) const { return cells_[c].data; }
  void write_cell(CellId c, Word v) { cells_[c].data = v; }

  // -- writer tracking (used by RegRef) --------------------------------------
  bool has_writer(CellId c) const { return cells_[c].num_writers != 0; }
  unsigned num_writers(CellId c) const { return cells_[c].num_writers; }
  RegRef* writer(CellId c, unsigned i) const { return cells_[c].writers[i]; }
  /// Newest (most recently reserved) writer, or nullptr.
  RegRef* last_writer(CellId c) const {
    const Cell& cell = cells_[c];
    return cell.num_writers == 0 ? nullptr : cell.writers[cell.num_writers - 1];
  }
  /// Register `w` as the newest writer of `c`; throws HazardError (naming the
  /// cell and its registers) when the cell already holds kMaxWriters.
  void push_writer(CellId c, RegRef* w) {
    Cell& cell = cells_[c];
    if (cell.num_writers == kMaxWriters) writer_overflow(c);
    cell.writers[cell.num_writers++] = w;
  }
  void remove_writer(CellId c, RegRef* w) {
    Cell& cell = cells_[c];
    for (unsigned i = 0; i < cell.num_writers; ++i) {
      if (cell.writers[i] == w) {
        // Preserve reservation (age) order of the remaining writers.
        for (unsigned j = i + 1; j < cell.num_writers; ++j)
          cell.writers[j - 1] = cell.writers[j];
        --cell.num_writers;
        return;
      }
    }
    assert(false && "remove_writer: not a registered writer");
  }
  /// Commit sequencing for multi_writer: returns the reservation sequence.
  std::uint32_t next_reserve_seq(CellId c) { return ++cells_[c].reserve_seq; }
  /// Checkpoint support (src/ckpt/): the reservation-sequence counter is
  /// dynamic state — restore sets it back verbatim so sequence numbers issued
  /// after a resume match the original run's.
  std::uint32_t reserve_seq(CellId c) const { return cells_[c].reserve_seq; }
  void set_reserve_seq(CellId c, std::uint32_t s) { cells_[c].reserve_seq = s; }
  std::uint32_t committed_seq(CellId c) const { return cells_[c].committed_seq; }
  void set_committed_seq(CellId c, std::uint32_t s) { cells_[c].committed_seq = s; }

  /// Drop all reservations (e.g. on machine reset between runs).
  void clear_writers();

  /// Reset storage and reservations.
  void reset();

 private:
  [[noreturn]] void writer_overflow(CellId c) const;

  struct Cell {
    Word data = 0;
    std::uint32_t reserve_seq = 0;
    std::uint32_t committed_seq = 0;
    std::uint8_t num_writers = 0;
    RegRef* writers[kMaxWriters] = {};
  };

  std::vector<Cell> cells_;
  std::vector<Register> regs_;
  WritePolicy policy_;
};

}  // namespace rcpn::regfile
