#include "regfile/register_file.hpp"

namespace rcpn::regfile {

RegisterFile::RegisterFile(unsigned num_cells, WritePolicy policy)
    : cells_(num_cells), policy_(policy) {}

RegisterId RegisterFile::add_register(std::string name, CellId cell) {
  assert(cell < cells_.size());
  regs_.push_back(Register{std::move(name), cell});
  return static_cast<RegisterId>(regs_.size() - 1);
}

void RegisterFile::add_identity_registers(unsigned n, const std::string& prefix) {
  assert(n <= cells_.size());
  for (unsigned i = 0; i < n; ++i)
    add_register(prefix + std::to_string(i), static_cast<CellId>(i));
}

void RegisterFile::writer_overflow(CellId c) const {
  writer_stack_error(c, ("already has " + std::to_string(kMaxWriters) +
                         " in-flight writers; a write reservation was taken "
                         "without a can_write() guard")
                            .c_str());
}

void RegisterFile::writer_stack_error(CellId c, const char* what) const {
  std::string names;
  for (const Register& r : regs_) {
    if (r.cell != c) continue;
    if (!names.empty()) names += ", ";
    names += r.name;
  }
  throw HazardError(std::string("register file: cell ") + std::to_string(c) + " (" +
                    (names.empty() ? std::string("no register") : names) + ") " +
                    what);
}

void RegisterFile::clear_writers() {
  for (Cell& cell : cells_) {
    cell.num_writers = 0;
    cell.reserve_seq = 0;
    cell.committed_seq = 0;
  }
}

void RegisterFile::reset() {
  clear_writers();
  for (Cell& cell : cells_) cell.data = 0;
}

}  // namespace rcpn::regfile
