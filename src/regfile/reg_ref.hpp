// RegRef and ConstOperand: the top level of the paper's register model.
//
// A RegRef is the per-instruction view of a register — the "pipeline latch
// that carries instruction data in real hardware". It holds an internal copy
// of the value so an instruction can read sources early and write its
// destination late, which is almost equivalent to renaming the register for
// each individual instruction (paper §3.1).
//
// A ConstOperand binds a literal (immediate field, or a decode-time-known
// expression such as pc+8) to the same interface, so instruction behaviour
// descriptions are uniform over register and constant symbols.
#pragma once

#include <cassert>
#include <string>

#include "regfile/operand.hpp"
#include "regfile/register_file.hpp"

namespace rcpn::regfile {

class RegRef final : public Operand {
 public:
  RegRef() = default;

  /// Bind to register `r` of `file`. `owner_place` points at the owning
  /// instruction token's current-place field; it is how can_read_in(s)
  /// locates the writer's pipeline state without a dependency on the core
  /// token type.
  void bind(RegisterFile* file, RegisterId r, const PlaceId* owner_place);

  /// Prepare for a fresh dynamic instance of the owning instruction
  /// (decode-cache reuse). Any reservation must already be resolved.
  void reset_for_reuse();

  bool bound() const { return file_ != nullptr; }
  RegisterId register_id() const { return reg_; }
  /// Architectural name of the bound register (error messages).
  const std::string& name() const { return file_->reg(reg_).name; }
  CellId cell() const { return cell_; }
  bool reserved() const { return reserved_; }
  PlaceId owner_place() const { return owner_place_ ? *owner_place_ : kNoPlace; }

  // -- Operand interface ------------------------------------------------------
  // Defined here so the machines' issue guards and actions inline them (the
  // class is final: calls through RegRef* need no dispatch).

  /// Readable when the architectural value is current: no in-flight writer.
  bool can_read() const override { return !file_->has_writer(cell_); }
  /// Only the *newest* writer may legally source a forward; if the writer in
  /// state s is stale (a newer reservation exists), forwarding from it would
  /// feed an old value.
  bool can_read_in(PlaceId s) const override {
    RegRef* w = writer_in(s);
    return w != nullptr && w == file_->last_writer(cell_);
  }
  void read() override {
    value_ = file_->read_cell(cell_);
    value_ready_ = true;
  }
  void read_in(PlaceId s) override {
    RegRef* w = writer_in(s);
    assert(w && "read_in without matching can_read_in guard");
    value_ = w->value_;
    value_ready_ = true;
  }
  bool can_write() const override {
    if (file_->policy() == WritePolicy::single_writer) return !file_->has_writer(cell_);
    return file_->num_writers(cell_) < 4;  // bounded by realistic pipeline depth
  }
  void reserve_write() override {
    assert(!reserved_ && "double reserve_write");
    file_->push_writer(cell_, this);
    reserve_seq_ = file_->next_reserve_seq(cell_);
    reserved_ = true;
    value_ready_ = false;
  }
  void writeback() override {
    if (!reserved_)
      file_->writer_stack_error(cell_, "written back by an operand that holds no "
                                       "write reservation; the writing transition "
                                       "needs a reserve_write() before it");
    // Out-of-order completion: an older writer finishing after a newer one
    // must not clobber the newer architectural value.
    if (reserve_seq_ >= file_->committed_seq(cell_)) {
      file_->write_cell(cell_, value_);
      file_->set_committed_seq(cell_, reserve_seq_);
    }
    file_->remove_writer(cell_, this);
    reserved_ = false;
  }
  void release() override {
    if (reserved_) {
      file_->remove_writer(cell_, this);
      reserved_ = false;
    }
    value_ready_ = false;
    writer_tag_ = nullptr;
  }
  Word peek() const override { return file_->read_cell(cell_); }
  Word peek_in(PlaceId s) const override {
    RegRef* w = writer_in(s);
    assert(w && "peek_in without matching can_read_in guard");
    return w->value_;
  }

  // -- renaming support (paper §3.1: "the implementation of these interfaces
  //    may vary based on architectural features such as register renaming").
  //    A Tomasulo-style reader captures its producer at issue (the Qj/Qk tag)
  //    and later reads that producer's value directly, independent of any
  //    younger writers of the same architectural register.
  /// Capture the newest in-flight writer; false if the register is current.
  bool capture_writer() {
    writer_tag_ = file_->last_writer(cell_);
    return writer_tag_ != nullptr;
  }
  bool captured() const { return writer_tag_ != nullptr; }
  /// Has the captured producer computed its result yet?
  bool captured_ready() const {
    return writer_tag_ != nullptr && writer_tag_->value_ready();
  }
  /// Read the captured producer's value (requires captured_ready()).
  void read_captured() {
    value_ = writer_tag_->value();
    value_ready_ = true;
    writer_tag_ = nullptr;
  }

  // -- checkpoint support (src/ckpt/) ----------------------------------------
  //    Snapshot restore rebuilds the full dynamic state of a RegRef whose
  //    owning instruction was re-materialized: the latch value, the live
  //    reservation and the captured producer tag. The writer *list* of the
  //    cell is restored separately through RegisterFile::push_writer, so this
  //    setter only flips the local flag.
  std::uint32_t reserve_seq() const { return reserve_seq_; }
  RegRef* writer_tag() const { return writer_tag_; }
  void ckpt_restore(Word value, bool value_ready, bool reserved,
                    std::uint32_t reserve_seq) {
    value_ = value;
    value_ready_ = value_ready;
    reserved_ = reserved;
    reserve_seq_ = reserve_seq;
  }
  void ckpt_set_writer_tag(RegRef* w) { writer_tag_ = w; }

 private:
  /// Newest in-flight writer of our cell that currently sits in place `s`
  /// with a ready value; nullptr if none. Newest-first: with multiple
  /// in-flight writers the most recent one holds the value this (younger)
  /// reader must see.
  RegRef* writer_in(PlaceId s) const {
    for (unsigned i = file_->num_writers(cell_); i > 0; --i) {
      RegRef* w = file_->writer(cell_, i - 1);
      if (w->owner_place() == s && w->value_ready_) return w;
    }
    return nullptr;
  }

  RegisterFile* file_ = nullptr;
  const PlaceId* owner_place_ = nullptr;
  RegRef* writer_tag_ = nullptr;  // captured producer (renaming)
  std::uint32_t reserve_seq_ = 0;
  RegisterId reg_ = 0;
  CellId cell_ = 0;
  bool reserved_ = false;
};

class ConstOperand final : public Operand {
 public:
  ConstOperand() { value_ready_ = true; }
  explicit ConstOperand(Word v) {
    value_ = v;
    value_ready_ = true;
  }

  /// Constants are always readable and writes to them are no-ops with
  /// always-true guards, exactly as the paper prescribes for Const objects.
  bool can_read() const override { return true; }
  bool can_read_in(PlaceId) const override { return false; }
  void read() override {}
  void read_in(PlaceId) override {}
  bool can_write() const override { return true; }
  void reserve_write() override {}
  void writeback() override {}
  void release() override { value_ready_ = true; }
  Word peek() const override { return value_; }
  Word peek_in(PlaceId) const override { return value_; }
};

}  // namespace rcpn::regfile
