// Pipeline stages: the storage elements instructions reside in (latches,
// reservation stations, ...). Every place is assigned to a stage; places with
// the same stage share its capacity, and the tokens of a place are physically
// stored in its stage (paper §3, "Places"). Storage is a TokenStore: the
// age-ordered token lists every backend operates on, so their token
// semantics are identical by construction.
#pragma once

#include <cstdint>
#include <string>

#include "core/token.hpp"
#include "core/token_store.hpp"

namespace rcpn::core {

class PipelineStage {
 public:
  PipelineStage(std::string name, StageId id, std::uint32_t capacity, bool is_end)
      : name_(std::move(name)), id_(id), capacity_(capacity), is_end_(is_end) {}

  const std::string& name() const { return name_; }
  StageId id() const { return id_; }
  /// 0 means unlimited (the virtual `end` stage).
  std::uint32_t capacity() const { return capacity_; }
  bool unlimited() const { return capacity_ == 0; }
  bool is_end() const { return is_end_; }

  /// Two-list (master/slave) insertion semantics: tokens added during a cycle
  /// are parked in the incoming buffer and only become visible/consumable
  /// after promote_incoming() at the start of the next cycle (Fig 8, first
  /// loop). Set automatically for circularly-referenced stages, or forced by
  /// a model for conservative forwarding timing.
  bool two_list() const { return two_list_; }
  void set_two_list(bool v) { two_list_ = v; }
  /// True if a model pinned the flag; the engine's analysis then leaves it.
  bool two_list_forced() const { return two_list_forced_; }
  void force_two_list(bool v) {
    two_list_ = v;
    two_list_forced_ = true;
  }

  /// Occupancy counts both visible and not-yet-promoted tokens: a latch is
  /// physically occupied the moment something is written into it.
  std::uint32_t occupancy() const {
    return static_cast<std::uint32_t>(store_.occupancy());
  }

  /// Can `additions` more tokens enter, given `removals` tokens leaving this
  /// stage in the same firing?
  bool has_room(std::uint32_t additions, std::uint32_t removals = 0) const {
    if (unlimited()) return true;
    return occupancy() - removals + additions <= capacity_;
  }

  const PtrList<Token>& tokens() const { return store_.ptrs(); }
  const PtrList<Token>& incoming() const { return store_.incoming_ptrs(); }

  /// The token lists themselves. Read-only: all mutation goes through the
  /// stage so the two-list routing and occupancy invariants hold.
  const TokenStore& store() const { return store_; }
  /// Pre-size the pool (gen:: lowering); the one sizing hook lowering needs.
  void reserve_store(std::size_t n) { store_.reserve(n); }

  /// Enter `t`: visible now, or next cycle on a two-list stage. Forced
  /// inline: token entry runs once per firing.
  [[gnu::always_inline]] void insert(Token* t) {
    if (two_list_) {
      store_.insert_incoming(t);
    } else {
      store_.insert_visible(t);
    }
  }

  /// Checkpoint restore: place `t` directly into the recorded list (visible
  /// or incoming), bypassing the two-list routing — a snapshot taken at a
  /// cycle boundary may hold not-yet-promoted tokens, and restore must
  /// reproduce both lists verbatim, not re-route.
  void insert_restored(Token* t, bool incoming) {
    if (incoming) {
      store_.insert_incoming(t);
    } else {
      store_.insert_visible(t);
    }
  }

  /// Remove a (visible) token; returns false if absent.
  bool remove(Token* t) { return store_.remove_visible(t); }

  /// Remove a token from either list (flush path); returns false if absent.
  bool remove_any(Token* t) { return store_.remove_any(t); }

  /// Make tokens written during the previous cycle visible.
  void promote_incoming() { store_.promote(); }

  /// Drop every token; invokes `fn(token)` for each so the caller can run
  /// squash hooks / recycle storage.
  template <typename Fn>
  void clear_tokens(Fn&& fn) {
    store_.clear(fn);
  }

 private:
  std::string name_;
  StageId id_;
  std::uint32_t capacity_;
  bool is_end_;
  bool two_list_ = false;
  bool two_list_forced_ = false;
  TokenStore store_;
};

}  // namespace rcpn::core
