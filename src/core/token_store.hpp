// TokenStore: per-stage token storage, plus the dense chunked arenas the
// engine's token pools recycle from.
//
// A stage holds two age-ordered (insertion-order) lists of Token pointers:
// the visible slots every Process(place) scans, and the incoming buffer of
// the two-list (master/slave) algorithm. Every backend filters a list by
// dereferencing the tokens themselves (place, kind, ready), so each token
// field has one copy and insert, erase and promote touch a single list.
// (Parallel key/ready lanes with AVX2 scans were measured slower end to end:
// every shipped in-order latch holds one token, and keeping the lanes in
// step cost more on each firing than the wide scans saved.)
//
// The lists, and the engine's free lists, are PtrLists: an append is a
// compare, a store and an increment, and growth is one cold out-of-line
// member. So token entry, retirement and recycling stay small enough to
// inline into every run() loop, XScale's ten-place fold included (with
// std::vector each inlined append carried its own reallocation path, which
// pushed that fold past GCC's inlining budget).
//
// gen::TableEngine::build() sizes these lists from the lowering's hints
// (TokenStore::reserve + Engine::reserve_token_pools), so the compiled and
// generated backends never grow a list in steady state
// (TokenLists.ArmGoldenRunsNeverGrowAListAfterBuild checks every buffer
// across the StrongArm and XScale golden runs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/token.hpp"

namespace rcpn::core {

/// A growable list of T pointers: a heap buffer, a size and a capacity.
/// push_back() is a compare, a store and an increment; growing the buffer is
/// the cold member grow(), kept out of line so every inlined append stays
/// small. Pointer iterators; order is insertion order unless erased.
template <typename T>
class PtrList {
 public:
  PtrList() = default;
  PtrList(const PtrList&) = delete;
  PtrList(PtrList&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  PtrList& operator=(PtrList&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    return *this;
  }
  ~PtrList() { delete[] data_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// The buffer (stable until the list grows).
  T* const* data() const { return data_; }

  T* const* begin() const { return data_; }
  T* const* end() const { return data_ + size_; }
  T* operator[](std::size_t i) const { return data_[i]; }
  T* front() const { return data_[0]; }
  T* back() const { return data_[size_ - 1]; }

  void push_back(T* p) {
    if (size_ == cap_) [[unlikely]] grow(0);
    data_[size_++] = p;
  }
  void pop_back() { --size_; }
  void clear() { size_ = 0; }
  /// Ensure room for `n` pointers without growing again.
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  /// Remove the slot at `i`, shifting the younger slots down (age order).
  void erase_at(std::size_t i) {
    std::copy(data_ + i + 1, data_ + size_, data_ + i);
    --size_;
  }

 private:
  /// Reallocate to at least `at_least` slots, and at least double: the one
  /// allocation path, off every inlined append.
  [[gnu::cold, gnu::noinline]] void grow(std::size_t at_least) {
    constexpr std::size_t kMax = ~std::uint32_t{0};
    std::size_t cap = cap_ == 0 ? 8 : std::size_t{cap_} * 2;
    cap = std::min(std::max(cap, at_least), kMax);
    if (cap <= size_) throw std::length_error("PtrList: too many slots");
    T** data = new T*[cap];
    std::copy(data_, data_ + size_, data);
    delete[] data_;
    data_ = data;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  T** data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

class TokenStore {
 public:
  // -- visible slots (age order) ----------------------------------------------
  std::size_t size() const { return ptrs_.size(); }
  bool empty() const { return ptrs_.empty(); }
  const PtrList<Token>& ptrs() const { return ptrs_; }

  // -- incoming buffer (two-list stages) --------------------------------------
  const PtrList<Token>& incoming_ptrs() const { return in_ptrs_; }

  std::size_t occupancy() const { return ptrs_.size() + in_ptrs_.size(); }

  /// Pre-size both lists (compiled lowering: stage capacity), so steady state
  /// never reallocates.
  void reserve(std::size_t n) {
    ptrs_.reserve(n);
    in_ptrs_.reserve(n);
  }

  /// Append `t` as the youngest slot of the visible list / incoming buffer.
  void insert_visible(Token* t) { ptrs_.push_back(t); }
  void insert_incoming(Token* t) { in_ptrs_.push_back(t); }

  /// Remove a visible token, preserving age order; false if absent. The
  /// youngest slot pops directly (the only slot of a latch).
  bool remove_visible(Token* t) {
    if (!ptrs_.empty() && ptrs_.back() == t) {
      ptrs_.pop_back();
      return true;
    }
    return erase(ptrs_, t);
  }
  /// Remove from either list (flush path); false if absent.
  bool remove_any(Token* t) { return erase(ptrs_, t) || erase(in_ptrs_, t); }

  /// Make tokens written during the previous cycle visible and publish their
  /// pipeline state (InstructionToken::state) for hazard queries.
  void promote() {
    if (in_ptrs_.empty()) return;
    for (Token* t : in_ptrs_) {
      ptrs_.push_back(t);
      if (t->kind == TokenKind::instruction)
        static_cast<InstructionToken*>(t)->state = t->place;
    }
    in_ptrs_.clear();
  }

  /// Drop every token, visible first then incoming (the established squash
  /// order); invokes `fn(token)` for each.
  template <typename Fn>
  void clear(Fn&& fn) {
    for (Token* t : ptrs_) fn(t);
    for (Token* t : in_ptrs_) fn(t);
    ptrs_.clear();
    in_ptrs_.clear();
  }

 private:
  // Out of line, so remove_visible()'s youngest-slot path stays small enough
  // to inline into the hot loops.
  [[gnu::noinline]] static bool erase(PtrList<Token>& list, Token* t) {
    const auto it = std::find(list.begin(), list.end(), t);
    if (it == list.end()) return false;
    list.erase_at(static_cast<std::size_t>(it - list.begin()));
    return true;
  }

  PtrList<Token> ptrs_;
  PtrList<Token> in_ptrs_;
};

/// Dense chunked token arena: contiguous blocks instead of one heap object
/// per token (the old vector<unique_ptr<T>> pools), so recycled tokens of the
/// same pool share cache lines. Pointers are stable for the arena's lifetime;
/// the engine's free lists hand slots back out LIFO, exactly as before.
template <typename T>
class TokenArena {
 public:
  T* allocate() {
    if (chunks_.empty() || chunks_.back().used == chunks_.back().cap) grow(0);
    Chunk& c = chunks_.back();
    return &c.data[c.used++];
  }

  /// Ensure at least `n` more slots exist without further allocation.
  /// allocate() only serves from the newest chunk, so when the current one
  /// cannot cover `n` a fresh chunk of at least `n` is opened (the old
  /// chunk's tail stays owned-but-unused; reserve is a pre-warm call, not a
  /// steady-state one).
  void reserve(std::size_t n) {
    const std::size_t spare =
        chunks_.empty() ? 0 : chunks_.back().cap - chunks_.back().used;
    if (spare < n) grow(n);
  }

  std::size_t allocated() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.used;
    return n;
  }

 private:
  struct Chunk {
    std::unique_ptr<T[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  void grow(std::size_t at_least) {
    std::size_t cap = chunks_.empty() ? 64 : chunks_.back().cap * 2;
    if (cap < at_least) cap = at_least;
    chunks_.push_back(Chunk{std::make_unique<T[]>(cap), cap, 0});
  }

  std::vector<Chunk> chunks_;
};

}  // namespace rcpn::core
