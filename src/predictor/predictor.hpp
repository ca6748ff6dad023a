// Branch predictors. RCPN transitions reference these "non-pipeline units"
// directly (paper §3, "Transition"): the fetch transition asks for a
// prediction, the branch-resolution transition updates the tables and
// triggers a flush on mispredict.
//
// Three variants:
//  * StaticNotTaken — SA-110 has no branch prediction hardware;
//  * Bimodal       — classic 2-bit saturating counter table;
//  * Btb           — tagged branch target buffer with 2-bit counters
//                    (XScale's 128-entry BTB).
#pragma once

#include <cstdint>
#include <vector>

namespace rcpn::predictor {

struct Prediction {
  std::uint32_t target = 0;
  bool taken = false;
  bool target_known = false;  // BTB hit
};
// predict() runs on every fetch. At 8 bytes the x86-64 ABI returns the
// struct packed in one register; at 12 ({bool, uint32_t, bool}) GCC builds it
// on the stack with byte stores and reloads it wider, a store-forwarding stall.
static_assert(sizeof(Prediction) <= 8, "Prediction must return in one register");

struct PredictorStats {
  std::uint64_t lookups = 0;
  std::uint64_t predicted_taken = 0;
  std::uint64_t updates = 0;
  std::uint64_t mispredicts = 0;
  double mispredict_ratio() const {
    return updates == 0 ? 0.0
                        : static_cast<double>(mispredicts) / static_cast<double>(updates);
  }
};

class BranchPredictor {
 public:
  virtual ~BranchPredictor() = default;
  virtual Prediction predict(std::uint32_t pc) = 0;
  /// `mispredicted` is the model's verdict (wrong direction or wrong target).
  virtual void update(std::uint32_t pc, bool taken, std::uint32_t target,
                      bool mispredicted) = 0;
  const PredictorStats& stats() const { return stats_; }
  virtual void reset() { stats_ = PredictorStats{}; }
  /// Checkpoint support (src/ckpt/): predictor counters are timing state and
  /// must survive a snapshot/restore round trip verbatim.
  void ckpt_set_stats(const PredictorStats& s) { stats_ = s; }

 protected:
  PredictorStats stats_;
};

class StaticNotTaken final : public BranchPredictor {
 public:
  Prediction predict(std::uint32_t pc) override;
  void update(std::uint32_t pc, bool taken, std::uint32_t target,
              bool mispredicted) override;
};

class Bimodal final : public BranchPredictor {
 public:
  explicit Bimodal(std::uint32_t entries = 512);
  Prediction predict(std::uint32_t pc) override;
  void update(std::uint32_t pc, bool taken, std::uint32_t target,
              bool mispredicted) override;
  void reset() override;

  // Checkpoint support: the 2-bit counter table, raw.
  const std::vector<std::uint8_t>& counters() const { return counters_; }
  void ckpt_set_counter(std::uint32_t i, std::uint8_t v) { counters_[i] = v; }

 private:
  std::uint32_t index(std::uint32_t pc) const { return (pc >> 2) & (entries_ - 1); }
  std::uint32_t entries_;
  std::vector<std::uint8_t> counters_;  // 0..3, taken when >= 2
};

class Btb final : public BranchPredictor {
 public:
  explicit Btb(std::uint32_t entries = 128);
  Prediction predict(std::uint32_t pc) override;
  void update(std::uint32_t pc, bool taken, std::uint32_t target,
              bool mispredicted) override;
  void reset() override;

  // Checkpoint support: tagged entries, raw.
  struct CkptEntry {
    std::uint32_t tag = 0;
    std::uint32_t target = 0;
    std::uint8_t counter = 0;
    bool valid = false;
  };
  std::uint32_t num_entries() const { return entries_; }
  CkptEntry ckpt_entry(std::uint32_t i) const {
    const Entry& e = table_[i];
    return CkptEntry{e.tag, e.target, e.counter, e.valid};
  }
  void ckpt_set_entry(std::uint32_t i, const CkptEntry& e) {
    table_[i] = Entry{e.tag, e.target, e.counter, e.valid};
  }

 private:
  struct Entry {
    std::uint32_t tag = 0;
    std::uint32_t target = 0;
    std::uint8_t counter = 0;
    bool valid = false;
  };
  std::uint32_t index(std::uint32_t pc) const { return (pc >> 2) & (entries_ - 1); }
  std::uint32_t entries_;
  std::vector<Entry> table_;
};

}  // namespace rcpn::predictor
