// Observability layer: the boundary observer's contracts and the exporters.
//
// Three layers of pinning:
//  * No interference — observing a run (one cycle per step, hooks chained)
//    must leave golden retire traces and engine statistics byte-identical
//    for every machine and backend, and the observed profile must equal the
//    run's core::Stats. An 8-seed fuzz shard extends the contract to
//    generated topologies.
//  * Backend-identical event streams — interpreted, compiled and
//    generated(linked) runs must fill the ring and the StageProfile
//    identically: the observer reads only cycle-boundary state, which every
//    backend reaches identically.
//  * Exporters — export_chrome_trace() and format_profile() are exercised on
//    hand-built hubs: JSON validity, one named track per stage, balanced b/e
//    token spans, monotonic timestamps, drop-oldest ring truncation flagged
//    not hidden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/net.hpp"
#include "core/stats.hpp"
#include "machines/fuzz_model.hpp"
#include "machines/golden_runner.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/probe.hpp"

namespace rcpn {
namespace {

// -- minimal JSON syntax checker ----------------------------------------------
// Enough of RFC 8259 to reject unbalanced/truncated output; no DOM, no deps.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse() {
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                              s_[i_] == '\r'))
      ++i_;
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s_.compare(i_, n, t) != 0) return false;
    i_ += n;
    return true;
  }
  bool string_lit() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    bool digits = false;
    while (i_ < s_.size() && ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
                              s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
                              s_[i_] == '-')) {
      if (s_[i_] >= '0' && s_[i_] <= '9') digits = true;
      ++i_;
    }
    return digits && i_ > start;
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
    while (true) {
      ws();
      if (!string_lit()) return false;
      ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!value()) return false;
      ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == '}') return ++i_, true;
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
    while (true) {
      if (!value()) return false;
      ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == ']') return ++i_, true;
      return false;
    }
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool valid_json(const std::string& text) { return JsonParser(text).parse(); }

std::size_t count_substr(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size()))
    ++n;
  return n;
}

/// Every "ts": value, in emission order.
std::vector<std::uint64_t> extract_ts(const std::string& s) {
  std::vector<std::uint64_t> out;
  const std::string key = "\"ts\":";
  for (std::size_t pos = s.find(key); pos != std::string::npos;
       pos = s.find(key, pos + key.size())) {
    std::uint64_t v = 0;
    for (std::size_t i = pos + key.size(); i < s.size() && s[i] >= '0' && s[i] <= '9';
         ++i)
      v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
    out.push_back(v);
  }
  return out;
}

/// The in-process backends of this binary: Backend::generated runs the
/// emitted no-main TUs the build links in.
std::vector<core::Backend> in_process_backends() {
  return {core::Backend::interpreted, core::Backend::compiled, core::Backend::generated};
}

/// Run `s` to its end under an observer recording into `hub`.
machines::GoldenRunResult observe_to_end(machines::GoldenSession& s, obs::Hub& hub) {
  obs::Observer observer(s.engine(), hub);
  machines::advance_observed(s, observer, ~std::uint64_t{0});
  return s.result();
}

/// A run's byte-compared output: trace, `# stats` line and stall causes.
std::string formatted(const std::string& key, const machines::GoldenRunResult& r) {
  return machines::format_golden_trace(key, r.trace) +
         machines::format_golden_stats(r.stats) + machines::format_stall_causes(r.stats);
}

/// A two-stage toy model binding for the exporter tests (no engine needed).
obs::Meta toy_meta() {
  obs::Meta m;
  m.model = "toy";
  m.stage_names = {"fetch", "exec"};
  m.place_names = {"p_fetch", "p_exec"};
  m.place_stage = {0, 1};
  m.transition_names = {"t_fetch", "t_exec"};
  m.transition_place = {0, 1};
  return m;
}

}  // namespace

// -- ring buffer --------------------------------------------------------------

TEST(ObsRing, DropsOldestAndCountsEvictions) {
  obs::Hub hub(4);
  hub.bind(toy_meta());
  for (std::uint64_t cycle = 0; cycle < 10; ++cycle)
    hub.on_token_enter(cycle, 0, static_cast<std::uint32_t>(cycle), 0x100 + cycle);

  EXPECT_EQ(hub.sink().size(), 4u);
  EXPECT_EQ(hub.sink().dropped(), 6u);
  const std::vector<obs::Event> kept = hub.sink().snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].cycle, 6 + i) << "snapshot must be oldest-first";
}

TEST(ObsRing, GrowingSinkMatchesTheFixedRingAcrossTheWrap) {
  // The sink grows as events arrive and wraps once it reaches its capacity.
  // Against a reference of the fixed drop-oldest ring it replaced, every
  // push, before and after the growth stops and the wrap starts, must give
  // the same snapshot (oldest first) and drop count, and so must a run after
  // clear(), which keeps the buffer.
  for (const std::size_t capacity : {0u, 1u, 5u, 64u, 100u}) {
    obs::EventSink sink(capacity);
    const std::size_t cap = capacity == 0 ? 1 : capacity;
    ASSERT_EQ(sink.capacity(), cap);
    for (int round = 0; round < 2; ++round) {
      std::vector<obs::Event> want;  // the reference ring, oldest first
      std::uint64_t want_dropped = 0;
      for (std::uint64_t i = 0; i < 3 * cap + 7; ++i) {
        const obs::Event e{.cycle = i, .pc = 0x8000 + 4 * i,
                           .seq = static_cast<std::uint32_t>(i + 100 * round)};
        sink.push(e);
        want.push_back(e);
        if (want.size() > cap) {
          want.erase(want.begin());
          ++want_dropped;
        }
        ASSERT_EQ(sink.snapshot(), want) << "capacity " << cap << " push " << i;
        ASSERT_EQ(sink.size(), want.size());
        ASSERT_EQ(sink.dropped(), want_dropped);
        ASSERT_EQ(sink.capacity(), cap);
      }
      sink.clear();
      ASSERT_EQ(sink.size(), 0u);
      ASSERT_EQ(sink.dropped(), 0u);
      ASSERT_TRUE(sink.snapshot().empty());
    }
  }
}

TEST(ObsRing, ClearResetsEventsCountersAndProfile) {
  obs::Hub hub;
  hub.bind(toy_meta());
  hub.on_token_enter(0, 0, 1, 0x8000);
  hub.on_fire(0, 0, 1);
  hub.on_cycle_end();
  ASSERT_GT(hub.sink().size(), 0u);
  ASSERT_EQ(hub.profile().cycles, 1u);
  hub.clear();
  EXPECT_EQ(hub.sink().size(), 0u);
  EXPECT_EQ(hub.sink().dropped(), 0u);
  EXPECT_EQ(hub.profile().cycles, 0u);
  EXPECT_EQ(hub.profile().fires, std::vector<std::uint64_t>({0, 0}));
  EXPECT_EQ(hub.meta().model, "toy");  // the binding survives
}

// -- Chrome-trace exporter ----------------------------------------------------

namespace {

/// A tiny scripted run: two instructions through two stages, one stall, one
/// squash — every event kind appears at least once.
void scripted_run(obs::Hub& hub) {
  hub.bind(toy_meta());
  // cycle 0: seq 0 enters fetch and the fetch transition fires.
  hub.on_token_enter(0, 0, 0, 0x8000);
  hub.on_fire(0, 0, 1);
  hub.sample_stage(0, 0, 1);
  hub.sample_stage(0, 1, 0);
  hub.on_cycle_end();
  // cycle 1: seq 0 advances to exec, seq 1 enters fetch and stalls on a guard.
  hub.on_token_enter(1, 0, 1, 0x8004);
  hub.on_token_enter(1, 1, 0, 0x8000);
  hub.on_fire(1, 1, 1);
  hub.on_stall(1, 0, core::StallCause::guard_rejected, 1);
  hub.sample_stage(1, 0, 1);
  hub.sample_stage(1, 1, 1);
  hub.on_cycle_end();
  // cycle 2: seq 0 retires, seq 1 is squashed by a flush.
  hub.on_retire(2, 0, 0x8000);
  hub.on_squash(2, 1, 0x8004);
  hub.sample_stage(2, 0, 0);
  hub.sample_stage(2, 1, 0);
  hub.on_cycle_end();
}

}  // namespace

TEST(ObsExport, ChromeTraceIsValidJsonWithOneTrackPerStage) {
  obs::Hub hub;
  scripted_run(hub);
  const std::string json = obs::export_chrome_trace(hub);
  EXPECT_TRUE(valid_json(json)) << json;

  // One thread_name per stage plus the tid-0 independent/engine track.
  EXPECT_EQ(count_substr(json, "\"thread_name\""), 3u);
  EXPECT_NE(json.find("\"args\":{\"name\":\"independent\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"fetch\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"exec\"}"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);

  // Every token residency "b" has a matching "e" (the squash closes seq 1).
  EXPECT_EQ(count_substr(json, "\"ph\":\"b\""), count_substr(json, "\"ph\":\"e\""));
  EXPECT_EQ(count_substr(json, "\"ph\":\"b\""), 3u);  // 2 fetch entries + 1 exec

  // Instants and counters made it through with their payloads.
  EXPECT_NE(json.find("\"name\":\"retire\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"squash\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fire t_fetch\",\"args\":{\"count\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stall guard_rejected\""), std::string::npos);
  EXPECT_NE(json.find("\"place\":\"p_fetch\",\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"occ fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);

  // Timestamps are cycle numbers and never run backwards in emission order.
  const std::vector<std::uint64_t> ts = extract_ts(json);
  ASSERT_GT(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_LE(ts[i - 1], ts[i]) << "ts index " << i;
}

TEST(ObsExport, RingEvictedBeginNeverEmitsUnbalancedEnd) {
  obs::Hub hub(2);
  hub.bind(toy_meta());
  hub.on_token_enter(0, 0, 0, 0x8000);  // evicted below
  hub.on_token_enter(0, 0, 1, 0x8004);  // evicted below
  hub.on_token_enter(1, 0, 2, 0x8008);
  hub.on_retire(2, 0, 0x8000);  // begin of seq 0 is gone from the ring

  const std::string json = obs::export_chrome_trace(hub);
  EXPECT_TRUE(valid_json(json)) << json;
  // seq 2's begin is closed at end-of-recording; seq 0's retire must NOT
  // synthesize an "e" for a begin the ring no longer holds.
  EXPECT_EQ(count_substr(json, "\"ph\":\"b\""), 1u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"e\""), 1u);
  EXPECT_NE(json.find("\"dropped_events\":2"), std::string::npos);
}

TEST(ObsExport, FormatProfileReportsOccupancyStallsAndScanCosts) {
  obs::Hub hub;
  scripted_run(hub);
  const std::string text = obs::format_profile(hub);
  EXPECT_NE(text.find("profile: toy  (cycles: 3)"), std::string::npos) << text;
  EXPECT_NE(text.find("stage occupancy"), std::string::npos);
  EXPECT_NE(text.find("stall causes (no_ready/guard/capacity):"), std::string::npos);
  EXPECT_NE(text.find("p_fetch: 1 (0/1/0)"), std::string::npos) << text;
  EXPECT_NE(text.find("transition fires:\n  t_fetch: 1\n  t_exec: 1\n"),
            std::string::npos)
      << text;
}

// -- no interference: golden machines ------------------------------------------

// An observed run steps one cycle at a time with the hooks chained: its
// trace, `# stats` line and stall causes must equal the straight run's.
TEST(ObsGolden, AttachedHubLeavesGoldenTracesByteIdentical) {
  for (const std::string& key : machines::golden_machine_keys()) {
    for (const core::Backend backend : in_process_backends()) {
      core::EngineOptions options;
      options.backend = backend;
      const std::string label =
          key + " backend=" + std::to_string(static_cast<int>(backend));
      obs::Hub hub;
      const machines::GoldenRunResult observed =
          observe_to_end(*machines::make_golden_session(key, options), hub);
      EXPECT_EQ(formatted(key, observed),
                formatted(key, machines::run_golden_machine_full(key, options)))
          << label;
      EXPECT_GT(hub.sink().size(), 0u) << label;
    }
  }
}

// The profile is the run's statistics read at boundaries: fires, stall
// causes and cycles equal core::Stats, and every stage ends each cycle at
// exactly one occupancy, so each histogram row sums to the cycle count.
TEST(ObsGolden, ProfileEqualsTheRunsStats) {
  for (const std::string& key : machines::golden_machine_keys()) {
    obs::Hub hub;
    const machines::GoldenRunResult r =
        observe_to_end(*machines::make_golden_session(key, {}), hub);
    const obs::StageProfile& p = hub.profile();
    EXPECT_EQ(p.cycles, r.stats.cycles) << key;
    EXPECT_EQ(p.fires, r.stats.transition_fires) << key;
    EXPECT_EQ(p.stall_causes, r.stats.place_stall_causes) << key;
    ASSERT_EQ(p.occupancy_hist.size(), hub.meta().stage_names.size()) << key;
    for (std::size_t s = 0; s < p.occupancy_hist.size(); ++s) {
      std::uint64_t sum = 0;
      for (const std::uint64_t n : p.occupancy_hist[s]) sum += n;
      EXPECT_EQ(sum, r.stats.cycles) << key << " stage " << hub.meta().stage_names[s];
    }
  }
}

// -- no interference + lockstep: fuzz shard -------------------------------------

// Eight generated topologies, observed on interpreted and compiled: traces,
// stats, event streams and profiles must agree — the cross-backend stream
// contract on machines nobody curated.
TEST(ObsFuzz, EightSeedShardRunsLockstepWithProbesAttached) {
  for (unsigned seed = 9100; seed < 9108; ++seed) {
    obs::Hub hub_i, hub_c;
    const machines::GoldenRunResult ri = observe_to_end(
        *machines::make_fuzz_session(
            seed, machines::fuzz_options_for(seed, core::Backend::interpreted)),
        hub_i);
    const machines::GoldenRunResult rc = observe_to_end(
        *machines::make_fuzz_session(
            seed, machines::fuzz_options_for(seed, core::Backend::compiled)),
        hub_c);

    ASSERT_FALSE(ri.trace.empty()) << "seed=" << seed;
    EXPECT_EQ(formatted("fuzz", ri), formatted("fuzz", rc)) << "seed=" << seed;
    EXPECT_EQ(ri.trace,
              machines::finish_session(
                  *machines::make_fuzz_session(
                      seed, machines::fuzz_options_for(seed, core::Backend::compiled)))
                  .trace)
        << "seed=" << seed << ": observing changed the run";
    EXPECT_TRUE(hub_i.sink().snapshot() == hub_c.sink().snapshot())
        << "seed=" << seed << ": event streams diverge";
    EXPECT_TRUE(hub_i.profile() == hub_c.profile())
        << "seed=" << seed << ": profiles diverge";
    EXPECT_EQ(hub_i.profile().cycles, ri.stats.cycles) << "seed=" << seed;
  }
}

// -- cross-backend event streams ----------------------------------------------

TEST(ObsStreams, AllInProcessBackendsEmitIdenticalEventStreams) {
  for (const std::string& key : machines::golden_machine_keys()) {
    std::vector<obs::Event> ref_events;
    obs::StageProfile ref_profile;
    bool have_ref = false;
    for (const core::Backend backend : in_process_backends()) {
      obs::Hub hub;
      core::EngineOptions options;
      options.backend = backend;
      observe_to_end(*machines::make_golden_session(key, options), hub);
      const std::vector<obs::Event> events = hub.sink().snapshot();
      ASSERT_GT(events.size(), 0u) << key;
      if (!have_ref) {
        ref_events = events;
        ref_profile = hub.profile();
        have_ref = true;
        continue;
      }
      const std::string label =
          key + " backend=" + std::to_string(static_cast<int>(backend));
      ASSERT_EQ(events.size(), ref_events.size()) << label;
      // Name the first diverging event instead of dumping both streams.
      for (std::size_t i = 0; i < events.size(); ++i)
        ASSERT_TRUE(events[i] == ref_events[i])
            << label << ": first divergence at event " << i << " (cycle "
            << events[i].cycle << ", kind "
            << obs::event_kind_name(events[i].kind) << " vs cycle "
            << ref_events[i].cycle << ", kind "
            << obs::event_kind_name(ref_events[i].kind) << ")";
      EXPECT_TRUE(hub.profile() == ref_profile) << label << ": profiles diverge";
    }
  }
}

TEST(ObsStreams, ExportedGoldenTraceIsValidJson) {
  obs::Hub hub;
  core::EngineOptions options;
  options.backend = core::Backend::compiled;
  observe_to_end(*machines::make_golden_session("strongarm_crc", options), hub);
  const std::string json = obs::export_chrome_trace(hub);
  EXPECT_TRUE(valid_json(json));
  EXPECT_EQ(count_substr(json, "\"thread_name\""),
            hub.meta().stage_names.size() + 1);
  EXPECT_EQ(count_substr(json, "\"ph\":\"b\""), count_substr(json, "\"ph\":\"e\""));
  const std::vector<std::uint64_t> ts = extract_ts(json);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end())) << "timestamps run backwards";
}

// -- stall-cause attribution in Stats::report() -------------------------------

TEST(ObsStallReport, StatsReportBreaksStallsDownByCause) {
  const auto session = machines::make_golden_session("fig2", core::EngineOptions{});
  const core::Net& net = session->engine().net();
  core::Stats st;
  st.reset(net.num_transitions(), net.num_places());
  ASSERT_GE(net.num_places(), 2u);
  st.place_stalls[1] = 3;
  st.place_stall_causes[1 * core::kNumStallCauses + 0] = 1;
  st.place_stall_causes[1 * core::kNumStallCauses + 1] = 2;
  const std::string rep = st.report(net);
  EXPECT_NE(rep.find("place stalls (no_ready/guard/capacity):"), std::string::npos)
      << rep;
  EXPECT_NE(rep.find(": 3 (1/2/0)"), std::string::npos) << rep;
}

}  // namespace rcpn
