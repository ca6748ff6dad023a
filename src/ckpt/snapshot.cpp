#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "core/options_signature.hpp"
#include "obs/probe.hpp"

namespace rcpn::ckpt {

namespace {

constexpr std::string_view kVersion = "rcpn-ckpt/3";

void save_u64_vec(StateWriter& w, std::string_view name,
                  const std::vector<std::uint64_t>& v) {
  w.begin("vec").field("name", name).field("n", static_cast<std::uint64_t>(v.size()));
  std::string joined;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) joined.push_back(',');
    joined += std::to_string(v[i]);
  }
  w.field("v", std::string_view(joined)).end();
}

std::vector<std::uint64_t> read_u64_vec(StateReader& r, std::string_view name) {
  r.next("vec");
  if (r.get("name") != name)
    r.fail("expected vector '" + std::string(name) + "', found '" +
           std::string(r.get("name")) + "'");
  const std::uint64_t n = r.get_u64("n");
  std::vector<std::uint64_t> out;
  std::string_view v = r.has("v") ? r.get("v") : std::string_view{};
  while (!v.empty()) {
    const std::size_t comma = v.find(',');
    const std::string_view tok = comma == std::string_view::npos ? v : v.substr(0, comma);
    v = comma == std::string_view::npos ? std::string_view{} : v.substr(comma + 1);
    out.push_back(r.parse_u64(tok, "vector '" + std::string(name) + "' element"));
  }
  if (out.size() != n)
    r.fail("vector '" + std::string(name) + "' declares " + std::to_string(n) +
           " elements but carries " + std::to_string(out.size()));
  return out;
}

void restore_sized_u64_vec(StateReader& r, std::string_view name,
                           std::vector<std::uint64_t>& dst) {
  std::vector<std::uint64_t> v = read_u64_vec(r, name);
  if (v.size() != dst.size())
    r.fail("vector '" + std::string(name) + "' has " + std::to_string(v.size()) +
           " elements, the live model expects " + std::to_string(dst.size()));
  dst = std::move(v);
}

/// Verify one identity field; the error names the offender, desc-style.
void check_ident(std::string_view what, std::string_view got,
                 std::string_view want) {
  if (got != want)
    throw CkptError("checkpoint " + std::string(what) + " mismatch: snapshot has '" +
                    std::string(got) + "', the restoring run has '" +
                    std::string(want) + "'");
}

/// A token record's id field `key`, checked to name one of the `n` entries
/// (`what`s) of a net table, or -1 (kNoPlace / kNoType) where `none_ok`:
/// a forged id would index past the net's tables on insert or on the
/// token's first firing.
std::int64_t get_net_id(const StateReader& r, std::string_view key, unsigned n,
                        std::string_view what, bool none_ok) {
  const std::int64_t v = r.get_i64(key);
  if (v >= (none_ok ? -1 : 0) && v < static_cast<std::int64_t>(n)) return v;
  r.fail("token field '" + std::string(key) + "' = " + std::to_string(v) + " is not " +
         (none_ok ? "-1 or " : "") + "a " + std::string(what) + " of the net (" +
         std::to_string(n) + " " + std::string(what) + "s)");
}

struct PendingTag {
  regfile::RegRef* ref = nullptr;
  std::string tag;
};

}  // namespace

std::string RefCoder::encode(const regfile::RegRef* r) const {
  if (r == nullptr) return "none";
  const auto it = to_key_.find(r);
  if (it == to_key_.end())
    throw CkptError("checkpoint: a register reference points outside the live "
                    "token set and cannot be serialized");
  return std::to_string(it->second >> 16) + ":" + std::to_string(it->second & 0xffff);
}

regfile::RegRef* RefCoder::decode(std::string_view tok, const StateReader& r) const {
  if (tok == "none") return nullptr;
  const std::size_t colon = tok.find(':');
  if (colon == std::string_view::npos)
    r.fail("malformed register reference '" + std::string(tok) + "'");
  const std::uint64_t seq = r.parse_u64(tok.substr(0, colon), "register-reference seq");
  const std::uint64_t idx = r.parse_u64(tok.substr(colon + 1), "register-reference index");
  const auto it = from_key_.find((seq << 16) | idx);
  if (it == from_key_.end())
    r.fail("register reference '" + std::string(tok) +
           "' does not name a restored operand");
  return it->second;
}

unsigned MachineIO::num_reg_refs(const core::InstructionToken&) const {
  return core::InstructionToken::kMaxOps;
}

regfile::RegRef* MachineIO::reg_ref(const core::InstructionToken& t, unsigned i) const {
  return dynamic_cast<regfile::RegRef*>(t.ops[i]);
}

std::string net_digest(const core::Net& net) {
  std::string s = net.name();
  s += '|';
  for (unsigned i = 0; i < net.num_stages(); ++i) {
    const core::PipelineStage& st = net.stage(static_cast<core::StageId>(i));
    s += st.name() + ":" + std::to_string(st.capacity()) + ";";
  }
  s += '|';
  for (unsigned i = 0; i < net.num_places(); ++i) {
    const core::Place& p = net.place(static_cast<core::PlaceId>(i));
    s += p.name + ":" + std::to_string(p.stage) + ":" + std::to_string(p.delay) + ";";
  }
  s += '|';
  for (unsigned i = 0; i < net.num_types(); ++i)
    s += net.type_name(static_cast<core::TypeId>(i)) + ";";
  s += '|';
  for (unsigned i = 0; i < net.num_transitions(); ++i)
    s += net.transition(static_cast<core::TransitionId>(i)).name() + ";";
  return fnv1a_hex(s);
}

std::string save_snapshot(core::Engine& eng, const MachineIO& io,
                          const std::vector<RetireEvent>& trace) {
  const core::Net& net = eng.net();

  // Enumerate the live tokens once: per stage, visible list then incoming
  // list, each in store (age) order — the order that defines candidate-scan
  // semantics, and the order restore reproduces.
  struct LiveToken {
    core::Token* t;
    core::StageId stage;
    bool incoming;
  };
  std::vector<LiveToken> live;
  for (unsigned s = 0; s < net.num_stages(); ++s) {
    const core::TokenStore& store = eng.token_store(static_cast<core::StageId>(s));
    for (core::Token* t : store.ptrs())
      live.push_back({t, static_cast<core::StageId>(s), false});
    for (core::Token* t : store.incoming_ptrs())
      live.push_back({t, static_cast<core::StageId>(s), true});
  }

  RefCoder refs;
  for (const LiveToken& lt : live) {
    if (lt.t->kind != core::TokenKind::instruction) continue;
    const auto* it = static_cast<const core::InstructionToken*>(lt.t);
    for (unsigned i = 0; i < io.num_reg_refs(*it); ++i)
      if (const regfile::RegRef* rr = io.reg_ref(*it, i)) refs.index(rr, it->seq, i);
  }

  StateWriter w;
  w.line(kVersion, "");
  w.begin("ident")
      .field("machine", io.machine_key())
      .field("model", net.name())
      .field("digest", net_digest(net))
      .field("workload", io.workload_id())
      .end();
  w.line("options", core::options_signature(eng.options()));

  const core::Engine::CkptScalars sc = eng.ckpt_scalars();
  w.begin("engine")
      .field("clock", sc.clock)
      .field("stopped", sc.stopped)
      .field("in_flight", sc.in_flight)
      .field("seq_counter", static_cast<std::uint64_t>(sc.seq_counter))
      .field("last_activity", sc.last_activity_clock)
      .field("activity_snapshot", sc.activity_snapshot)
      .end();

  const core::Stats& st = eng.stats();
  w.begin("stats")
      .field("cycles", st.cycles)
      .field("retired", st.retired)
      .field("fetched", st.fetched)
      .field("squashed", st.squashed)
      .field("reservations", st.reservations)
      .field("firings", st.firings)
      .end();
  save_u64_vec(w, "transition_fires", st.transition_fires);
  save_u64_vec(w, "place_stalls", st.place_stalls);
  save_u64_vec(w, "place_stall_causes", st.place_stall_causes);

  w.begin("tokens").field("n", static_cast<std::uint64_t>(live.size())).end();
  for (const LiveToken& lt : live) {
    const core::Token* t = lt.t;
    w.begin("token")
        .field("stage", static_cast<std::uint64_t>(lt.stage))
        .field("incoming", lt.incoming)
        .field("kind", t->kind == core::TokenKind::instruction)
        .field("type", static_cast<std::int64_t>(t->type))
        .field("place", static_cast<std::int64_t>(t->place))
        .field("ready", t->ready)
        .field("delay", static_cast<std::uint64_t>(t->next_delay));
    if (t->kind == core::TokenKind::instruction) {
      const auto* it = static_cast<const core::InstructionToken*>(t);
      w.field("pc", it->pc)
          .field("raw", static_cast<std::uint64_t>(it->raw))
          .field("seq", static_cast<std::uint64_t>(it->seq))
          .field("state", static_cast<std::int64_t>(it->state))
          .field("in_flight", it->in_flight)
          .field("pool", it->pool_owned)
          .field("squashed", it->squashed);
    }
    w.end();
    if (t->kind != core::TokenKind::instruction) continue;
    const auto* it = static_cast<const core::InstructionToken*>(t);
    unsigned nrefs = 0;
    for (unsigned i = 0; i < io.num_reg_refs(*it); ++i)
      if (io.reg_ref(*it, i) != nullptr) ++nrefs;
    w.begin("ops").field("n", static_cast<std::uint64_t>(nrefs)).end();
    for (unsigned i = 0; i < io.num_reg_refs(*it); ++i) {
      const regfile::RegRef* rr = io.reg_ref(*it, i);
      if (rr == nullptr) continue;
      w.begin("op")
          .field("i", static_cast<std::uint64_t>(i))
          .field("value", static_cast<std::uint64_t>(rr->value()))
          .field("ready", rr->value_ready())
          .field("reserved", rr->reserved())
          .field("rseq", static_cast<std::uint64_t>(rr->reserve_seq()))
          .field("tag", refs.encode(rr->writer_tag()))
          .end();
    }
    io.save_token_extra(w, *it);
  }

  io.save_machine(w, refs);

  w.begin("trace").field("n", static_cast<std::uint64_t>(trace.size())).end();
  for (const RetireEvent& e : trace)
    w.begin("t")
        .token(std::to_string(e.cycle))
        .token(std::to_string(e.pc))
        .token(std::to_string(e.seq))
        .end();

  const obs::Hub* hub = eng.options().obs;
  w.begin("obs").field("attached", hub != nullptr).end();
  if (hub != nullptr) {
    const obs::StageProfile& p = hub->profile();
    w.begin("obsprofile").field("cycles", p.cycles).end();
    save_u64_vec(w, "obs_stall_causes", p.stall_causes);
    save_u64_vec(w, "obs_fires", p.fires);
    save_u64_vec(w, "obs_attempts", p.attempts);
    w.begin("occrows").field("n", static_cast<std::uint64_t>(p.occupancy_hist.size())).end();
    for (const auto& row : p.occupancy_hist) save_u64_vec(w, "occ", row);
    {
      std::vector<std::uint64_t> lo(hub->last_occ().begin(), hub->last_occ().end());
      save_u64_vec(w, "last_occ", lo);
    }
    const std::vector<obs::Event> evs = hub->sink().snapshot();
    w.begin("events")
        .field("n", static_cast<std::uint64_t>(evs.size()))
        .field("dropped", hub->sink().dropped())
        .end();
    for (const obs::Event& e : evs)
      w.begin("e")
          .token(std::to_string(e.cycle))
          .token(std::to_string(e.pc))
          .token(std::to_string(e.seq))
          .token(std::to_string(e.value))
          .token(std::to_string(e.place))
          .token(std::to_string(e.transition))
          .token(std::to_string(static_cast<unsigned>(e.kind)))
          .token(std::to_string(static_cast<unsigned>(e.cause)))
          .end();
  }
  w.line("end", "");
  return w.take();
}

void restore_snapshot(const std::string& text, core::Engine& eng, MachineIO& io,
                      std::vector<RetireEvent>& trace_out) {
  StateReader r(text);
  if (r.peek_kind() != kVersion)
    throw CkptError("checkpoint: unsupported format '" +
                    std::string(r.peek_kind().empty() ? std::string_view("<empty>")
                                                      : r.peek_kind()) +
                    "' (this build reads " + std::string(kVersion) + ")");
  r.next(kVersion);

  const core::Net& net = eng.net();
  r.next("ident");
  check_ident("machine", r.get("machine"), io.machine_key());
  check_ident("model", r.get("model"), net.name());
  if (r.get("digest") != net_digest(net))
    throw CkptError("checkpoint model digest mismatch for model '" + net.name() +
                    "': snapshot " + std::string(r.get("digest")) + " vs live " +
                    net_digest(net) +
                    " — the model structure changed since the snapshot was written");
  check_ident("workload", r.get("workload"), io.workload_id());

  r.next("options");
  {
    const std::string want = core::options_signature(eng.options());
    const std::string got =
        r.tokens().empty() ? std::string() : std::string(r.tokens().front());
    if (got != want)
      throw CkptError("checkpoint options-signature mismatch: snapshot was taken "
                      "under [" + got + "], the restoring engine runs [" + want + "]");
  }

  r.next("engine");
  core::Engine::CkptScalars sc;
  sc.clock = r.get_u64("clock");
  sc.stopped = r.get_bool("stopped");
  sc.in_flight = r.get_u64("in_flight");
  sc.seq_counter = static_cast<std::uint32_t>(r.get_u64("seq_counter"));
  sc.last_activity_clock = r.get_u64("last_activity");
  sc.activity_snapshot = r.get_u64("activity_snapshot");

  r.next("stats");
  core::Stats& st = eng.stats();
  st.cycles = r.get_u64("cycles");
  st.retired = r.get_u64("retired");
  st.fetched = r.get_u64("fetched");
  st.squashed = r.get_u64("squashed");
  st.reservations = r.get_u64("reservations");
  st.firings = r.get_u64("firings");
  restore_sized_u64_vec(r, "transition_fires", st.transition_fires);
  restore_sized_u64_vec(r, "place_stalls", st.place_stalls);
  restore_sized_u64_vec(r, "place_stall_causes", st.place_stall_causes);

  r.next("tokens");
  const std::uint64_t ntok = r.get_u64("n");
  RefCoder refs;
  std::vector<PendingTag> pending;
  for (std::uint64_t k = 0; k < ntok; ++k) {
    r.next("token");
    const auto stage = static_cast<core::StageId>(
        get_net_id(r, "stage", net.num_stages(), "stage", false));
    const bool incoming = r.get_bool("incoming");
    const bool is_instr = r.get_bool("kind");
    // Reservations carry kNoType; an instruction token must have a type.
    const auto type = static_cast<core::TypeId>(
        get_net_id(r, "type", net.num_types(), "type", !is_instr));
    const auto place = static_cast<core::PlaceId>(
        get_net_id(r, "place", net.num_places(), "place", false));
    if (net.place(place).stage != stage)
      r.fail("token field 'place' = " + std::to_string(place) + " is a place of stage " +
             std::to_string(net.place(place).stage) + ", not of the record's stage " +
             std::to_string(stage));
    if (!is_instr) {
      core::Token* t = eng.ckpt_acquire_reservation();
      t->kind = core::TokenKind::reservation;
      t->type = type;
      t->place = place;
      t->ready = r.get_u64("ready");
      t->next_delay = static_cast<std::uint32_t>(r.get_u64("delay"));
      eng.ckpt_insert_token(t, stage, incoming);
      continue;
    }
    const std::uint64_t pc = r.get_u64("pc");
    const auto raw = static_cast<std::uint32_t>(r.get_u64("raw"));
    const auto state = static_cast<core::PlaceId>(
        get_net_id(r, "state", net.num_places(), "place", true));
    core::InstructionToken* it = io.materialize(pc, raw);
    if (it == nullptr) it = eng.acquire_pooled_instruction();
    it->type = type;
    it->place = place;
    it->ready = r.get_u64("ready");
    it->next_delay = static_cast<std::uint32_t>(r.get_u64("delay"));
    it->pc = pc;
    it->raw = raw;
    it->seq = static_cast<std::uint32_t>(r.get_u64("seq"));
    it->state = state;
    it->in_flight = r.get_bool("in_flight");
    it->squashed = r.get_bool("squashed");
    eng.ckpt_insert_token(it, stage, incoming);

    for (unsigned i = 0; i < io.num_reg_refs(*it); ++i)
      if (regfile::RegRef* rr = io.reg_ref(*it, i)) refs.admit(rr, it->seq, i);

    r.next("ops");
    const std::uint64_t nops = r.get_u64("n");
    for (std::uint64_t j = 0; j < nops; ++j) {
      r.next("op");
      const auto i = static_cast<unsigned>(r.get_u64("i"));
      regfile::RegRef* rr =
          i < io.num_reg_refs(*it) ? io.reg_ref(*it, i) : nullptr;
      if (rr == nullptr)
        r.fail("operand slot " + std::to_string(i) +
               " of the re-materialized token at pc=" + std::to_string(pc) +
               " is not a register reference");
      rr->ckpt_restore(static_cast<regfile::Word>(r.get_u64("value")),
                       r.get_bool("ready"), r.get_bool("reserved"),
                       static_cast<std::uint32_t>(r.get_u64("rseq")));
      const std::string tag = r.get_str("tag");
      if (tag != "none") pending.push_back({rr, tag});
    }
    io.restore_token_extra(r, *it);
  }
  for (const PendingTag& p : pending)
    p.ref->ckpt_set_writer_tag(refs.decode(p.tag, r));

  io.restore_machine(r, refs);

  r.next("trace");
  const std::uint64_t ntr = r.get_u64("n");
  trace_out.clear();
  for (std::uint64_t k = 0; k < ntr; ++k) {
    r.next("t");
    if (r.tokens().size() != 3) r.fail("trace record needs 3 fields");
    RetireEvent e;
    e.cycle = r.parse_u64(r.tokens()[0], "trace cycle");
    e.pc = r.parse_u64(r.tokens()[1], "trace pc");
    e.seq = static_cast<std::uint32_t>(r.parse_u64(r.tokens()[2], "trace seq"));
    trace_out.push_back(e);
  }

  r.next("obs");
  if (r.get_bool("attached")) {
    obs::Hub* hub = eng.options().obs;
    const bool apply = hub != nullptr && hub->bound();
    r.next("obsprofile");
    const std::uint64_t pcycles = r.get_u64("cycles");
    std::vector<std::uint64_t> stall = read_u64_vec(r, "obs_stall_causes");
    std::vector<std::uint64_t> fires = read_u64_vec(r, "obs_fires");
    std::vector<std::uint64_t> attempts = read_u64_vec(r, "obs_attempts");
    r.next("occrows");
    const std::uint64_t nrows = r.get_u64("n");
    std::vector<std::vector<std::uint64_t>> rows;
    for (std::uint64_t i = 0; i < nrows; ++i) rows.push_back(read_u64_vec(r, "occ"));
    std::vector<std::uint64_t> last = read_u64_vec(r, "last_occ");
    r.next("events");
    const std::uint64_t nev = r.get_u64("n");
    const std::uint64_t dropped = r.get_u64("dropped");
    if (apply) {
      obs::StageProfile& p = hub->ckpt_profile();
      p.cycles = pcycles;
      if (stall.size() == p.stall_causes.size()) p.stall_causes = std::move(stall);
      if (fires.size() == p.fires.size()) p.fires = std::move(fires);
      if (attempts.size() == p.attempts.size()) p.attempts = std::move(attempts);
      if (rows.size() == p.occupancy_hist.size()) p.occupancy_hist = std::move(rows);
      for (std::size_t i = 0; i < last.size(); ++i)
        hub->ckpt_set_last_occ(i, static_cast<std::uint32_t>(last[i]));
      hub->sink().clear();
    }
    for (std::uint64_t k = 0; k < nev; ++k) {
      r.next("e");
      if (r.tokens().size() != 8) r.fail("event record needs 8 fields");
      if (!apply) continue;
      obs::Event e;
      e.cycle = r.parse_u64(r.tokens()[0], "event cycle");
      e.pc = r.parse_u64(r.tokens()[1], "event pc");
      e.seq = static_cast<std::uint32_t>(r.parse_u64(r.tokens()[2], "event seq"));
      e.value = static_cast<std::uint32_t>(r.parse_u64(r.tokens()[3], "event value"));
      {
        std::string_view t = r.tokens()[4];
        const bool neg = !t.empty() && t.front() == '-';
        if (neg) t.remove_prefix(1);
        const auto mag = static_cast<std::int64_t>(r.parse_u64(t, "event place"));
        e.place = static_cast<std::int16_t>(neg ? -mag : mag);
      }
      {
        std::string_view t = r.tokens()[5];
        const bool neg = !t.empty() && t.front() == '-';
        if (neg) t.remove_prefix(1);
        const auto mag = static_cast<std::int64_t>(r.parse_u64(t, "event transition"));
        e.transition = static_cast<std::int16_t>(neg ? -mag : mag);
      }
      e.kind = static_cast<obs::EventKind>(r.parse_u64(r.tokens()[6], "event kind"));
      e.cause = static_cast<core::StallCause>(r.parse_u64(r.tokens()[7], "event cause"));
      hub->sink().push(e);
    }
    if (apply) hub->sink().ckpt_set_dropped(dropped);
  }

  r.next("end");

  // Scalars last: materialization via the engine pool touches none of them,
  // but restoring them after all bookkeeping keeps this future-proof.
  eng.ckpt_restore_scalars(sc);
}

}  // namespace rcpn::ckpt
