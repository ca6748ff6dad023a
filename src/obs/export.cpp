#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace rcpn::obs {

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string hex_pc(std::uint64_t pc) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(pc));
  return buf;
}

/// tid of the thread track carrying a place's events (stage + 1; tid 0 is the
/// independent sub-net / engine track).
int place_tid(const Meta& meta, std::int16_t place) {
  if (place < 0 || static_cast<std::size_t>(place) >= meta.place_stage.size())
    return 0;
  return meta.place_stage[static_cast<std::size_t>(place)] + 1;
}

const std::string& name_or(const std::vector<std::string>& names, std::int16_t id,
                           const std::string& fallback) {
  if (id < 0 || static_cast<std::size_t>(id) >= names.size()) return fallback;
  return names[static_cast<std::size_t>(id)];
}

}  // namespace

std::string export_chrome_trace(const Hub& hub) {
  const Meta& meta = hub.meta();
  const std::vector<Event> events = hub.sink().snapshot();
  static const std::string kUnknown = "?";

  std::string out;
  out.reserve(events.size() * 96 + 4096);
  out += "{\"traceEvents\":[\n";

  // Metadata first: the process is the model, one named thread per stage.
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"";
  append_json_escaped(out, meta.model);
  out += "\"}},\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"independent\"}}";
  for (std::size_t s = 0; s < meta.stage_names.size(); ++s) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(s + 1);
    out += ",\"ts\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_json_escaped(out, meta.stage_names[s]);
    out += "\"}}";
  }

  auto emit = [&out](const std::string& body) {
    out += ",\n{";
    out += body;
    out += '}';
  };

  struct OpenSpan {
    std::uint64_t span_id;
    int tid;
  };
  std::unordered_map<std::uint32_t, OpenSpan> open;  // seq -> residency span
  std::uint64_t next_span = 1;
  std::uint64_t last_cycle = 0;

  auto close_span = [&](std::uint32_t seq, std::uint64_t cycle) {
    auto it = open.find(seq);
    if (it == open.end()) return;  // begin evicted by the ring — drop, don't
                                   // emit an unbalanced "e".
    std::string b = "\"ph\":\"e\",\"cat\":\"token\",\"pid\":1,\"tid\":";
    b += std::to_string(it->second.tid);
    b += ",\"ts\":";
    b += std::to_string(cycle);
    b += ",\"id\":\"";
    b += std::to_string(it->second.span_id);
    b += "\",\"name\":\"insn\"";
    emit(b);
    open.erase(it);
  };

  for (const Event& e : events) {
    last_cycle = std::max(last_cycle, e.cycle);
    switch (e.kind) {
      case EventKind::token_enter: {
        close_span(e.seq, e.cycle);
        const int tid = place_tid(meta, e.place);
        const std::uint64_t id = next_span++;
        open[e.seq] = OpenSpan{id, tid};
        std::string b = "\"ph\":\"b\",\"cat\":\"token\",\"pid\":1,\"tid\":";
        b += std::to_string(tid);
        b += ",\"ts\":";
        b += std::to_string(e.cycle);
        b += ",\"id\":\"";
        b += std::to_string(id);
        b += "\",\"name\":\"insn\",\"args\":{\"seq\":";
        b += std::to_string(e.seq);
        b += ",\"pc\":\"";
        b += hex_pc(e.pc);
        b += "\",\"place\":\"";
        append_json_escaped(b, name_or(meta.place_names, e.place, kUnknown));
        b += "\"}";
        emit(b);
        break;
      }
      case EventKind::retire:
      case EventKind::squash: {
        close_span(e.seq, e.cycle);
        std::string b = "\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":0,\"ts\":";
        b += std::to_string(e.cycle);
        b += ",\"name\":\"";
        b += e.kind == EventKind::retire ? "retire" : "squash";
        b += "\",\"args\":{\"seq\":";
        b += std::to_string(e.seq);
        b += ",\"pc\":\"";
        b += hex_pc(e.pc);
        b += "\"}";
        emit(b);
        break;
      }
      case EventKind::fire: {
        const std::int16_t tp =
            e.transition >= 0 &&
                    static_cast<std::size_t>(e.transition) < meta.transition_place.size()
                ? meta.transition_place[static_cast<std::size_t>(e.transition)]
                : std::int16_t{-1};
        std::string b = "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
        b += std::to_string(place_tid(meta, tp));
        b += ",\"ts\":";
        b += std::to_string(e.cycle);
        b += ",\"name\":\"fire ";
        append_json_escaped(b, name_or(meta.transition_names, e.transition, kUnknown));
        b += "\",\"args\":{\"count\":";
        b += std::to_string(e.value);
        b += "}";
        emit(b);
        break;
      }
      case EventKind::stall: {
        std::string b = "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
        b += std::to_string(place_tid(meta, e.place));
        b += ",\"ts\":";
        b += std::to_string(e.cycle);
        b += ",\"name\":\"stall ";
        b += core::stall_cause_name(e.cause);
        b += "\",\"args\":{\"place\":\"";
        append_json_escaped(b, name_or(meta.place_names, e.place, kUnknown));
        b += "\",\"count\":";
        b += std::to_string(e.value);
        b += "}";
        emit(b);
        break;
      }
      case EventKind::occupancy: {
        // place field carries the STAGE id for occupancy samples.
        std::string b = "\"ph\":\"C\",\"pid\":1,\"tid\":";
        b += std::to_string(e.place + 1);
        b += ",\"ts\":";
        b += std::to_string(e.cycle);
        b += ",\"name\":\"occ ";
        append_json_escaped(b, name_or(meta.stage_names, e.place, kUnknown));
        b += "\",\"args\":{\"tokens\":";
        b += std::to_string(e.value);
        b += "}";
        emit(b);
        break;
      }
    }
  }

  // Close spans still open at the end of the recording so every "b" has its
  // "e" (tokens in flight when the run stopped).
  while (!open.empty()) close_span(open.begin()->first, last_cycle);

  out += "\n],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"model\":\"";
  append_json_escaped(out, meta.model);
  out += "\",\"clock\":\"1 cycle = 1 trace us\",\"retained_events\":";
  out += std::to_string(events.size());
  out += ",\"dropped_events\":";
  out += std::to_string(hub.sink().dropped());
  out += "}}\n";
  return out;
}

std::string format_profile(const Hub& hub) {
  const Meta& meta = hub.meta();
  const StageProfile& p = hub.profile();
  std::ostringstream out;
  out << "profile: " << meta.model << "  (cycles: " << p.cycles << ")\n";
  out << "ring: " << hub.sink().size() << " events retained, "
      << hub.sink().dropped() << " dropped\n";

  out << "stage occupancy (end-of-cycle, tokens -> cycles):\n";
  for (std::size_t s = 0; s < p.occupancy_hist.size(); ++s) {
    const auto& row = p.occupancy_hist[s];
    std::uint64_t total = 0, weighted = 0;
    std::size_t max_occ = 0;
    for (std::size_t occ = 0; occ < row.size(); ++occ) {
      total += row[occ];
      weighted += row[occ] * occ;
      if (row[occ] != 0) max_occ = occ;
    }
    out << "  " << (s < meta.stage_names.size() ? meta.stage_names[s] : "?")
        << ": mean "
        << (total == 0 ? 0.0
                       : static_cast<double>(weighted) / static_cast<double>(total))
        << " max " << max_occ << "  [";
    for (std::size_t occ = 0; occ <= max_occ && occ < row.size(); ++occ) {
      if (occ != 0) out << ' ';
      out << row[occ];
    }
    out << "]\n";
  }

  out << "stall causes (no_ready/guard/capacity):\n";
  for (std::size_t pl = 0; pl * core::kNumStallCauses + (core::kNumStallCauses - 1) <
                           p.stall_causes.size();
       ++pl) {
    const std::uint64_t* c = &p.stall_causes[pl * core::kNumStallCauses];
    const std::uint64_t total = c[0] + c[1] + c[2];
    if (total == 0) continue;
    out << "  " << (pl < meta.place_names.size() ? meta.place_names[pl] : "?")
        << ": " << total << " (" << c[0] << "/" << c[1] << "/" << c[2] << ")\n";
  }

  out << "transition fires:\n";
  for (std::size_t t = 0; t < p.fires.size(); ++t) {
    if (p.fires[t] == 0) continue;
    out << "  "
        << (t < meta.transition_names.size() ? meta.transition_names[t] : "?")
        << ": " << p.fires[t] << '\n';
  }
  return out.str();
}

}  // namespace rcpn::obs
