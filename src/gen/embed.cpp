#include "gen/embed.hpp"

#include <functional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace rcpn::gen {

namespace {

/// One embedded file, split into the pieces the amalgamation reassembles.
struct ParsedSource {
  std::vector<std::string> quoted;  ///< `#include "..."` targets, in order
  std::vector<std::string> system;  ///< `#include <...>` targets, in order
  std::string body;                 ///< everything else, verbatim
};

std::string_view trim_left(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  return s;
}

/// Extract the target of an include directive line, or empty.
std::string include_target(std::string_view line, char open, char close) {
  std::string_view s = trim_left(line);
  if (!s.starts_with("#include")) return {};
  s = trim_left(s.substr(8));
  if (s.empty() || s.front() != open) return {};
  const std::size_t end = s.find(close, 1);
  if (end == std::string_view::npos) return {};
  return std::string(s.substr(1, end - 1));
}

ParsedSource parse_source(const char* text) {
  ParsedSource out;
  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);

    if (std::string q = include_target(line, '"', '"'); !q.empty()) {
      out.quoted.push_back(std::move(q));
      continue;
    }
    if (std::string s = include_target(line, '<', '>'); !s.empty()) {
      out.system.push_back(std::move(s));
      continue;
    }
    if (trim_left(line).starts_with("#pragma once")) continue;
    out.body.append(line);
    out.body.push_back('\n');
  }
  // Collapse the blank lines the stripped include block leaves behind.
  while (out.body.starts_with("\n")) out.body.erase(0, 1);
  return out;
}

bool is_cpp(const std::string& path) { return path.ends_with(".cpp"); }

}  // namespace

const char* find_embedded_file(const std::string& path) {
  for (unsigned i = 0; i < kNumEmbeddedFiles; ++i)
    if (path == kEmbeddedFiles[i].path) return kEmbeddedFiles[i].text;
  return nullptr;
}

std::vector<std::string> embedded_file_paths() {
  std::vector<std::string> paths;
  for (unsigned i = 0; i < kNumEmbeddedFiles; ++i)
    paths.push_back(kEmbeddedFiles[i].path);
  return paths;
}

std::string amalgamate_sources(const std::vector<std::string>& roots) {
  std::unordered_map<std::string, ParsedSource> parsed;
  const auto parsed_of = [&parsed](const std::string& path) -> const ParsedSource& {
    const auto it = parsed.find(path);
    if (it != parsed.end()) return it->second;
    const char* text = find_embedded_file(path);
    if (text == nullptr)
      throw std::runtime_error(
          "amalgamate_sources: '" + path +
          "' is not in the embedded source set — a freestanding simulator can "
          "only inline the library sources embedded at build time "
          "(cmake/EmbedSources.cmake)");
    return parsed.emplace(path, parse_source(text)).first->second;
  };

  // Headers in DFS post-order: every header's quoted includes precede it.
  std::vector<std::string> header_order;
  std::unordered_set<std::string> visited;
  const std::function<void(const std::string&)> visit_header =
      [&](const std::string& path) {
        if (!visited.insert(path).second) return;
        for (const std::string& dep : parsed_of(path).quoted) visit_header(dep);
        header_order.push_back(path);
      };
  for (const std::string& root : roots) visit_header(root);

  // Companion .cpp files: an embedded .cpp belongs to the TU when its owning
  // header (its first quoted include, per the repo convention) was pulled in.
  // A companion's remaining includes may pull further headers, which may in
  // turn own more companions — iterate to the fixpoint. Table order keeps
  // every round, and therefore the output, deterministic.
  std::vector<std::string> cpp_order;
  std::unordered_set<std::string> cpp_taken;
  for (bool grew = true; grew;) {
    grew = false;
    for (unsigned i = 0; i < kNumEmbeddedFiles; ++i) {
      const std::string path = kEmbeddedFiles[i].path;
      if (!is_cpp(path) || cpp_taken.contains(path)) continue;
      const ParsedSource& src = parsed_of(path);
      if (src.quoted.empty() || !visited.contains(src.quoted.front())) continue;
      cpp_taken.insert(path);
      cpp_order.push_back(path);
      for (const std::string& dep : src.quoted) visit_header(dep);
      grew = true;
    }
  }

  // Render: sorted system includes, then headers, then companion bodies.
  std::set<std::string> system;
  const auto collect = [&](const std::vector<std::string>& paths) {
    for (const std::string& p : paths)
      for (const std::string& s : parsed_of(p).system) system.insert(s);
  };
  collect(header_order);
  collect(cpp_order);

  std::string out;
  out +=
      "// ---- amalgamated runtime (" + std::to_string(header_order.size()) +
      " headers, " + std::to_string(cpp_order.size()) +
      " sources; see src/gen/embed.hpp) ----\n";
  for (const std::string& s : system) out += "#include <" + s + ">\n";
  out += "\n";
  for (const std::string& p : header_order) {
    out += "// ---- " + p + " ----\n";
    out += parsed_of(p).body;
    out += "\n";
  }
  for (const std::string& p : cpp_order) {
    out += "// ---- " + p + " ----\n";
    out += parsed_of(p).body;
    out += "\n";
  }
  return out;
}

}  // namespace rcpn::gen
