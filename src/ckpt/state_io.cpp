#include "ckpt/state_io.hpp"

#include <cstdio>

namespace rcpn::ckpt {

StateWriter& StateWriter::begin(std::string_view kind) {
  if (open_) end();
  out_.append(kind);
  open_ = true;
  return *this;
}

StateWriter& StateWriter::field(std::string_view key, std::string_view value) {
  out_.push_back(' ');
  out_.append(key);
  out_.push_back('=');
  out_.append(value);
  return *this;
}

StateWriter& StateWriter::field(std::string_view key, std::uint64_t value) {
  return field(key, std::string_view(std::to_string(value)));
}

StateWriter& StateWriter::field(std::string_view key, std::int64_t value) {
  return field(key, std::string_view(std::to_string(value)));
}

StateWriter& StateWriter::field(std::string_view key, bool value) {
  return field(key, std::string_view(value ? "1" : "0"));
}

StateWriter& StateWriter::token(std::string_view value) {
  out_.push_back(' ');
  out_.append(value);
  return *this;
}

StateWriter& StateWriter::end() {
  out_.push_back('\n');
  open_ = false;
  return *this;
}

void StateWriter::line(std::string_view kind, std::string_view rest) {
  begin(kind);
  if (!rest.empty()) token(rest);
  end();
}

namespace {

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

StateReader::StateReader(std::string_view text) {
  std::size_t number = 0;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view raw = nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
    ++number;
    if (const std::size_t hash = raw.find('#'); hash != std::string_view::npos)
      raw = raw.substr(0, hash);
    std::vector<std::string_view> toks = split_ws(raw);
    if (toks.empty()) continue;
    Line l;
    l.kind = toks.front();
    l.fields.assign(toks.begin() + 1, toks.end());
    l.number = number;
    lines_.push_back(std::move(l));
  }
}

std::string_view StateReader::peek_kind() const {
  return pos_ < lines_.size() ? lines_[pos_].kind : std::string_view{};
}

void StateReader::next(std::string_view kind) {
  if (pos_ >= lines_.size())
    throw CkptError("checkpoint ended early: expected a '" + std::string(kind) +
                    "' record after line " + std::to_string(line_no_));
  const Line& l = lines_[pos_];
  if (l.kind != kind)
    throw CkptError("checkpoint line " + std::to_string(l.number) + ": expected a '" +
                    std::string(kind) + "' record, found '" + std::string(l.kind) + "'");
  fields_ = l.fields;
  line_no_ = l.number;
  ++pos_;
}

std::string_view StateReader::get(std::string_view key) const {
  for (std::string_view f : fields_) {
    const std::size_t eq = f.find('=');
    if (eq != std::string_view::npos && f.substr(0, eq) == key)
      return f.substr(eq + 1);
  }
  fail("missing field '" + std::string(key) + "'");
}

bool StateReader::has(std::string_view key) const {
  for (std::string_view f : fields_) {
    const std::size_t eq = f.find('=');
    if (eq != std::string_view::npos && f.substr(0, eq) == key) return true;
  }
  return false;
}

std::uint64_t StateReader::parse_u64(std::string_view tok, std::string_view what) const {
  std::uint64_t v = 0;
  if (tok.empty()) fail(std::string(what) + " is empty");
  for (const char c : tok) {
    if (c < '0' || c > '9')
      fail(std::string(what) + " '" + std::string(tok) + "' is not a number");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::uint64_t StateReader::get_u64(std::string_view key) const {
  return parse_u64(get(key), "field '" + std::string(key) + "'");
}

std::int64_t StateReader::get_i64(std::string_view key) const {
  std::string_view tok = get(key);
  bool neg = false;
  if (!tok.empty() && tok.front() == '-') {
    neg = true;
    tok.remove_prefix(1);
  }
  const std::uint64_t mag = parse_u64(tok, "field '" + std::string(key) + "'");
  // Negated in unsigned arithmetic: -2^63 (or a wrapped magnitude) must not
  // overflow a signed negation.
  return static_cast<std::int64_t>(neg ? 0 - mag : mag);
}

bool StateReader::get_bool(std::string_view key) const {
  const std::string_view tok = get(key);
  if (tok == "0") return false;
  if (tok == "1") return true;
  fail("field '" + std::string(key) + "' must be 0 or 1, got '" + std::string(tok) + "'");
}

void StateReader::fail(const std::string& what) const {
  throw CkptError("checkpoint line " + std::to_string(line_no_) + ": " + what);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fnv1a_hex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(bytes)));
  return std::string(buf);
}

}  // namespace rcpn::ckpt
