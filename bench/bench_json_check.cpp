// Validates BENCH_*.json files emitted by the microbenchmarks.
//
// Run by the bench-smoke CTest target after the smoke benches: parses each
// file with a strict little JSON parser and checks the schema documented in
// bench_json.hpp — a "bench" string and a non-empty "benchmarks" array whose
// entries carry a name plus positive ops_per_sec / ns_per_event and a
// non-negative allocs_per_event. Exits non-zero on any parse or schema
// error so a rotten harness fails the suite instead of rotting silently.
//
//   bench_json_check --against <committed.json> <fresh.json> --fields a,b,...
//
// also compares a fresh run with the committed file: every listed field of
// every entry must be equal in the same-named entry of the other file, and
// both files must hold the same entry names. Listed fields are the
// deterministic ones (counts, bytes); wall-clock fields are left out. Exits
// 1 on a difference, so a committed BENCH file cannot drift from the code.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(JsonValue& out, std::string& error) {
    if (!value(out)) {
      error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing data at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }
  bool literal(const char* word, JsonValue& out, JsonValue::Kind kind,
               bool boolean) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return fail("bad literal");
    }
    out.kind = kind;
    out.boolean = boolean;
    return true;
  }
  bool string_token(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        switch (text_[pos_++]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: return fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') return literal("null", out, JsonValue::Kind::kNull, false);
    if (c == 't') return literal("true", out, JsonValue::Kind::kBool, true);
    if (c == 'f') return literal("false", out, JsonValue::Kind::kBool, false);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string_token(out.string);
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue element;
        if (!value(element)) return false;
        out.array.push_back(std::move(element));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string_token(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        JsonValue element;
        if (!value(element)) return false;
        out.object.emplace(std::move(key), std::move(element));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    // number
    const std::size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("unexpected character");
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return fail("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Parses `path` and checks its schema; on success `root` holds the file.
bool load_file(const std::string& path, JsonValue& root) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  std::string error;
  if (!JsonParser{buffer.str()}.parse(root, error)) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const auto schema_error = [&](const std::string& why) {
    std::fprintf(stderr, "%s: schema error: %s\n", path.c_str(), why.c_str());
    return false;
  };
  if (root.kind != JsonValue::Kind::kObject) {
    return schema_error("top level is not an object");
  }
  const auto bench = root.object.find("bench");
  if (bench == root.object.end() ||
      bench->second.kind != JsonValue::Kind::kString ||
      bench->second.string.empty()) {
    return schema_error("missing or empty \"bench\" string");
  }
  const auto benchmarks = root.object.find("benchmarks");
  if (benchmarks == root.object.end() ||
      benchmarks->second.kind != JsonValue::Kind::kArray ||
      benchmarks->second.array.empty()) {
    return schema_error("missing or empty \"benchmarks\" array");
  }
  for (const JsonValue& entry : benchmarks->second.array) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return schema_error("benchmark entry is not an object");
    }
    const auto field = [&](const char* key, JsonValue::Kind kind,
                           const JsonValue** out) {
      const auto it = entry.object.find(key);
      if (it == entry.object.end() || it->second.kind != kind) return false;
      *out = &it->second;
      return true;
    };
    const JsonValue* v = nullptr;
    if (!field("name", JsonValue::Kind::kString, &v) || v->string.empty()) {
      return schema_error("entry missing \"name\"");
    }
    const std::string name = v->string;
    if (!field("ops_per_sec", JsonValue::Kind::kNumber, &v) || v->number <= 0) {
      return schema_error(name + ": ops_per_sec missing or not positive");
    }
    if (!field("ns_per_event", JsonValue::Kind::kNumber, &v) || v->number <= 0) {
      return schema_error(name + ": ns_per_event missing or not positive");
    }
    if (!field("allocs_per_event", JsonValue::Kind::kNumber, &v) ||
        v->number < 0) {
      return schema_error(name + ": allocs_per_event missing or negative");
    }
  }
  std::printf("%s: ok (%zu benchmark entries)\n", path.c_str(),
              benchmarks->second.array.size());
  return true;
}

/// The entries of a loaded file by name.
std::map<std::string, const JsonValue*> entries_by_name(const JsonValue& root) {
  std::map<std::string, const JsonValue*> entries;
  for (const JsonValue& entry : root.object.at("benchmarks").array) {
    entries.emplace(entry.object.at("name").string, &entry);
  }
  return entries;
}

/// The value of `key` in `entry` as text, or "missing".
std::string field_text(const JsonValue& entry, const std::string& key) {
  const auto it = entry.object.find(key);
  if (it == entry.object.end()) return "missing";
  if (it->second.kind == JsonValue::Kind::kNumber) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", it->second.number);
    return text;
  }
  if (it->second.kind == JsonValue::Kind::kString) {
    return '"' + it->second.string + '"';
  }
  return "non-scalar";
}

bool check_against(const std::string& committed_path,
                   const std::string& fresh_path,
                   const std::vector<std::string>& fields) {
  JsonValue committed;
  JsonValue fresh;
  if (!load_file(committed_path, committed) || !load_file(fresh_path, fresh)) {
    return false;
  }
  const auto old_entries = entries_by_name(committed);
  const auto new_entries = entries_by_name(fresh);
  bool ok = true;
  for (const auto& [name, entry] : new_entries) {
    if (old_entries.count(name) == 0) {
      std::fprintf(stderr, "%s: entry %s is not in %s\n", fresh_path.c_str(),
                   name.c_str(), committed_path.c_str());
      ok = false;
    }
  }
  for (const auto& [name, old_entry] : old_entries) {
    const auto it = new_entries.find(name);
    if (it == new_entries.end()) {
      std::fprintf(stderr, "%s: entry %s is missing\n", fresh_path.c_str(),
                   name.c_str());
      ok = false;
      continue;
    }
    for (const std::string& key : fields) {
      const std::string was = field_text(*old_entry, key);
      const std::string now = field_text(*it->second, key);
      if (was != now || was == "missing") {
        std::fprintf(stderr, "%s: %s.%s differs: committed %s, fresh %s\n",
                     fresh_path.c_str(), name.c_str(), key.c_str(),
                     was.c_str(), now.c_str());
        ok = false;
      }
    }
  }
  if (ok) {
    std::printf("%s: %zu fields of %zu entries match %s\n", fresh_path.c_str(),
                fields.size(), old_entries.size(), committed_path.c_str());
  }
  return ok;
}

std::vector<std::string> split_fields(const std::string& list) {
  std::vector<std::string> fields;
  std::stringstream in{list};
  std::string field;
  while (std::getline(in, field, ',')) {
    if (!field.empty()) fields.push_back(field);
  }
  return fields;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--against") {
    if (args.size() != 5 || args[3] != "--fields" ||
        split_fields(args[4]).empty()) {
      std::fprintf(stderr,
                   "usage: bench_json_check --against <committed.json> "
                   "<fresh.json> --fields <a,b,...>\n");
      return 2;
    }
    return check_against(args[1], args[2], split_fields(args[4])) ? 0 : 1;
  }
  if (args.empty()) {
    std::fprintf(stderr, "usage: bench_json_check <BENCH_*.json>...\n");
    return 2;
  }
  bool ok = true;
  for (const std::string& path : args) {
    JsonValue root;
    ok = load_file(path, root) && ok;
  }
  return ok ? 0 : 1;
}
