#include "base/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace calm {

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}
Json Json::Int(int64_t i) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = i;
  return j;
}
Json Json::Double(double d) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = d;
  return j;
}
Json Json::Str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}
Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}
Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

int64_t Json::int_value() const {
  return kind_ == Kind::kDouble ? static_cast<int64_t>(double_) : int_;
}
double Json::double_value() const {
  return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
}

void Json::Append(Json value) { items_.push_back(std::move(value)); }
void Json::Set(std::string key, Json value) {
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {
Status MissingField(std::string_view key, const char* want) {
  return InvalidArgumentError("JSON object is missing " + std::string(want) +
                              " member '" + std::string(key) + "'");
}
}  // namespace

Result<int64_t> Json::GetInt(std::string_view key) const {
  const Json* j = Find(key);
  if (j == nullptr || !j->is_number()) return MissingField(key, "an integer");
  return j->int_value();
}
Result<uint64_t> Json::GetUint(std::string_view key) const {
  CALM_ASSIGN_OR_RETURN(int64_t i, GetInt(key));
  return static_cast<uint64_t>(i);
}
Result<double> Json::GetDouble(std::string_view key) const {
  const Json* j = Find(key);
  if (j == nullptr || !j->is_number()) return MissingField(key, "a number");
  return j->double_value();
}
Result<std::string> Json::GetString(std::string_view key) const {
  const Json* j = Find(key);
  if (j == nullptr || !j->is_string()) return MissingField(key, "a string");
  return j->string_value();
}
Result<bool> Json::GetBool(std::string_view key) const {
  const Json* j = Find(key);
  if (j == nullptr || !j->is_bool()) return MissingField(key, "a boolean");
  return j->bool_value();
}
Result<const Json*> Json::GetArray(std::string_view key) const {
  const Json* j = Find(key);
  if (j == nullptr || !j->is_array()) return MissingField(key, "an array");
  return j;
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

namespace {
void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NewlineIndent(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}
}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      *out += std::to_string(int_);
      break;
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      *out += buf;
      break;
    }
    case Kind::kString:
      EscapeTo(string_, out);
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        NewlineIndent(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      NewlineIndent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        NewlineIndent(out, indent, depth + 1);
        EscapeTo(members_[i].first, out);
        *out += indent < 0 ? ":" : ": ";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      NewlineIndent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    CALM_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Containers recurse; bounding their nesting bounds the stack.
      if (depth_ >= Json::kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
      ++depth_;
      Result<Json> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      CALM_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::Str(std::move(s));
    }
    if (ConsumeWord("true")) return Json::Bool(true);
    if (ConsumeWord("false")) return Json::Bool(false);
    if (ConsumeWord("null")) return Json::Null();
    return ParseNumber();
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return Error("malformed number");
    if (!is_double) {
      int64_t value = 0;
      auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && p == token.data() + token.size()) {
        return Json::Int(value);
      }
      // Out-of-range for int64 (e.g. huge unsigned): fall through to double.
    }
    double d = std::strtod(std::string(token).c_str(), nullptr);
    if (std::isnan(d)) return Error("malformed number");
    return Json::Double(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
            out.push_back(e);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("malformed \\u escape");
              }
            }
            // Traces are ASCII; keep only the low byte for control escapes.
            out.push_back(static_cast<char>(code & 0x7f));
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    Json out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      CALM_ASSIGN_OR_RETURN(Json value, ParseValue());
      out.Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    Json out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      CALM_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      CALM_ASSIGN_OR_RETURN(Json value, ParseValue());
      out.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // containers open around pos_
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace calm
