#include "cli/args.h"

#include <cerrno>
#include <cstdlib>

namespace densest {

StatusOr<Args> Args::Parse(const std::vector<std::string>& tokens) {
  Args out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      out.positional_.push_back(tok);
      continue;
    }
    std::string body = tok.substr(2);
    if (body.empty() || body[0] == '=') {
      return Status::InvalidArgument("malformed flag: " + tok);
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      out.flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      out.flags_[body] = tokens[i + 1];
      ++i;
    } else {
      out.flags_[body] = "true";
    }
  }
  return out;
}

const std::string* Args::Find(const std::string& name) const {
  read_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

void Args::Fail(Status error) const {
  if (error_.ok()) error_ = std::move(error);
}

std::string Args::GetString(const std::string& name,
                            const std::string& def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

double Args::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    Fail(Status::InvalidArgument("--" + name + " expects a number, got '" +
                                 *v + "'"));
    return def;
  }
  return d;
}

int64_t Args::GetInt64(const std::string& name, int64_t def, int64_t min,
                       int64_t max) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE || n < min ||
      n > max) {
    Fail(Status::InvalidArgument("--" + name + " expects an integer in [" +
                                 std::to_string(min) + ", " +
                                 std::to_string(max) + "], got '" + *v +
                                 "'"));
    return def;
  }
  return n;
}

bool Args::GetBool(const std::string& name, bool def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  Fail(Status::InvalidArgument("--" + name + " expects a boolean, got '" + *v +
                               "'"));
  return def;
}

Status Args::Check() const {
  if (!error_.ok()) return error_;
  std::string unread;
  for (const auto& [name, value] : flags_) {
    if (!read_.count(name)) unread += " --" + name;
  }
  if (unread.empty()) return Status::OK();
  return Status::InvalidArgument("unknown flag(s):" + unread);
}

}  // namespace densest
