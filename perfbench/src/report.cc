#include "report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Add(Metric m) {
  for (Metric& existing : metrics_) {
    if (existing.name == m.name) {
      existing = std::move(m);
      return;
    }
  }
  metrics_.push_back(std::move(m));
}

void Report::Value(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  m.note = note;
  Add(std::move(m));
}

void Report::Timing(const std::string& name, std::vector<double> samples,
                    const std::string& unit, const std::string& note) {
  const TailSummary s = Summarize(std::move(samples));
  Metric m;
  m.name = name;
  m.unit = unit;
  m.is_timing = true;
  m.samples = s.count;
  m.insufficient = s.count == 0;
  m.value = s.median;
  m.tail = s.tail;
  m.tail_value = s.tail_value;
  m.note = note;
  Add(std::move(m));
}

void Report::FixedPercentile(const std::string& name,
                             std::vector<double> samples, PerTenThousand p,
                             const std::string& unit,
                             const std::string& note) {
  std::sort(samples.begin(), samples.end());
  const std::optional<double> v = Percentile(samples, p);
  Metric m;
  m.name = name;
  m.unit = unit;
  m.samples = samples.size();
  m.insufficient = !v.has_value();
  m.value = v.value_or(0);
  m.note = note;
  Add(std::move(m));
}

void Report::Expect(const std::string& name, bool ok,
                    const std::string& detail) {
  checks_.push_back({name, ok, detail});
  CountOps(0, ok ? 0 : 1);
}

void Report::Fail(const std::string& what, const densest::Status& status) {
  Expect(what + " succeeded", false, status.ToString());
}

bool Report::correct() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return failed_ == 0 && attempted_ > 0;
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::SetAccount(const std::string& title, const WallAccount& account) {
  accounts_.emplace_back(title, account);
}

void Report::Print(FILE* out) const {
  std::fprintf(out, "\n-- checks --\n");
  for (const Check& c : checks_) {
    std::fprintf(out, "  [%s] %s%s%s\n", c.ok ? " ok " : "FAIL", c.name.c_str(),
                 c.detail.empty() ? "" : ": ", c.detail.c_str());
  }
  std::fprintf(out, "  ops attempted=%llu failed=%llu ops_failed_frac=%.6g\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               attempted_ == 0 ? 1.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_));

  for (const auto& [title, account] : accounts_) {
    std::fprintf(out, "\n-- %s: self time by layer --\n", title.c_str());
    std::fprintf(out, "  %-26s %12s %8s %8s\n", "layer", "self_s", "share",
                 "spans");
    const double wall = account.wall_s > 0 ? account.wall_s : 1;
    for (const LayerTime& lt : account.layers) {
      std::fprintf(out, "  %-26s %12.6f %7.2f%% %8llu\n", lt.layer.c_str(),
                   lt.self_s, 100 * lt.self_s / wall,
                   static_cast<unsigned long long>(lt.spans));
    }
    std::fprintf(out, "  %-26s %12.6f %7.2f%%\n", "(unattributed)",
                 account.unattributed_s, 100 * account.unattributed_s / wall);
    std::fprintf(out, "  %-26s %12.6f %7.2f%%\n", "= traced wall", account.wall_s,
                 100.0);
  }

  std::fprintf(out, "\n-- metrics --\n");
  for (const Metric& m : metrics_) {
    std::string value;
    char buf[160];
    if (m.insufficient) {
      std::snprintf(buf, sizeof(buf), "insufficient (n=%zu)", m.samples);
      value = buf;
    } else if (m.is_timing) {
      std::string tail = m.tail == 0 ? "tail insufficient" : "";
      if (m.tail != 0) {
        std::snprintf(buf, sizeof(buf), "%s=%.6g", PercentileLabel(m.tail).c_str(),
                      m.tail_value);
        tail = buf;
      }
      std::snprintf(buf, sizeof(buf), "median=%.6g %s  %s  n=%zu", m.value,
                    m.unit.c_str(), tail.c_str(), m.samples);
      value = buf;
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g %s", m.value, m.unit.c_str());
      value = buf;
      if (m.samples != 0) value += "  n=" + std::to_string(m.samples);
    }
    std::fprintf(out, "  %-34s %s%s%s\n", m.name.c_str(), value.c_str(),
                 m.note.empty() ? "" : "   # ", m.note.c_str());
  }
}

std::string Report::ToJson(
    const std::map<std::string, std::string>& header) const {
  std::ostringstream o;
  o << "{";
  for (const auto& [k, v] : header) o << Quote(k) << ":" << Quote(v) << ",";
  o << "\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_;
  o << ",\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    o << (i ? "," : "") << "{\"name\":" << Quote(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << Quote(c.detail) << "}";
  }
  o << "],\"accounts\":{";
  for (size_t i = 0; i < accounts_.size(); ++i) {
    const WallAccount& a = accounts_[i].second;
    o << (i ? "," : "") << Quote(accounts_[i].first)
      << ":{\"wall_s\":" << Num(a.wall_s)
      << ",\"unattributed_s\":" << Num(a.unattributed_s) << ",\"layers\":{";
    for (size_t j = 0; j < a.layers.size(); ++j) {
      o << (j ? "," : "") << Quote(a.layers[j].layer)
        << ":{\"self_s\":" << Num(a.layers[j].self_s)
        << ",\"spans\":" << a.layers[j].spans << "}";
    }
    o << "}}";
  }
  o << "},\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? "," : "") << Quote(m.name) << ":{\"unit\":" << Quote(m.unit)
      << ",\"value\":" << (m.insufficient ? "\"insufficient\"" : Num(m.value))
      << ",\"n\":" << m.samples;
    if (m.is_timing) {
      o << ",\"tail\":";
      if (m.tail == 0) {
        o << "\"insufficient\"";
      } else {
        o << "{\"p\":" << Quote(PercentileLabel(m.tail))
          << ",\"value\":" << Num(m.tail_value) << "}";
      }
    }
    if (!m.note.empty()) o << ",\"note\":" << Quote(m.note);
    o << "}";
  }
  o << "}}\n";
  return o.str();
}

}  // namespace perfbench
