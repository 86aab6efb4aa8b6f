#include "obs/merge.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace emmark::obs {
namespace {

// A sample key is the full series identity: metric name plus the literal
// label block, e.g. `emmark_requests_shed_total{shard="0"}`. Two workers
// rendering the same series always render the identical key because the
// exposition writer emits labels in insertion order from the same
// registration sites.
struct Sample {
  std::string key;
  std::vector<std::string> values;  // one per part that carried the series
};

struct Family {
  std::string name;
  std::string help_line;  // full "# HELP ..." line, empty if never seen
  std::string type_line;  // full "# TYPE ..." line, empty if never seen
  std::vector<Sample> samples;
  std::unordered_map<std::string, size_t> index;  // key -> samples slot
};

bool is_integer_literal(std::string_view v) {
  if (v.empty()) return false;
  size_t i = (v[0] == '-') ? 1 : 0;
  if (i == v.size()) return false;
  for (; i < v.size(); ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
  }
  return true;
}

// Matches obs::Exposition's double rendering (metrics.cpp format_double)
// so summed series are byte-compatible with natively rendered ones.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string sum_values(const std::vector<std::string>& values) {
  if (values.size() == 1) return values[0];
  bool all_int = true;
  for (const auto& v : values) {
    if (!is_integer_literal(v)) {
      all_int = false;
      break;
    }
  }
  if (all_int) {
    long long total = 0;
    for (const auto& v : values) total += std::strtoll(v.c_str(), nullptr, 10);
    return std::to_string(total);
  }
  double total = 0.0;
  for (const auto& v : values) total += std::strtod(v.c_str(), nullptr);
  return format_double(total);
}

// Second token of a "# HELP name ..." / "# TYPE name ..." line.
std::string_view header_metric_name(std::string_view line) {
  // line starts with "# HELP " or "# TYPE " (7 chars).
  std::string_view rest = line.substr(7);
  size_t sp = rest.find(' ');
  return (sp == std::string_view::npos) ? rest : rest.substr(0, sp);
}

// Metric name of a sample line: everything before '{' or the value
// separator space. For histogram children (`_bucket`, `_sum`, `_count`)
// this differs from the family name, so family attribution relies on the
// "samples follow their header" contiguity of well-formed expositions;
// headerless samples fall back to their own derived name.
std::string_view sample_metric_name(std::string_view line) {
  size_t brace = line.find('{');
  size_t sp = line.find(' ');
  size_t end = std::min(brace == std::string_view::npos ? line.size() : brace,
                        sp == std::string_view::npos ? line.size() : sp);
  return line.substr(0, end);
}

}  // namespace

std::string merge_expositions(const std::vector<std::string>& parts) {
  std::vector<Family> families;
  std::unordered_map<std::string, size_t> family_index;  // name -> slot

  auto family_for = [&](std::string_view name) -> Family& {
    auto it = family_index.find(std::string(name));
    if (it != family_index.end()) return families[it->second];
    family_index.emplace(std::string(name), families.size());
    families.emplace_back();
    families.back().name = std::string(name);
    return families.back();
  };

  for (const auto& part : parts) {
    Family* current = nullptr;
    size_t pos = 0;
    while (pos < part.size()) {
      size_t nl = part.find('\n', pos);
      std::string_view line(part.data() + pos, (nl == std::string::npos)
                                                   ? part.size() - pos
                                                   : nl - pos);
      pos = (nl == std::string::npos) ? part.size() : nl + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        if (line.rfind("# HELP ", 0) == 0) {
          current = &family_for(header_metric_name(line));
          if (current->help_line.empty()) current->help_line = std::string(line);
        } else if (line.rfind("# TYPE ", 0) == 0) {
          current = &family_for(header_metric_name(line));
          if (current->type_line.empty()) current->type_line = std::string(line);
        }
        // "# EOF" and any other comment: skip.
        continue;
      }
      size_t sep = line.rfind(' ');
      if (sep == std::string_view::npos) continue;  // malformed: drop
      std::string key(line.substr(0, sep));
      std::string value(line.substr(sep + 1));
      Family& fam = current ? *current : family_for(sample_metric_name(line));
      auto it = fam.index.find(key);
      if (it == fam.index.end()) {
        fam.index.emplace(key, fam.samples.size());
        fam.samples.push_back(Sample{std::move(key), {std::move(value)}});
      } else {
        fam.samples[it->second].values.push_back(std::move(value));
      }
    }
  }

  std::string out;
  for (const auto& fam : families) {
    if (!fam.help_line.empty()) {
      out += fam.help_line;
      out += '\n';
    }
    if (!fam.type_line.empty()) {
      out += fam.type_line;
      out += '\n';
    }
    for (const auto& sample : fam.samples) {
      out += sample.key;
      out += ' ';
      out += sum_values(sample.values);
      out += '\n';
    }
  }
  return out;
}

}  // namespace emmark::obs
