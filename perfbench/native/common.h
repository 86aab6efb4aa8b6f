// Shared helpers for the benchmark's in-process tools: flag parsing, a
// steady clock, /proc readings of this process, and a flat JSON writer.
// Each tool prints exactly one JSON object on stdout; run.py reads it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "data/corpus.h"
#include "data/vocab.h"
#include "model_zoo/zoo.h"
#include "quant/qmodel.h"

namespace perfbench {

/// `--key value` pairs after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) throw std::invalid_argument("missing --" + key);
    return fallback;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User+system CPU seconds of this process (all threads), from /proc.
inline double process_cpu_s() {
  std::ifstream in("/proc/self/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of this process in KiB.
inline double vm_hwm_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0;
}

/// IEEE bit pattern of a double, as 16 hex digits (exact comparisons).
inline std::string bits_hex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall milliseconds of `fn` over at least `min_reps` calls and
/// `min_s` seconds (after one warm-up call).
template <typename Fn>
double median_ms(Fn&& fn, int min_reps = 5, double min_s = 0.05) {
  fn();
  std::vector<double> ms;
  const double start = now_s();
  while (static_cast<int>(ms.size()) < min_reps || now_s() - start < min_s) {
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

/// Exactly `tokens` tokens of a corpus test split generated from `seed`: the
/// ppl workload's stream (whole passages are cut to a fixed work size).
inline std::vector<emmark::TokenId> seeded_stream(uint64_t seed, int64_t tokens) {
  emmark::CorpusConfig config;
  config.seed = seed;
  config.train_tokens = 0;
  config.valid_tokens = 0;
  config.test_tokens = tokens;
  std::vector<emmark::TokenId> stream = emmark::make_corpus(emmark::synth_vocab(), config).test;
  stream.resize(static_cast<size_t>(tokens));
  return stream;
}

/// Paper quantizer for a zoo spec: int4 -> AWQ; int8 -> SmoothQuant (OPT)
/// or LLM.int8() (LLaMA-2).
inline emmark::QuantMethod quant_method(const std::string& model, const std::string& quant) {
  if (quant == "int4") return emmark::QuantMethod::kAwqInt4;
  if (quant != "int8") throw std::invalid_argument("quant must be int4 or int8");
  return emmark::zoo_entry(model).family == emmark::ArchFamily::kOptStyle
             ? emmark::QuantMethod::kSmoothQuantInt8
             : emmark::QuantMethod::kLlmInt8;
}

/// Flat JSON object writer: numbers, strings and number arrays.
class Json {
 public:
  Json& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& nums(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", values[i]);
      list += buf;
    }
    return raw(key, list + "]");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench
