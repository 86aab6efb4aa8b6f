#include "cli/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "model_zoo/zoo.h"
#include "util/argparse.h"

namespace emmark {

QuantMethod parse_quant_spec(const std::string& spec, ArchFamily family) {
  if (spec == "int8") {
    return family == ArchFamily::kOptStyle ? QuantMethod::kSmoothQuantInt8
                                           : QuantMethod::kLlmInt8;
  }
  if (spec == "int4") return QuantMethod::kAwqInt4;
  for (QuantMethod method :
       {QuantMethod::kRtnInt8, QuantMethod::kSmoothQuantInt8, QuantMethod::kLlmInt8,
        QuantMethod::kRtnInt4, QuantMethod::kAwqInt4, QuantMethod::kGptqInt4}) {
    if (spec == to_string(method)) return method;
  }
  throw std::invalid_argument(
      "unknown quant spec: " + spec +
      " (use int4, int8, or an explicit method like awq-int4)");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream split(line);
  std::string token;
  while (split >> token) tokens.push_back(token);
  return tokens;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string error_line(const std::string& id, const std::string& cmd,
                       const std::string& error, const char* marker) {
  std::string line = "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"" +
                     json_escape(cmd) + "\",\"ok\":false,\"error\":\"" +
                     json_escape(error) + "\"";
  if (marker != nullptr) line += ",\"" + std::string(marker) + "\":true";
  return line + "}";
}

Params Params::parse(const std::vector<std::string>& tokens) {
  Params params;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got: " + tokens[i]);
    }
    params.kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return params;
}

std::string Params::get(const std::string& key, const std::string& def) const {
  const auto it = kv.find(key);
  return it == kv.end() ? def : it->second;
}

int64_t Params::get_int(const std::string& key, int64_t def) const {
  const auto it = kv.find(key);
  return it == kv.end() ? def : parse_int(it->second, "parameter " + key);
}

double Params::get_double(const std::string& key, double def) const {
  const auto it = kv.find(key);
  return it == kv.end() ? def : parse_double(it->second, "parameter " + key);
}

std::string line_id(const std::vector<std::string>& tokens) {
  std::string id;
  for (const std::string& token : tokens) {
    if (token.rfind("id=", 0) == 0) id = token.substr(3);
  }
  return id;
}

ModelSpec resolve_spec(const Params& params, int64_t train_steps_cap) {
  ModelSpec spec;
  spec.model = params.get("model", "opt-125m-sim");
  spec.method = parse_quant_spec(params.get("quant", "int4"),
                                 zoo_entry(spec.model).family);
  spec.train_steps_cap = train_steps_cap;
  return spec;
}

// --- the verb table ----------------------------------------------------------

const std::vector<VerbSpec>& verb_table() {
  using Type = ParamSpec::Type;
  using Artifact = ParamSpec::Artifact;
  using Route = VerbSpec::Route;
  // A negative min-wer selects the server's --min-wer gate.
  static const std::vector<VerbSpec> table = {
      {Verb::kInsert, "insert", Route::kSpec, true,
       {{"scheme", Type::kText, "emmark"},
        {"seed", Type::kInt, "100"},
        {"signature-seed", Type::kInt, "424242"},
        {"bits", Type::kInt, "8"},
        {"ratio", Type::kInt, "10"},
        {"seed-from-id", Type::kInt, "0"},
        {"codes", Type::kText, "", Artifact::kWrite},
        {"record", Type::kText, "", Artifact::kWrite},
        {"evidence", Type::kText, "", Artifact::kWrite},
        {"owner", Type::kText, "owner"}}},
      {Verb::kExtract, "extract", Route::kSpec, true,
       {{"codes", Type::kText, nullptr, Artifact::kRead},
        {"record", Type::kText, nullptr, Artifact::kRead}}},
      {Verb::kVerify, "verify", Route::kSpec, true,
       {{"codes", Type::kText, nullptr, Artifact::kRead},
        {"evidence", Type::kText, nullptr, Artifact::kRead},
        {"min-wer", Type::kNumber, "-1"}}},
      {Verb::kTrace, "trace", Route::kSpec, true,
       {{"codes", Type::kText, nullptr, Artifact::kRead},
        {"set", Type::kText, nullptr, Artifact::kRead},
        {"min-wer", Type::kNumber, "-1"}}},
      {Verb::kStats, "stats", Route::kFanOut, true, {}},
      {Verb::kMetrics, "metrics", Route::kFanOut, false, {}},
      {Verb::kQuit, "quit", Route::kFanOut, false, {}},
  };
  return table;
}

const VerbSpec* find_verb(const std::string& name) {
  for (const VerbSpec& verb : verb_table()) {
    if (name == verb.name) return &verb;
  }
  return nullptr;
}

std::string verb_names(bool http_only) {
  std::string names;
  for (const VerbSpec& verb : verb_table()) {
    if (http_only && !verb.http) continue;
    if (!names.empty()) names += ' ';
    names += verb.name;
  }
  return names;
}

const std::string& ParsedRequest::text(const std::string& key) const {
  const auto it = args.kv.find(key);
  if (it == args.kv.end()) throw std::logic_error("undeclared parameter: " + key);
  return it->second;
}

std::vector<std::string> ParsedRequest::artifacts(ParamSpec::Artifact kind) const {
  std::vector<std::string> paths;
  for (const ParamSpec& param : verb->params) {
    if (param.artifact == kind && !text(param.key).empty()) {
      paths.push_back(text(param.key));
    }
  }
  return paths;
}

ParsedRequest parse_request(const std::string& cmd, const Params& params,
                            int64_t train_steps_cap) {
  ParsedRequest request;
  request.verb = find_verb(cmd);
  if (request.verb == nullptr) {
    throw std::invalid_argument("unknown command: " + cmd + " (known: " +
                                verb_names() + ")");
  }
  if (request.verb->route == VerbSpec::Route::kSpec) {
    request.spec = resolve_spec(params, train_steps_cap);
  }
  for (const ParamSpec& param : request.verb->params) {
    const auto it = params.kv.find(param.key);
    if (it == params.kv.end() && param.def == nullptr) {
      throw std::invalid_argument(std::string("missing parameter: ") + param.key);
    }
    if (param.type == ParamSpec::Type::kInt) (void)params.get_int(param.key, 0);
    if (param.type == ParamSpec::Type::kNumber) (void)params.get_double(param.key, 0);
    request.args.kv[param.key] = it == params.kv.end() ? param.def : it->second;
  }
  return request;
}

// --- the §5 `stats` and `quit` responses -------------------------------------
//
// Each reader takes the line's numbers in order, then renders them back
// and accepts only the line's own bytes, so reader and renderer cannot
// drift apart.

namespace {

/// The unsigned integers in `line` from byte `from` on, in order.
std::vector<uint64_t> numbers_in(const std::string& line, size_t from) {
  std::vector<uint64_t> numbers;
  const char* end = line.data() + line.size();
  for (const char* p = line.data() + std::min(from, line.size()); p < end; ++p) {
    if (*p >= '0' && *p <= '9') p = std::from_chars(p, end, numbers.emplace_back()).ptr - 1;
  }
  return numbers;
}

}  // namespace

std::string render_stats(const StatsReply& reply) {
  ShardSnapshot total;
  for (const ShardSnapshot& shard : reply.shards) {
    total.store.hits += shard.store.hits;
    total.store.misses += shard.store.misses;
    total.store.builds += shard.store.builds;
    total.store.evictions += shard.store.evictions;
    total.store.resident += shard.store.resident;
    total.store.resident_bytes += shard.store.resident_bytes;
    total.engine_pending += shard.engine_pending;
  }
  std::ostringstream json;
  auto store = [&json](const ModelStore::Stats& s) {
    json << "\"store\":{\"hits\":" << s.hits << ",\"misses\":" << s.misses
         << ",\"builds\":" << s.builds << ",\"evictions\":" << s.evictions
         << ",\"resident\":" << s.resident << ",\"resident_bytes\":" << s.resident_bytes;
  };
  json << "{\"id\":\"" << json_escape(reply.id) << "\",\"cmd\":\"stats\",\"ok\":true,";
  store(total.store);
  json << ",\"capacity\":" << reply.capacity << "},\"engine\":{\"submitted\":"
       << reply.submitted << ",\"completed\":" << reply.completed
       << ",\"failed\":" << reply.failed << ",\"pending\":" << total.engine_pending
       << "},\"shards\":[";
  for (size_t i = 0; i < reply.shards.size(); ++i) {
    const ShardSnapshot& shard = reply.shards[i];
    json << (i ? "," : "") << "{\"shard\":" << shard.shard << ",";
    store(shard.store);
    json << "},\"engine\":{\"submitted\":" << shard.engine.submitted
         << ",\"completed\":" << shard.engine.completed
         << ",\"failed\":" << shard.engine.failed
         << ",\"cancelled\":" << shard.engine.cancelled
         << ",\"pending\":" << shard.engine_pending << "}}";
  }
  json << "]}";
  return json.str();
}

StatsReply parse_stats(const std::string& line) {
  // The id first (json_escape() undone), since it may hold digits.
  StatsReply reply;
  size_t at = std::strlen("{\"id\":\"");
  for (; at < line.size() && line[at] != '"'; ++at) {
    char c = line[at];
    if (c == '\\' && ++at < line.size()) {
      switch (c = line[at]) {
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u':
          c = static_cast<char>(std::stoi(line.substr(at + 1, 4), nullptr, 16));
          at += 4;
      }
    }
    reply.id += c;
  }
  // Then the top level (7 store fields with capacity, 4 engine fields) and
  // 12 numbers per shard entry.
  std::vector<uint64_t> n = numbers_in(line, at);
  n.resize(std::max<size_t>(n.size(), 11));  // too few fail the check below
  reply.capacity = n[6];
  reply.submitted = n[7];
  reply.completed = n[8];
  reply.failed = n[9];
  for (size_t i = 11; i + 12 <= n.size(); i += 12) {
    reply.shards.push_back({n[i], {n[i + 1], n[i + 2], n[i + 3], n[i + 4], n[i + 5], n[i + 6]},
                            {n[i + 7], n[i + 8], n[i + 9], n[i + 10]}, n[i + 11]});
  }
  if (render_stats(reply) != line) throw std::invalid_argument("not a stats line: " + line);
  return reply;
}

std::string render_quit(uint64_t served) {
  return "{\"cmd\":\"quit\",\"ok\":true,\"served\":" + std::to_string(served) + "}";
}

uint64_t parse_quit(const std::string& line) {
  const std::vector<uint64_t> n = numbers_in(line, 0);
  if (n.size() != 1 || render_quit(n[0]) != line) {
    throw std::invalid_argument("not a quit line: " + line);
  }
  return n[0];
}

}  // namespace emmark
