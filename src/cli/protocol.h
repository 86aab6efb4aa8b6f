// Protocol codec: the one home of the docs/PROTOCOL.md line syntax, used
// by the router's sessions and by the supervisor's routing, HTTP
// validation and fan-out merges. A verb's whole wire contract is one row
// of verb_table(): its typed parameters with defaults and required flags,
// which of them name artifacts it reads or writes, and whether the
// supervisor routes it by model spec or fans it out. Adding a verb starts
// with a row here; an engine verb then supplies its engine steps in
// src/cli/router.cpp. The §5 `stats` and `quit` responses, which the
// supervisor reads back from its workers, have one renderer and one
// reader each at the end of this file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model_zoo/store.h"
#include "wm/engine.h"

namespace emmark {

/// Maps a --quant spec to a method: "int8"/"int4" pick the paper's
/// per-family quantizer; explicit method names ("awq-int4", ...) pass
/// through. Throws std::invalid_argument on unknown specs.
QuantMethod parse_quant_spec(const std::string& spec, ArchFamily family);

/// The whitespace-separated tokens of a line; tokens[0] is the verb.
std::vector<std::string> tokenize(const std::string& line);

std::string json_escape(const std::string& s);
/// Numbers in response fields (%.6g).
std::string json_double(double v);
/// The §3 failure line. A non-null `marker` appends `,"<marker>":true`
/// ("shed", "retryable").
std::string error_line(const std::string& id, const std::string& cmd,
                       const std::string& error, const char* marker = nullptr);

/// The `key=value` tokens after the verb; a repeated key keeps its last
/// value. Numeric getters parse strictly (util/argparse.h's parse_int and
/// parse_double), so "bits=8x" is an error rather than 8.
struct Params {
  std::map<std::string, std::string> kv;

  /// Throws std::invalid_argument on a token without '=' or an empty key.
  static Params parse(const std::vector<std::string>& tokens);

  std::string get(const std::string& key, const std::string& def) const;
  int64_t get_int(const std::string& key, int64_t def) const;
  double get_double(const std::string& key, double def) const;
};

/// The `id=` a line carries (last one wins, as in Params), read without
/// validating the rest: the id a front door echoes for an unparsed line.
std::string line_id(const std::vector<std::string>& tokens);

/// The request's model spec from its `model` and `quant` parameters
/// (defaults opt-125m-sim and int4). Throws std::invalid_argument on an
/// unknown model or quant spec.
ModelSpec resolve_spec(const Params& params, int64_t train_steps_cap);

// --- the verb table ----------------------------------------------------------

/// One value per verb_table() row, in table order.
enum class Verb { kInsert, kExtract, kVerify, kTrace, kStats, kMetrics, kQuit };

struct ParamSpec {
  enum class Type { kText, kInt, kNumber };
  enum class Artifact { kNone, kRead, kWrite };
  const char* key;
  Type type;
  /// Default as protocol text; nullptr = required.
  const char* def;
  Artifact artifact = Artifact::kNone;
};

struct VerbSpec {
  /// kSpec: an engine verb, served by the home shard of its model spec.
  /// kFanOut: every shard answers and the supervisor merges the replies.
  enum class Route { kSpec, kFanOut };
  Verb verb;
  const char* name;
  Route route;
  /// Served as `POST /v1/<name>` by the supervisor's HTTP front door.
  bool http;
  /// Declared parameters, in the order they are parsed (the first bad
  /// one names the error). `id`, `model` and `quant` are common to all.
  std::vector<ParamSpec> params;
};

const std::vector<VerbSpec>& verb_table();
/// nullptr for an unknown verb.
const VerbSpec* find_verb(const std::string& name);
/// Space-separated verb names in table order; `http_only` keeps the ones
/// the HTTP front door serves.
std::string verb_names(bool http_only = false);

struct ParsedRequest {
  const VerbSpec* verb = nullptr;
  ModelSpec spec;  // Route::kSpec verbs only
  Params args;     // every declared parameter: its value or its default

  const std::string& text(const std::string& key) const;
  int64_t integer(const std::string& key) const { return std::stoll(text(key)); }
  double number(const std::string& key) const { return std::stod(text(key)); }
  /// The non-empty paths of the declared artifact parameters of `kind`.
  std::vector<std::string> artifacts(ParamSpec::Artifact kind) const;
};

/// Parses every declared parameter of `cmd` before anything else happens.
/// Throws std::invalid_argument on an unknown command, an unresolvable
/// spec, a numeric value that does not parse, or a missing required
/// parameter.
ParsedRequest parse_request(const std::string& cmd, const Params& params,
                            int64_t train_steps_cap);

// --- the §5 `stats` and `quit` responses -------------------------------------

/// One backend shard's counters, as a `stats` line carries them.
struct ShardSnapshot {
  size_t shard = 0;  // index on the ring
  ModelStore::Stats store;
  WatermarkEngine::Counters engine;
  size_t engine_pending = 0;
};

/// A `stats` response. Its top-level store counters and engine `pending`
/// are the sums over `shards`, so they are rendered, not stored.
struct StatsReply {
  std::string id;
  uint64_t capacity = 0;  // resident originals before eviction, all shards
  uint64_t submitted = 0, completed = 0, failed = 0;  // the session's requests
  std::vector<ShardSnapshot> shards;
};

std::string render_stats(const StatsReply& reply);
/// Reads back exactly the bytes render_stats() produces. Throws
/// std::invalid_argument on anything else: an error line, a truncated
/// line, a missing field, a non-numeric value, totals that are not the
/// shard sums.
StatsReply parse_stats(const std::string& line);

/// The line that closes a session after `quit`.
std::string render_quit(uint64_t served);
/// Reads back exactly the bytes render_quit() produces; throws
/// std::invalid_argument on anything else.
uint64_t parse_quit(const std::string& line);

}  // namespace emmark
