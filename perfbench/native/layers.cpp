// perfbench_layers: the traced runs' in-process peel, one entry point
// lower at a time than the serving front doors.
//
//   perfbench_layers peel --cache DIR --script FILE --shards N --specs M:Q,...
//       Replays the request lines of FILE (paths relative to the working
//       directory) closed-loop, one request at a time:
//         session  RequestRouter::Session::handle_line + settle (no socket)
//         engine   WatermarkEngine::submit + future.get() with the same lazy
//                  sources the router builds (no session, no model lookup)
//       then times the layer calls underneath directly on every spec:
//       ModelStore::checkout, the EmMark scheme, OwnershipEvidence,
//       Fingerprinter, the artifact savers/loaders and the scoring and
//       extraction kernels.
//   perfbench_layers eval --cache DIR --model M --quant Q --seed N --tokens T
//                         --seconds S
//       perplexity() on one thread with phaseprof off and on, alternating
//       for S/2 seconds, plus the standalone nn forwards at the pass's
//       shapes.
//
// Prints one JSON object keyed by BENCHMARK.json per-layer names, plus the
// computed (not counted) work per pass or derive that run.py files apart.
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>

#include "cli/router.h"
#include "common.h"
#include "data/corpus.h"
#include "eval/perplexity.h"
#include "model_zoo/store.h"
#include "nn/embedding.h"
#include "nn/ffn.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "util/phaseprof.h"
#include "util/threadpool.h"
#include "wm/emmark.h"
#include "wm/engine.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"

namespace {

using namespace emmark;
using perfbench::Flags;
using perfbench::Json;
using perfbench::median_ms;
using perfbench::now_s;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

ModelSpec spec_of(const std::string& model, const std::string& quant) {
  ModelSpec spec;
  spec.model = model;
  spec.method = perfbench::quant_method(model, quant);
  return spec;
}

/// One protocol request line: verb plus key=value parameters.
struct Request {
  std::string verb;
  std::map<std::string, std::string> params;

  explicit Request(const std::string& line) {
    std::istringstream in(line);
    in >> verb;
    std::string token;
    while (in >> token) {
      const size_t eq = token.find('=');
      params[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
  ModelSpec spec() const { return spec_of(get("model"), get("quant", "int4")); }
};

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// --- session level -----------------------------------------------------------

double replay_session(const std::vector<std::string>& lines, const std::string& cache,
                      size_t shards, int* failures) {
  RouterConfig config;
  config.cache_dir = cache;
  config.shards = shards;
  RequestRouter router(config);
  auto session = router.open_session();
  std::string last;
  const RequestRouter::LineSink sink = [&](const std::string& line) { last = line; };
  auto run = [&](const std::string& line) {
    session->handle_line(line, sink);
    session->settle(sink);
    if (last.find("\"ok\":true") == std::string::npos) ++*failures;
  };
  for (const std::string& line : lines) run(line);  // warm: every spec built
  std::vector<double> ms;
  for (const std::string& line : lines) {
    const double t0 = now_s();
    run(line);
    ms.push_back((now_s() - t0) * 1e3);
  }
  session->finish(sink);
  return mean(ms);
}

// --- engine level ------------------------------------------------------------

/// Everything one replayed request's lazy sources own until it resolves.
struct Sources {
  std::unique_ptr<QuantizedModel> model;
  SchemeRecord record;
  FingerprintSet set;
  std::unique_ptr<OwnershipEvidence> evidence;
};

bool engine_request(WatermarkEngine& engine, const ModelHandle& handle, const Request& req) {
  Sources src;
  const std::string id = req.get("id");
  auto suspect = [&src, &handle, &req] {
    src.model = std::make_unique<QuantizedModel>(*handle.original);
    src.model->load_codes(req.get("codes"));
  };
  if (req.verb == "insert") {
    WatermarkEngine::InsertRequest r;
    r.id = id;
    r.stats = handle.stats.get();
    r.key.bits_per_layer = std::stoll(req.get("bits", "8"));
    r.key.candidate_ratio = std::stoll(req.get("ratio", "10"));
    r.seed_from_id = req.get("seed-from-id", "0") == "1";
    r.model_factory = [&src, &handle] {
      src.model = std::make_unique<QuantizedModel>(*handle.original);
      return src.model.get();
    };
    const auto done = [&](const WatermarkEngine::InsertResult& slot) {
      if (!slot.ok) return;
      src.model->save_codes(req.get("codes"));
      slot.record.save(req.get("record"));
      OwnershipEvidence::create("owner", slot.record, *handle.original, *handle.stats,
                                1770000000)
          .save(req.get("evidence"));
    };
    return engine.submit(std::move(r), done).get().ok;
  }
  if (req.verb == "extract") {
    WatermarkEngine::ExtractRequest r;
    r.id = id;
    r.sources_factory = [&] {
      suspect();
      src.record = SchemeRecord::load(req.get("record"));
      return WatermarkEngine::ExtractRequest::Sources{src.model.get(),
                                                      handle.original.get(), &src.record};
    };
    return engine.submit(std::move(r)).get().ok;
  }
  if (req.verb == "trace") {
    WatermarkEngine::TraceRequest r;
    r.id = id;
    r.sources_factory = [&] {
      suspect();
      src.set = FingerprintSet::load(req.get("set"));
      return WatermarkEngine::TraceRequest::Sources{src.model.get(), handle.original.get(),
                                                    &src.set};
    };
    return engine.submit(std::move(r)).get().ok;
  }
  WatermarkEngine::VerifyRequest r;
  r.id = id;
  r.sources_factory = [&] {
    suspect();
    src.evidence = std::make_unique<OwnershipEvidence>(
        OwnershipEvidence::load(req.get("evidence")));
    return WatermarkEngine::VerifyRequest::Sources{src.model.get(), handle.original.get(),
                                                   handle.stats.get(),
                                                   src.evidence.get()};
  };
  return engine.submit(std::move(r)).get().ok;
}

double replay_engine(const std::vector<std::string>& lines, ModelStore& store,
                     int* failures) {
  WatermarkEngine engine;
  auto run = [&](const std::string& line) {
    const Request req(line);
    const ModelHandle handle = store.get(req.spec());  // the cli layer's lookup
    const double t0 = now_s();
    if (!engine_request(engine, handle, req)) ++*failures;
    return (now_s() - t0) * 1e3;
  };
  for (const std::string& line : lines) run(line);  // warm, as the session replay
  std::vector<double> ms;
  for (const std::string& line : lines) ms.push_back(run(line));
  return mean(ms);
}

// --- direct layer calls -------------------------------------------------------

/// Median ms of `fn` where every call first runs an untimed `prepare`.
template <typename Prepare, typename Fn>
double median_ms_prepared(Prepare&& prepare, Fn&& fn, int reps = 7) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    prepare();
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return perfbench::median(ms);
}

uint64_t file_bytes(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

std::map<std::string, double> direct_calls(ModelStore& store, const ModelSpec& spec,
                                           const std::string& dir) {
  std::map<std::string, double> m;
  const ModelHandle handle = store.get(spec);
  const QuantizedModel& original = *handle.original;
  const ActivationStats& stats = *handle.stats;
  const auto scheme = WatermarkRegistry::create("emmark");
  WatermarkKey key;
  key.seed = 101;
  key.bits_per_layer = 8;
  key.candidate_ratio = 10;

  m["model_zoo.store.checkout_ms"] = median_ms([&] { (void)store.checkout(spec); });
  m["wm.derive_ms"] = median_ms([&] { (void)scheme->derive(original, stats, key); });
  std::unique_ptr<QuantizedModel> fresh;
  m["wm.insert_ms"] = median_ms_prepared(
      [&] { fresh = std::make_unique<QuantizedModel>(original); },
      [&] { (void)scheme->insert(*fresh, stats, key); });

  QuantizedModel marked = original;
  const SchemeRecord record = scheme->insert(marked, stats, key);
  m["wm.extract_ms"] = median_ms([&] { (void)scheme->extract(marked, original, record); });
  m["wm.evidence_create_ms"] = median_ms(
      [&] { (void)OwnershipEvidence::create("owner", record, original, stats, 1770000000); });
  const OwnershipEvidence evidence =
      OwnershipEvidence::create("owner", record, original, stats, 1770000000);
  m["wm.verify_ms"] = median_ms([&] { (void)evidence.verify(marked, original, stats, 90.0); });

  std::vector<QuantizedModel> devices;
  const FingerprintSet set = Fingerprinter::enroll(
      "emmark", original, stats, key, {"dev-0", "dev-1", "dev-2", "dev-3"}, devices);
  m["wm.trace_ms"] =
      median_ms([&] { (void)Fingerprinter::trace(devices[1], original, set, 90.0); });

  const std::string stem = dir + "/" + spec.model;
  const std::string codes = stem + ".codes", rec = stem + ".rec", evid = stem + ".evid",
                    fps = stem + ".fps";
  m["util.serialize.save_codes_ms"] = median_ms([&] { marked.save_codes(codes); });
  m["util.serialize.record_save_ms"] = median_ms([&] { record.save(rec); });
  m["util.serialize.evidence_save_ms"] = median_ms([&] { evidence.save(evid); });
  set.save(fps);
  m["util.serialize.bytes_per_insert"] =
      static_cast<double>(file_bytes(codes) + file_bytes(rec) + file_bytes(evid));
  QuantizedModel suspect = original;
  m["util.serialize.load_codes_ms"] = median_ms([&] { suspect.load_codes(codes); });
  m["util.serialize.record_load_ms"] = median_ms([&] { (void)SchemeRecord::load(rec); });
  m["util.serialize.evidence_load_ms"] =
      median_ms([&] { (void)OwnershipEvidence::load(evid); });
  m["util.serialize.set_load_ms"] = median_ms([&] { (void)FingerprintSet::load(fps); });

  // Kernels: every layer's scoring sweep, and the recorded-bit extraction.
  double codes_scored = 0;
  for (int64_t i = 0; i < original.num_layers(); ++i) {
    codes_scored += static_cast<double>(original.layer(i).weights.numel());
  }
  const double score_ms = median_ms([&] {
    for (int64_t i = 0; i < original.num_layers(); ++i) {
      const QuantizedLayer& layer = original.layer(i);
      (void)score_layer(layer.weights, stats.find(layer.name).abs_mean, key.alpha, key.beta);
    }
  });
  m["kernels.score_ns_per_code"] = score_ms * 1e6 / codes_scored;
  m["kernels.codes_scored_per_derive"] = codes_scored;
  const WatermarkRecord& bits = record.as<WatermarkRecord>();
  const double extract_ms =
      median_ms([&] { (void)extract_recorded_bits(marked, original, bits); });
  m["kernels.extract_ns_per_bit"] =
      extract_ms * 1e6 / static_cast<double>(bits.total_bits());
  return m;
}

int cmd_peel(const Flags& flags) {
  std::vector<std::string> lines;
  {
    std::ifstream in(flags.str("script"));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) throw std::invalid_argument("empty script");
  const std::string cache = flags.str("cache");
  int failures = 0;
  Json out;
  out.num("cli.session_ms", replay_session(lines, cache, static_cast<size_t>(
                                                             flags.num("shards", 1)),
                                           &failures));

  ModelStoreConfig store_config;
  store_config.cache_dir = cache;
  ModelStore store(store_config);
  out.num("wm.engine.direct_ms", replay_engine(lines, store, &failures));

  const std::string dir = "direct";  // the direct calls' artifacts, under the run directory
  std::filesystem::create_directories(dir);
  std::map<std::string, std::vector<double>> per_spec;
  for (const std::string& item : split(flags.str("specs"), ',')) {
    const size_t colon = item.find(':');
    const ModelSpec spec = spec_of(item.substr(0, colon), item.substr(colon + 1));
    for (const auto& [name, value] : direct_calls(store, spec, dir)) {
      per_spec[name].push_back(value);
    }
  }
  for (const auto& [name, values] : per_spec) out.num(name, mean(values));
  out.num("failures", failures).print();
  return 0;
}

// --- eval / nn ---------------------------------------------------------------

/// Activation rows of each forward a perplexity() pass runs: the PplConfig
/// tiling, with consecutive tiles merged up to max_tokens_per_forward.
std::vector<int64_t> forward_rows(const std::vector<TokenId>& stream, const PplConfig& c) {
  std::vector<int64_t> rows;
  int64_t run = 0;
  for (const Batch& b : tile_eval_batches(stream, c.batch_size, c.seq_len)) {
    const int64_t tokens = b.batch_size * b.seq_len;
    if (run > 0 && (c.max_tokens_per_forward <= 0 ||
                    run + tokens > c.max_tokens_per_forward)) {
      rows.push_back(run);
      run = 0;
    }
    run += tokens;
  }
  if (run > 0) rows.push_back(run);
  return rows;
}

Tensor random_tensor(int64_t rows, int64_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.next_normal_f();
  return t;
}

int cmd_eval(const Flags& flags) {
  const std::string model = flags.str("model");
  ModelZoo zoo(flags.str("cache"));
  const QuantizedModel qm(*zoo.model(model), *zoo.stats(model),
                          perfbench::quant_method(model, flags.str("quant", "int4")));
  const std::vector<TokenId> stream =
      perfbench::seeded_stream(static_cast<uint64_t>(flags.num("seed", 1)),
                               static_cast<int64_t>(flags.num("tokens", 4096)));
  const PplConfig config;
  const std::vector<int64_t> rows = forward_rows(stream, config);

  // One thread: phaseprof's counters are exact wall attribution only there.
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);
  // The pass pairs (phaseprof off, then on) fill half the measured time;
  // the standalone nn forwards below take most of the rest.
  const double pairs_s = 0.5 * flags.num("seconds", 10);
  std::vector<double> off_ms, on_ms, gemm, dequant, attention, nll;
  using phaseprof::Phase;
  auto phase_ms = [](Phase p) { return static_cast<double>(phaseprof::total_ns(p)) * 1e-6; };
  const std::string ref_bits = perfbench::bits_hex(perplexity(*qm.materialize(), stream, config));
  std::string pass_bits;
  auto pass = [&] {
    const std::string bits = perfbench::bits_hex(perplexity(qm, stream, config));
    if (pass_bits.find(bits) == std::string::npos) pass_bits += bits + ",";
  };
  pass();
  const double start = now_s();
  while (off_ms.size() < 3 || now_s() - start < pairs_s) {
    phaseprof::set_enabled(false);
    double t0 = now_s();
    pass();
    off_ms.push_back((now_s() - t0) * 1e3);

    phaseprof::set_enabled(true);
    phaseprof::reset();
    t0 = now_s();
    pass();
    on_ms.push_back((now_s() - t0) * 1e3);
    phaseprof::set_enabled(false);
    gemm.push_back(phase_ms(Phase::kGemm) - phase_ms(Phase::kDequant));
    dequant.push_back(phase_ms(Phase::kDequant));
    attention.push_back(phase_ms(Phase::kAttention));
    nll.push_back(phase_ms(Phase::kSoftmaxNll));
  }
  using perfbench::median;
  const double gemm_ms = median(gemm), dequant_ms = median(dequant);
  const double spans_ms = gemm_ms + dequant_ms + median(attention) + median(nll);

  // Computed (not counted) work per pass, from the config and the tiling.
  const ModelConfig& mc = qm.config();
  const int64_t d = mc.d_model, h = mc.ffn_hidden;
  const int64_t ffn_mats = mc.family == ArchFamily::kLlamaStyle ? 3 : 2;
  const double weights_per_row =
      static_cast<double>(mc.n_layers * (4 * d * d + ffn_mats * d * h) + d * mc.vocab_size);
  double total_rows = 0;
  for (int64_t r : rows) total_rows += static_cast<double>(r);
  const double gemm_flops = 2.0 * total_rows * weights_per_row;
  const double dequant_bytes =
      static_cast<double>(rows.size()) * static_cast<double>(qm.code_bytes());

  // Standalone nn forwards at the pass's shapes, times calls per pass.
  Rng rng(7);
  const bool llama = mc.family == ArchFamily::kLlamaStyle;
  Embedding tok("tok", mc.vocab_size, d, rng), pos("pos", mc.max_seq, d, rng);
  LayerNorm ln("ln", d);
  RmsNorm rms("rms", d);
  FeedForward ffn("ffn", llama ? FfnKind::kSwiGlu : FfnKind::kRelu, d, h, !llama, rng);
  Linear up("up", d, h, !llama, rng), down("down", h, d, !llama, rng);
  Linear lm_head("lm_head", d, mc.vocab_size, false, rng);
  double embed_ms = 0, norm_ms = 0, ffn_act_ms = 0, lm_head_ms = 0;
  for (int64_t m : rows) {
    const Tensor x = random_tensor(m, d, rng), xh = random_tensor(m, h, rng);
    std::vector<TokenId> ids(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) ids[static_cast<size_t>(i)] = stream[static_cast<size_t>(i)];
    std::vector<TokenId> positions(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      positions[i] = static_cast<TokenId>(i % static_cast<size_t>(config.seq_len));
    }
    Tensor y, y2;
    embed_ms += median_ms([&] {
      tok.forward(ids, y);
      if (!llama) {
        pos.forward(positions, y2);
        y.add_(y2);
      }
    });
    norm_ms += static_cast<double>(2 * mc.n_layers + 1) *
               median_ms([&] { llama ? rms.forward(x, y) : ln.forward(x, y); });
    const double ffn_ms = median_ms([&] { ffn.forward(x, y); });
    const double linears_ms = static_cast<double>(ffn_mats - 1) *
                                  median_ms([&] { up.forward(x, y); }) +
                              median_ms([&] { down.forward(xh, y); });
    ffn_act_ms += static_cast<double>(mc.n_layers) * std::max(0.0, ffn_ms - linears_ms);
    lm_head_ms += median_ms([&] { lm_head.forward(x, y); });
  }

  const double wall_on = median(on_ms), wall_off = median(off_ms);
  Json()
      .num("eval.gemm_ms", gemm_ms)
      .num("eval.dequant_ms", dequant_ms)
      .num("eval.attention_ms", median(attention))
      .num("eval.softmax_nll_ms", median(nll))
      .num("eval.forwards_per_pass", static_cast<double>(rows.size()))
      .num("eval.tokens_per_forward", total_rows / static_cast<double>(rows.size()))
      .num("eval.pass_ms", wall_on)
      .num("kernels.gemm_gflops", gemm_flops / (gemm_ms * 1e6))
      .num("kernels.dequant_gbps", dequant_bytes / (dequant_ms * 1e6))
      .num("kernels.gemm_flops_per_pass", gemm_flops)
      .num("kernels.dequant_bytes_per_pass", dequant_bytes)
      .num("nn.embed_ms", embed_ms)
      .num("nn.norm_ms", norm_ms)
      .num("nn.ffn_act_ms", ffn_act_ms)
      .num("nn.lm_head_ms", lm_head_ms)
      .num("unattributed_frac", std::max(0.0, 1.0 - spans_ms / wall_on))
      .num("trace.overhead_frac", wall_on / wall_off - 1.0)
      .num("passes", static_cast<double>(off_ms.size() + on_ms.size()))
      .str("ref_bits", ref_bits)
      .str("pass_bits", pass_bits)
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_layers peel|eval --flag value ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Flags flags(argc, argv, 2);
    if (cmd == "peel") return cmd_peel(flags);
    if (cmd == "eval") return cmd_eval(flags);
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
  }
  return 1;
}
