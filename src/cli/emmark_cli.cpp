// emmark_cli: the watermarking front-door.
//
// One binary drives the whole ownership workflow over on-disk artifacts:
//
//   emmark_cli insert   --scheme emmark --model opt-125m-sim
//       --record wm.rec --codes deployed.codes --evidence wm.evid
//   emmark_cli extract  --record wm.rec --codes deployed.codes
//   emmark_cli verify   --evidence wm.evid --codes deployed.codes
//   emmark_cli enroll   --devices 8 --set fleet.fps --codes-dir fleet/
//   emmark_cli trace    --set fleet.fps --codes fleet/edge-device-3.codes
//   emmark_cli list-schemes
//   emmark_cli daemon   --script session.txt   # or interactive over stdin
//   emmark_cli serve    --port 4780 --shards 2 # TCP front-end, same protocol
//
// `daemon` and `serve` are two transports over one serving core
// (RequestRouter, src/cli/router.h): warm sharded ModelStores plus async
// WatermarkEngines across newline-delimited requests, one JSON result line
// per request. The protocol is specified in docs/PROTOCOL.md; a session of
// N requests against one model pays for a single build.
//
// Models come from the cached model zoo (trained on first use, deterministic
// seeds); quantization is deterministic, so `extract`/`verify`/`trace` can
// rebuild the owner's original from the same cache and only the integer-code
// snapshot of the deployed/suspect model travels through files.
//
// `selftest` runs the full insert->disk->extract/verify round-trip for every
// registered scheme on a tiny in-memory model (no training), plus engine
// batch-determinism and fleet-tracing checks; it is registered with ctest.
#include <unistd.h>

#include <climits>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cli/daemon.h"
#include "net/server.h"
#include "net/supervisor.h"
#include "data/corpus.h"
#include "model_zoo/zoo.h"
#include "util/argparse.h"
#include "util/env.h"
#include "util/threadpool.h"
#include "wm/engine.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {
namespace {

/// Shared --model/--quant/--cache options for commands that rebuild the
/// owner's original model.
void add_model_options(ArgParser& args) {
  args.add_option("model", "opt-125m-sim", "zoo model name");
  args.add_option("quant", "int4",
                  "quantization: int4, int8, or an explicit method name");
  args.add_option("cache", "", "zoo checkpoint cache directory (default: auto)");
}

struct RebuiltModel {
  std::shared_ptr<const ActivationStats> stats;
  std::unique_ptr<QuantizedModel> original;
};

RebuiltModel rebuild_original(const ArgParser& args) {
  const std::string name = args.get("model");
  ModelZoo zoo(args.get("cache"));
  auto fp = zoo.model(name);
  RebuiltModel out;
  out.stats = zoo.stats(name);
  const QuantMethod method =
      parse_quant_spec(args.get("quant"), zoo_entry(name).family);
  out.original = std::make_unique<QuantizedModel>(*fp, *out.stats, method);
  return out;
}

void add_key_options(ArgParser& args) {
  args.add_option("seed", "100", "secret placement seed d");
  args.add_option("signature-seed", "424242", "Rademacher signature seed");
  args.add_option("bits", "8", "signature bits per quantization layer");
  args.add_option("ratio", "10", "candidate pool multiplier (EmMark)");
}

WatermarkKey key_from(const ArgParser& args) {
  WatermarkKey key;
  key.seed = static_cast<uint64_t>(args.get_int("seed"));
  key.signature_seed = static_cast<uint64_t>(args.get_int("signature-seed"));
  key.bits_per_layer = args.get_int("bits");
  key.candidate_ratio = args.get_int("ratio");
  return key;
}

void print_report(const ExtractionReport& report) {
  std::printf("WER %.1f%% (%lld/%lld bits), chance probability 1e%.1f\n",
              report.wer_pct(), static_cast<long long>(report.matched_bits),
              static_cast<long long>(report.total_bits), report.strength_log10());
}

int cmd_list_schemes() {
  for (const std::string& name : WatermarkRegistry::instance().names()) {
    const auto scheme = WatermarkRegistry::create(name);
    std::printf("%-10s (payload v%u)\n", name.c_str(), scheme->payload_version());
  }
  return 0;
}

int cmd_insert(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli insert",
                 "watermark a zoo model; write record/codes/evidence artifacts");
  add_model_options(args);
  add_key_options(args);
  args.add_option("scheme", "emmark", "registered watermarking scheme");
  args.add_option("record", "wm.rec", "output: scheme record archive");
  args.add_option("codes", "deployed.codes", "output: watermarked codes snapshot");
  args.add_option("evidence", "", "output: ownership evidence bundle (optional)");
  args.add_option("owner", "owner", "owner name filed in the evidence");
  if (!args.parse(argv)) return 2;

  RebuiltModel built = rebuild_original(args);
  QuantizedModel watermarked = *built.original;
  const auto scheme = WatermarkRegistry::create(args.get("scheme"));
  const SchemeRecord record =
      scheme->insert(watermarked, *built.stats, key_from(args));

  record.save(args.get("record"));
  watermarked.save_codes(args.get("codes"));
  std::printf("inserted %s watermark into %s (%s): record -> %s, codes -> %s\n",
              record.scheme().c_str(), args.get("model").c_str(),
              to_string(built.original->method()), args.get("record").c_str(),
              args.get("codes").c_str());
  if (!args.get("evidence").empty()) {
    const auto evidence = OwnershipEvidence::create(
        args.get("owner"), record, *built.original, *built.stats,
        static_cast<uint64_t>(std::time(nullptr)));
    evidence.save(args.get("evidence"));
    std::printf("evidence bundle -> %s\n", args.get("evidence").c_str());
  }
  return 0;
}

int cmd_extract(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli extract",
                 "extract a record's signature from a suspect codes snapshot");
  add_model_options(args);
  args.add_option("record", "wm.rec", "input: scheme record archive");
  args.add_option("codes", "deployed.codes", "input: suspect codes snapshot");
  if (!args.parse(argv)) return 2;

  RebuiltModel built = rebuild_original(args);
  QuantizedModel suspect = *built.original;
  suspect.load_codes(args.get("codes"));
  const SchemeRecord record = SchemeRecord::load(args.get("record"));
  const auto scheme = WatermarkRegistry::create(record.scheme());
  const ExtractionReport report =
      scheme->extract(suspect, *built.original, record);
  std::printf("scheme %s: ", record.scheme().c_str());
  print_report(report);
  return 0;
}

int cmd_verify(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli verify",
                 "verify an ownership evidence bundle against a suspect snapshot");
  add_model_options(args);
  args.add_option("evidence", "wm.evid", "input: ownership evidence bundle");
  args.add_option("codes", "deployed.codes", "input: suspect codes snapshot");
  args.add_option("min-wer", "90", "WER verdict threshold (percent)");
  if (!args.parse(argv)) return 2;

  RebuiltModel built = rebuild_original(args);
  QuantizedModel suspect = *built.original;
  suspect.load_codes(args.get("codes"));
  const OwnershipEvidence evidence = OwnershipEvidence::load(args.get("evidence"));
  std::string why;
  const bool ok = evidence.verify(suspect, *built.original, *built.stats,
                                  args.get_double("min-wer"), &why);
  std::printf("evidence by \"%s\" (scheme %s): %s (%s)\n", evidence.owner.c_str(),
              evidence.scheme().c_str(), ok ? "VERIFIED" : "REJECTED", why.c_str());
  return ok ? 0 : 1;
}

int cmd_enroll(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli enroll",
                 "stamp a per-device fleet; write the fingerprint set + snapshots");
  add_model_options(args);
  add_key_options(args);
  args.add_option("scheme", "emmark", "registered watermarking scheme");
  args.add_option("devices", "4", "fleet size (ids edge-device-0..N-1)");
  args.add_option("set", "fleet.fps", "output: fingerprint set archive");
  args.add_option("codes-dir", "fleet", "output: one codes snapshot per device");
  if (!args.parse(argv)) return 2;

  RebuiltModel built = rebuild_original(args);
  std::vector<std::string> device_ids;
  for (int64_t i = 0; i < args.get_int("devices"); ++i) {
    device_ids.push_back("edge-device-" + std::to_string(i));
  }
  std::vector<QuantizedModel> device_models;
  const FingerprintSet set =
      Fingerprinter::enroll(args.get("scheme"), *built.original, *built.stats,
                            key_from(args), device_ids, device_models);
  set.save(args.get("set"));
  std::filesystem::create_directories(args.get("codes-dir"));
  for (size_t i = 0; i < device_models.size(); ++i) {
    device_models[i].save_codes(
        path_join(args.get("codes-dir"), device_ids[i] + ".codes"));
  }
  std::printf("enrolled %zu devices with %s: set -> %s, snapshots -> %s/\n",
              device_ids.size(), set.scheme.c_str(), args.get("set").c_str(),
              args.get("codes-dir").c_str());
  return 0;
}

int cmd_trace(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli trace",
                 "trace a leaked codes snapshot to the enrolled device");
  add_model_options(args);
  args.add_option("set", "fleet.fps", "input: fingerprint set archive");
  args.add_option("codes", "", "input: leaked codes snapshot");
  args.add_option("min-wer", "90", "WER verdict threshold (percent)");
  if (!args.parse(argv)) return 2;

  RebuiltModel built = rebuild_original(args);
  QuantizedModel suspect = *built.original;
  suspect.load_codes(args.get("codes"));
  const FingerprintSet set = FingerprintSet::load(args.get("set"));
  const TraceResult verdict = Fingerprinter::trace(
      suspect, *built.original, set, args.get_double("min-wer"));
  std::printf("trace verdict: %s (WER %.1f%%, runner-up %.1f%%, chance "
              "probability 1e%.0f)\n",
              verdict.device_id.empty() ? "<no match>" : verdict.device_id.c_str(),
              verdict.wer_pct, verdict.runner_up_wer_pct, verdict.strength_log10);
  return verdict.device_id.empty() ? 1 : 0;
}

int cmd_daemon(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli daemon",
                 "serving loop: warm ModelStore + async engine over "
                 "newline-delimited commands, one JSON result per line");
  args.add_option("script", "", "read commands from this file instead of stdin");
  add_router_options(args);
  if (!args.parse(argv)) return 2;

  const DaemonConfig config = router_config_from(args);

  if (!args.get("script").empty()) {
    std::ifstream script(args.get("script"));
    if (!script) {
      std::fprintf(stderr, "error: cannot open script %s\n",
                   args.get("script").c_str());
      return 2;
    }
    return run_daemon(script, std::cout, config);
  }
  return run_daemon(std::cin, std::cout, config);
}

// --- serve ------------------------------------------------------------------

SocketServer* g_serve_instance = nullptr;
Supervisor* g_supervisor_instance = nullptr;

extern "C" void serve_signal_handler(int) {
  // Async-signal-safe: request_stop() flips an atomic and writes the
  // loop's eventfd, which wakes it to shut down gracefully.
  if (g_serve_instance != nullptr) g_serve_instance->request_stop();
  if (g_supervisor_instance != nullptr) g_supervisor_instance->request_stop();
}

/// The serving loop `serve` and `shard-worker` share: one RequestRouter
/// behind one SocketServer until SIGTERM (or SIGINT, unless ignored) stops
/// it gracefully. `announce` prints the banner once the socket is bound.
int serve_router(const RouterConfig& router_config, const ServerConfig& server_config,
                 bool ignore_sigint,
                 const std::function<void(const RequestRouter&, const SocketServer&)>&
                     announce) {
  RequestRouter router(router_config);
  SocketServer server(router, server_config);
  g_serve_instance = &server;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, ignore_sigint ? SIG_IGN : serve_signal_handler);

  announce(router, server);
  const int rc = server.run();
  g_serve_instance = nullptr;
  return rc;
}

int cmd_shard_worker(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli shard-worker",
                 "internal: one process-shard worker (spawned by "
                 "`serve --process-shards`; docs/PROTOCOL.md §8)");
  args.add_option("socket", "", "Unix-domain socket path to listen on");
  args.add_option("shard", "0", "this worker's shard index (labels/logs)");
  args.add_option("max-inflight", "64",
                  "unflushed requests per connection before reads pause");
  add_router_options(args);
  if (!args.parse(argv)) return 2;
  if (args.get("socket").empty()) {
    std::fprintf(stderr, "error: shard-worker requires --socket\n");
    return 2;
  }
  const size_t shard = args.get_uint("shard", std::numeric_limits<size_t>::max());

  // Fault injection for the fleet tests: EMMARK_TEST_CRASH_ON=startup exits
  // before the socket exists (a crash loop); any other value _exits -- no
  // drain, no flush, like a SIGKILL -- the moment a request line
  // containing it arrives.
  const std::string crash_on = env_or("EMMARK_TEST_CRASH_ON", "");
  if (crash_on == "startup") {
    std::fprintf(stderr, "[shard-worker %zu] EMMARK_TEST_CRASH_ON=startup\n", shard);
    return 42;
  }
  ServerConfig config;
  config.unix_path = args.get("socket");
  config.max_inflight_per_conn = args.get_uint("max-inflight");
  if (!crash_on.empty()) {
    config.line_tap = [crash_on](const std::string& line) {
      if (line.find(crash_on) != std::string::npos) ::_exit(42);
    };
  }

  // The supervisor owns SIGINT (a ^C reaches the whole process group): a
  // worker ignores it and waits for the supervisor's SIGTERM, so shutdown
  // is sequenced from one place.
  const int rc = serve_router(router_config_from(args), config, /*ignore_sigint=*/true,
                              [&](const RequestRouter&, const SocketServer&) {
                                std::fprintf(stderr,
                                             "[shard-worker %zu] pid %d listening on %s\n",
                                             shard, static_cast<int>(::getpid()),
                                             config.unix_path.c_str());
                              });
  std::fprintf(stderr, "[shard-worker %zu] clean shutdown\n", shard);
  return rc;
}

int cmd_serve_process_shards(const ArgParser& args) {
  SupervisorConfig config;
  config.port = static_cast<uint16_t>(args.get_uint("port", UINT16_MAX));
  config.bind_addr = args.get("bind");
  config.max_inflight_per_conn = args.get_uint("max-inflight");
  config.worker_cmd = args.get("worker-cmd");
  config.socket_dir = args.get("socket-dir");
  config.respawn_backoff_ms = static_cast<int>(args.get_uint("respawn-backoff", INT_MAX));
  config.respawn_backoff_max_ms =
      static_cast<int>(args.get_uint("respawn-backoff-max", INT_MAX));
  config.router = router_config_from(args);

  Supervisor supervisor(std::move(config));
  g_supervisor_instance = &supervisor;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  std::fprintf(stderr,
               "emmark_cli serve: supervisor on %s:%u, %zu worker "
               "process%s; HTTP on the same port (GET /metrics, POST "
               "/v1/<verb>); SIGINT/SIGTERM for graceful shutdown\n",
               args.get("bind").c_str(),
               static_cast<unsigned>(supervisor.port()), supervisor.workers(),
               supervisor.workers() == 1 ? "" : "es");
  const int rc = supervisor.run();
  std::fprintf(stderr, "emmark_cli serve: shut down cleanly\n");
  g_supervisor_instance = nullptr;
  return rc;
}

int cmd_serve(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli serve",
                 "TCP socket server: the daemon protocol over loopback "
                 "sockets, sharded backends, N concurrent connections");
  args.add_option("port", "4780", "port to listen on (0 = ephemeral)");
  args.add_option("bind", "127.0.0.1", "bind address");
  args.add_option("max-inflight", "64",
                  "unflushed requests per connection before reads pause");
  args.add_flag("process-shards",
                "one worker process per shard behind a supervising proxy "
                "(respawn on crash) plus HTTP/1.1 on the same port");
  args.add_option("worker-cmd", "",
                  "worker binary for --process-shards (default: this binary)");
  args.add_option("socket-dir", "",
                  "directory for worker Unix sockets (default: temp dir)");
  args.add_option("respawn-backoff", "200",
                  "initial worker respawn delay in ms (doubles per "
                  "consecutive failure)");
  args.add_option("respawn-backoff-max", "5000",
                  "respawn delay cap in ms");
  add_router_options(args);
  if (!args.parse(argv)) return 2;

  if (args.get_flag("process-shards")) return cmd_serve_process_shards(args);

  ServerConfig config;
  config.port = static_cast<uint16_t>(args.get_uint("port", UINT16_MAX));
  config.bind_addr = args.get("bind");
  config.max_inflight_per_conn = args.get_uint("max-inflight");
  const int rc = serve_router(
      router_config_from(args), config, /*ignore_sigint=*/false,
      [&](const RequestRouter& router, const SocketServer& server) {
        std::fprintf(stderr,
                     "emmark_cli serve: listening on %s:%u (%zu shard%s); "
                     "SIGINT/SIGTERM for graceful shutdown\n",
                     args.get("bind").c_str(), static_cast<unsigned>(server.port()),
                     router.config().shards, router.config().shards == 1 ? "" : "s");
      });
  std::fprintf(stderr, "emmark_cli serve: shut down cleanly\n");
  return rc;
}

// --- selftest ---------------------------------------------------------------

struct SelftestFixture {
  std::unique_ptr<TransformerLM> fp_model;
  ActivationStats stats;
  std::unique_ptr<QuantizedModel> quantized;
};

/// Tiny untrained model: the watermark mechanics under test do not need
/// trained weights, and skipping training keeps the ctest run fast.
SelftestFixture make_selftest_fixture(uint64_t seed) {
  SelftestFixture fx;
  ModelConfig config;
  config.family = ArchFamily::kOptStyle;
  config.vocab_size = synth_vocab().size();
  config.d_model = 32;
  config.n_layers = 2;
  config.n_heads = 2;
  config.ffn_hidden = 64;
  config.max_seq = 24;
  config.init_seed = seed;
  fx.fp_model = std::make_unique<TransformerLM>(config);

  CorpusConfig cc;
  cc.train_tokens = 6000;
  cc.seed = seed;
  const Corpus corpus = make_corpus(synth_vocab(), cc);

  CalibConfig calib;
  calib.batches = 4;
  calib.seq_len = 16;
  calib.seed = seed + 1;
  fx.stats = collect_activation_stats(*fx.fp_model, corpus.train, calib);
  fx.quantized = std::make_unique<QuantizedModel>(*fx.fp_model, fx.stats,
                                                  QuantMethod::kAwqInt4);
  return fx;
}

int cmd_selftest(const std::vector<std::string>& argv) {
  ArgParser args("emmark_cli selftest",
                 "insert->disk->extract/verify round-trip over every scheme");
  args.add_option("dir", "", "scratch directory (default: under the temp dir)");
  if (!args.parse(argv)) return 2;

  // Recursive cleanup is reserved for the default scratch location; a
  // user-supplied --dir may be a pre-existing directory holding unrelated
  // files, so there only the artifacts written below are removed.
  const bool default_dir = args.get("dir").empty();
  const std::string dir =
      default_dir
          ? (std::filesystem::temp_directory_path() / "emmark_cli_selftest").string()
          : args.get("dir");
  std::filesystem::create_directories(dir);
  std::vector<std::string> written;
  auto artifact = [&](const std::string& name) {
    written.push_back(path_join(dir, name));
    return written.back();
  };

  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  SelftestFixture fx = make_selftest_fixture(/*seed=*/21);
  WatermarkKey key;
  key.bits_per_layer = 8;
  key.candidate_ratio = 10;

  for (const std::string& name : WatermarkRegistry::instance().names()) {
    std::printf("scheme %s:\n", name.c_str());
    const auto scheme = WatermarkRegistry::create(name);
    QuantizedModel watermarked = *fx.quantized;
    const SchemeRecord record = scheme->insert(watermarked, fx.stats, key);

    const std::string record_path = artifact(name + ".rec");
    const std::string codes_path = artifact(name + ".codes");
    const std::string evidence_path = artifact(name + ".evid");
    record.save(record_path);
    watermarked.save_codes(codes_path);
    OwnershipEvidence::create("selftest", record, *fx.quantized, fx.stats, 1770000000)
        .save(evidence_path);

    // Round-trip: everything reloads from disk before extraction.
    QuantizedModel suspect = *fx.quantized;
    suspect.load_codes(codes_path);
    const SchemeRecord loaded = SchemeRecord::load(record_path);
    check(loaded.scheme() == name, "record scheme tag survives disk");
    const ExtractionReport report =
        scheme->extract(suspect, *fx.quantized, loaded);
    // SpecMark's signature is destroyed by re-rounding (its Table 1 row);
    // its round-trip must still parse and report, just at 0% WER.
    const double expected_wer = name == "specmark" ? 0.0 : 100.0;
    check(report.wer_pct() == expected_wer,
          "extraction through on-disk record/codes (WER " +
              std::to_string(report.wer_pct()) + "%)");

    const OwnershipEvidence evidence = OwnershipEvidence::load(evidence_path);
    std::string why;
    const bool verified =
        evidence.verify(suspect, *fx.quantized, fx.stats, 95.0, &why);
    if (name == "specmark") {
      check(!verified && why.find("extract") != std::string::npos,
            "evidence verdict matches the scheme's 0% WER (" + why + ")");
    } else {
      check(verified, "evidence verifies from disk (" + why + ")");
    }
  }

  std::printf("rejection paths:\n");
  {
    const std::string bogus_path = artifact("bogus.rec");
    BinaryWriter bogus(bogus_path, "EMMSREC", 1);
    bogus.write_string("no-such-scheme");
    bogus.write_u32(1);
    bogus.close();
    bool rejected = false;
    try {
      (void)SchemeRecord::load(bogus_path);
    } catch (const SerializeError&) {
      rejected = true;
    }
    check(rejected, "unknown scheme name is rejected");
  }
  {
    const std::string stale_path = artifact("stale.rec");
    BinaryWriter stale(stale_path, "EMMSREC", 1);
    stale.write_string("emmark");
    stale.write_u32(999);
    stale.close();
    bool rejected = false;
    try {
      (void)SchemeRecord::load(stale_path);
    } catch (const SerializeError&) {
      rejected = true;
    }
    check(rejected, "future payload version is rejected");
  }

  std::printf("engine determinism:\n");
  {
    constexpr size_t kBatch = 6;
    std::vector<uint64_t> reference_digests;
    for (size_t pool_size : {size_t{1}, size_t{4}}) {
      ThreadPool pool(pool_size);
      ThreadPool::ScopedOverride over(pool);
      std::vector<QuantizedModel> models(kBatch, *fx.quantized);
      WatermarkEngine engine({/*base_seed=*/7, /*trace_min_wer_pct=*/90.0});
      const std::vector<std::string> schemes =
          WatermarkRegistry::instance().names();
      std::vector<std::future<WatermarkEngine::InsertResult>> futures;
      for (size_t i = 0; i < kBatch; ++i) {
        WatermarkEngine::InsertRequest request;
        request.id = "req-" + std::to_string(i);
        request.scheme = schemes[i % schemes.size()];
        request.model_factory = [&models, i] { return &models[i]; };
        request.stats = &fx.stats;
        request.key = key;
        request.seed_from_id = true;
        futures.push_back(engine.submit(std::move(request)));
      }
      std::vector<uint64_t> digests;
      for (size_t i = 0; i < kBatch; ++i) {
        digests.push_back(futures[i].get().ok ? digest_model_codes(models[i]) : 0);
      }
      if (reference_digests.empty()) {
        reference_digests = digests;
      } else {
        check(digests == reference_digests,
              "engine insert codes identical at pool sizes 1 and 4");
      }
    }
  }

  std::printf("fleet trace round-trip:\n");
  {
    std::vector<QuantizedModel> device_models;
    const FingerprintSet set = Fingerprinter::enroll(
        "emmark", *fx.quantized, fx.stats, key,
        {"dev-a", "dev-b", "dev-c"}, device_models);
    const std::string set_path = artifact("fleet.fps");
    const std::string leak_path = artifact("leak.codes");
    set.save(set_path);
    device_models[1].save_codes(leak_path);

    const FingerprintSet loaded = FingerprintSet::load(set_path);
    QuantizedModel leak = *fx.quantized;
    leak.load_codes(leak_path);
    const TraceResult verdict =
        Fingerprinter::trace(leak, *fx.quantized, loaded, 90.0);
    check(verdict.device_id == "dev-b",
          "leaked snapshot traces to dev-b through on-disk set");
  }

  if (default_dir) {
    std::filesystem::remove_all(dir);
  } else {
    for (const std::string& path : written) std::filesystem::remove(path);
  }
  std::printf("%s\n", failures == 0 ? "SELFTEST PASSED" : "SELFTEST FAILED");
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  ArgParser cli("emmark_cli",
                "EmMark watermarking front-door (schemes via the registry)");
  cli.add_command("insert", "watermark a zoo model; write record/codes/evidence");
  cli.add_command("extract", "extract a record's signature from a snapshot");
  cli.add_command("verify", "verify an evidence bundle against a snapshot");
  cli.add_command("enroll", "stamp a per-device fleet; write the fingerprint set");
  cli.add_command("trace", "trace a leaked snapshot to its device");
  cli.add_command("list-schemes", "print registered watermarking schemes");
  cli.add_command("daemon", "serving loop with a warm model store (JSON results)");
  cli.add_command("serve", "TCP socket server over the daemon protocol (sharded)");
  cli.add_command("shard-worker",
                  "internal: one process-shard worker (spawned by serve)");
  cli.add_command("selftest", "end-to-end disk round-trip over every scheme");
  if (!cli.parse(argc, argv)) return 2;

  try {
    if (cli.command() == "insert") return cmd_insert(cli.command_args());
    if (cli.command() == "extract") return cmd_extract(cli.command_args());
    if (cli.command() == "verify") return cmd_verify(cli.command_args());
    if (cli.command() == "enroll") return cmd_enroll(cli.command_args());
    if (cli.command() == "trace") return cmd_trace(cli.command_args());
    if (cli.command() == "list-schemes") return cmd_list_schemes();
    if (cli.command() == "daemon") return cmd_daemon(cli.command_args());
    if (cli.command() == "serve") return cmd_serve(cli.command_args());
    if (cli.command() == "shard-worker") return cmd_shard_worker(cli.command_args());
    if (cli.command() == "selftest") return cmd_selftest(cli.command_args());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 2;  // unreachable: parse() validated the command
}

}  // namespace
}  // namespace emmark

int main(int argc, char** argv) { return emmark::run(argc, argv); }
