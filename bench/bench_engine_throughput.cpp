// Engine serving throughput: asynchronous submit() at several worker
// counts, plus warm-vs-cold ModelStore latency.
//
// The request body is a full EmMark insert on a small in-memory model (no
// zoo training in the hot loop), so the numbers isolate the service layer:
// queueing, fan-out, and future/callback plumbing. Results byte-identical
// to direct scheme calls with the same derived keys are asserted on every
// run -- a speedup that changed a placement would be worthless.
//
// A third phase times the socket serving path end to end: an in-process
// SocketServer (2 shards) on an ephemeral loopback port, driven by the
// LineClient helper with a pipelined insert workload -- so the measured
// cost includes the poll loop, line framing, and per-connection ordering,
// not just the engine.
//
// Prints a table plus one machine-readable JSON line (like
// bench_parallel_wm; the repo's perf trajectory is tracked from these).
//
// Usage: bench_engine_throughput [--requests N] [--repeats N] [--smoke]
//   --smoke: small fixed workload for CI (the Release lane runs this so
//   the daemon AND socket serving paths cannot silently rot).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/router.h"
#include "obs/metrics.h"
#include "data/corpus.h"
#include "eval/report.h"
#include "model_zoo/store.h"
#include "net/client.h"
#include "net/server.h"
#include "quant/calib.h"
#include "quant/qmodel.h"
#include "util/argparse.h"
#include "util/threadpool.h"
#include "util/timer.h"
#include "wm/engine.h"
#include "wm/evidence.h"

namespace {

using namespace emmark;

struct Fixture {
  std::unique_ptr<TransformerLM> fp_model;
  ActivationStats stats;
  std::unique_ptr<QuantizedModel> quantized;
};

/// Tiny untrained model: request cost is dominated by scoring/derivation,
/// which is what the engine schedules.
Fixture make_fixture(uint64_t seed) {
  Fixture fx;
  ModelConfig config;
  config.family = ArchFamily::kOptStyle;
  config.vocab_size = synth_vocab().size();
  config.d_model = 48;
  config.n_layers = 3;
  config.n_heads = 2;
  config.ffn_hidden = 192;
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
  fx.stats = collect_activation_stats(*fx.fp_model, corpus.train, calib);
  fx.quantized = std::make_unique<QuantizedModel>(*fx.fp_model, fx.stats,
                                                  QuantMethod::kAwqInt4);
  return fx;
}

std::vector<WatermarkEngine::InsertRequest> make_requests(
    Fixture& fx, std::vector<QuantizedModel>& models) {
  std::vector<WatermarkEngine::InsertRequest> requests;
  for (size_t i = 0; i < models.size(); ++i) {
    WatermarkEngine::InsertRequest request;
    request.id = "req-" + std::to_string(i);
    request.model_factory = [&models, i] { return &models[i]; };
    request.stats = &fx.stats;
    request.key.bits_per_layer = 8;
    request.key.candidate_ratio = 10;
    request.seed_from_id = true;
    requests.push_back(request);
  }
  return requests;
}

double best_of(int repeats, const std::function<double()>& run_ms) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) best = std::min(best, run_ms());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_engine_throughput",
                 "async WatermarkEngine requests/sec + ModelStore "
                 "warm/cold latency");
  args.add_option("requests", "24", "requests per timed workload");
  args.add_option("repeats", "3", "timing repeats per cell (best-of)");
  args.add_option("model", "opt-125m-sim", "zoo model for the store phase");
  args.add_flag("smoke", "small fixed workload for CI");
  if (!args.parse(argc, argv)) return 2;

  const bool smoke = args.get_flag("smoke");
  const size_t requests_n =
      smoke ? 8 : static_cast<size_t>(std::max<int64_t>(1, args.get_int("requests")));
  const int repeats =
      smoke ? 1 : std::max(1, static_cast<int>(args.get_int("repeats")));

  std::printf("\n================================================================\n");
  std::printf("WatermarkEngine throughput -- async submit\n");
  std::printf("================================================================\n");

  Fixture fx = make_fixture(/*seed=*/33);
  const EngineConfig config{/*base_seed=*/7, /*trace_min_wer_pct=*/90.0};

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> worker_counts = {1, 2};
  if (std::find(worker_counts.begin(), worker_counts.end(),
                static_cast<size_t>(hw)) == worker_counts.end()) {
    worker_counts.push_back(hw);
  }

  // Reference digests from direct scheme calls with the keys the engine
  // derives for each request id; every cell must reproduce them exactly.
  std::vector<uint64_t> reference;
  {
    std::vector<QuantizedModel> models(requests_n, *fx.quantized);
    for (const auto& request : make_requests(fx, models)) {
      WatermarkKey key = request.key;
      key.seed = WatermarkEngine::request_seed(config.base_seed, request.id, 0);
      key.signature_seed = WatermarkEngine::request_seed(config.base_seed, request.id, 1);
      QuantizedModel* model = request.model_factory();
      WatermarkRegistry::create(request.scheme)->insert(*model, fx.stats, key);
      reference.push_back(digest_model_codes(*model));
    }
  }

  struct Row {
    size_t workers;
    double ms;
    double rps;
    /// Per-request latency percentiles (submit-to-done through the
    /// obs::Histogram, pooled over every repeat).
    double p50_ms;
    double p95_ms;
    double p99_ms;
  };
  std::vector<Row> rows;

  for (size_t workers : worker_counts) {
    ThreadPool pool(workers);
    ThreadPool::ScopedOverride over(pool);

    // Submit everything, then drain. Each request records its
    // submit-to-completion latency into an obs::Histogram (stamped before
    // submit, recorded in the done callback on the worker), so the table
    // can report tail percentiles next to throughput.
    std::vector<uint64_t> digests;
    obs::Histogram latency;
    const double ms = best_of(repeats, [&] {
      std::vector<QuantizedModel> models(requests_n, *fx.quantized);
      WatermarkEngine engine(config);
      auto requests = make_requests(fx, models);
      Timer t;
      std::vector<std::future<WatermarkEngine::InsertResult>> futures;
      futures.reserve(requests.size());
      for (auto& request : requests) {
        const auto submitted_at = std::chrono::steady_clock::now();
        futures.push_back(engine.submit(
            request, [&latency, submitted_at](
                         const WatermarkEngine::InsertResult&) {
              latency.record_duration(std::chrono::steady_clock::now() -
                                      submitted_at);
            }));
      }
      engine.drain();
      const double elapsed = t.milliseconds();
      digests.clear();
      for (size_t i = 0; i < models.size(); ++i) {
        digests.push_back(futures[i].get().ok ? digest_model_codes(models[i]) : 0);
      }
      return elapsed;
    });
    if (digests != reference) {
      std::fprintf(stderr, "FATAL: async results diverged at %zu workers\n",
                   workers);
      return 1;
    }
    const obs::Histogram::Snapshot snap = latency.snapshot();
    rows.push_back({workers, ms, 1e3 * requests_n / ms, 1e3 * snap.quantile(0.50),
                    1e3 * snap.quantile(0.95), 1e3 * snap.quantile(0.99)});
  }

  TablePrinter table({"mode", "workers", "ms / workload", "requests/sec",
                      "p50 ms", "p95 ms", "p99 ms"});
  for (const Row& row : rows) {
    table.add_row({"async", std::to_string(row.workers), TablePrinter::fmt(row.ms, 2),
                   TablePrinter::fmt(row.rps, 1), TablePrinter::fmt(row.p50_ms, 2),
                   TablePrinter::fmt(row.p95_ms, 2), TablePrinter::fmt(row.p99_ms, 2)});
  }
  table.print();
  std::printf("(%zu insert requests per workload; engine == direct scheme calls "
              "byte-for-byte, asserted)\n",
              requests_n);

  // --- ModelStore warm vs cold ----------------------------------------------
  std::printf("\n-- ModelStore: cold build vs warm handle --\n");
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_bench_store_cache").string();
  std::filesystem::remove_all(cache);  // a true cold start (includes training)
  ModelStoreConfig store_config;
  store_config.cache_dir = cache;
  ModelStore store(store_config);
  ModelSpec spec;
  spec.model = args.get("model");
  spec.train_steps_cap = smoke ? 25 : 60;

  Timer cold_timer;
  (void)store.get(spec);
  const double cold_ms = cold_timer.milliseconds();
  Timer warm_timer;
  (void)store.get(spec);
  const double warm_ms = warm_timer.milliseconds();
  Timer checkout_timer;
  (void)store.checkout(spec);
  const double checkout_ms = checkout_timer.milliseconds();
  std::filesystem::remove_all(cache);

  TablePrinter store_table({"store op", "ms"});
  store_table.add_row({"cold get (train+quantize)", TablePrinter::fmt(cold_ms, 1)});
  store_table.add_row({"warm get (cache hit)", TablePrinter::fmt(warm_ms, 3)});
  store_table.add_row({"checkout (hit + deep copy)", TablePrinter::fmt(checkout_ms, 3)});
  store_table.print();
  const ModelStore::Stats stats = store.stats();
  std::printf("store counters: hits=%llu misses=%llu builds=%llu\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.builds));

  // --- socket serving path --------------------------------------------------
  std::printf("\n-- socket path: emmark_cli serve loopback round-trip --\n");
  const size_t serve_requests = smoke ? 6 : requests_n;
  double serve_warm_ms = 0;
  double serve_ms = 0;
  {
    const std::string serve_cache =
        (std::filesystem::temp_directory_path() / "emmark_bench_serve_cache").string();
    std::filesystem::remove_all(serve_cache);
    RouterConfig rc;
    rc.cache_dir = serve_cache;
    rc.train_steps_cap = 25;
    rc.shards = 2;
    RequestRouter router(rc);
    SocketServer server(router, {});
    std::thread loop([&] { server.run(); });

    // Any exit path must stop and join the loop thread first: unwinding
    // past a joinable std::thread calls std::terminate, which would turn
    // a reportable failure into a bare abort in CI.
    bool serve_failed = false;
    try {
      LineClient client("127.0.0.1", server.port());
      {
        // Warm request: pays the one model build of the session.
        Timer t;
        (void)client.roundtrip({"insert id=warm model=opt-125m-sim quant=int4"}, 1);
        serve_warm_ms = t.milliseconds();
      }
      std::vector<std::string> script;
      for (size_t i = 0; i < serve_requests; ++i) {
        script.push_back("insert id=req-" + std::to_string(i) +
                         " model=opt-125m-sim quant=int4 seed-from-id=1");
      }
      Timer t;
      const auto responses = client.roundtrip(script, script.size());
      serve_ms = t.milliseconds();
      for (const std::string& line : responses) {
        if (line.find("\"ok\":true") == std::string::npos) {
          std::fprintf(stderr, "FATAL: socket request failed: %s\n", line.c_str());
          serve_failed = true;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FATAL: socket phase: %s\n", e.what());
      serve_failed = true;
    }
    server.request_stop();
    loop.join();
    std::filesystem::remove_all(serve_cache);
    if (serve_failed) return 1;
  }
  TablePrinter serve_table({"socket op", "ms"});
  serve_table.add_row({"first request (cold build)", TablePrinter::fmt(serve_warm_ms, 1)});
  serve_table.add_row({std::to_string(serve_requests) + " pipelined inserts (warm)",
                       TablePrinter::fmt(serve_ms, 2)});
  serve_table.print();
  std::printf("socket warm throughput: %.1f requests/sec\n",
              1e3 * serve_requests / serve_ms);

  // Machine-readable summary, one JSON object on its own line.
  std::printf("\nJSON: {\"bench\":\"engine_throughput\",\"requests\":%zu,"
              "\"repeats\":%d,\"smoke\":%s,\"hardware_threads\":%u,\"rows\":[",
              requests_n, repeats, smoke ? "true" : "false", hw);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s{\"mode\":\"async\",\"workers\":%zu,\"ms\":%.3f,\"rps\":%.1f,"
                "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f}",
                i ? "," : "", rows[i].workers, rows[i].ms, rows[i].rps, rows[i].p50_ms,
                rows[i].p95_ms, rows[i].p99_ms);
  }
  std::printf("],\"store\":{\"model\":\"%s\",\"cold_ms\":%.1f,\"warm_ms\":%.3f,"
              "\"checkout_ms\":%.3f},\"serve\":{\"requests\":%zu,"
              "\"cold_ms\":%.1f,\"ms\":%.2f,\"rps\":%.1f}}\n",
              spec.model.c_str(), cold_ms, warm_ms, checkout_ms, serve_requests,
              serve_warm_ms, serve_ms, 1e3 * serve_requests / serve_ms);
  return 0;
}
