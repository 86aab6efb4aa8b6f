// WatermarkEngine service layer: submit-all-then-wait workloads, per-slot
// error isolation, deterministic per-request seeding, pool-size
// invariance, and agreement with direct WatermarkRegistry scheme calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "model_zoo/zoo.h"
#include "util/threadpool.h"
#include "wm/engine.h"
#include "wm/evidence.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;

TEST(EngineSeed, DeterministicAndDistinct) {
  const uint64_t a = WatermarkEngine::request_seed(7, "request-1");
  EXPECT_EQ(a, WatermarkEngine::request_seed(7, "request-1"));
  EXPECT_NE(a, WatermarkEngine::request_seed(7, "request-2"));
  EXPECT_NE(a, WatermarkEngine::request_seed(8, "request-1"));
  // Lanes give independent streams for placement vs. signature seeds.
  EXPECT_NE(a, WatermarkEngine::request_seed(7, "request-1", /*lane=*/1));
}

/// Submits every request, then waits on the futures in order.
template <typename Request>
std::vector<typename Request::Result> submit_all(WatermarkEngine& engine,
                                                 const std::vector<Request>& requests) {
  std::vector<std::future<typename Request::Result>> futures;
  for (const Request& request : requests) futures.push_back(engine.submit(request));
  std::vector<typename Request::Result> results;
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

struct EngineFixture {
  EngineFixture() : f() {
    key.bits_per_layer = 8;
    key.candidate_ratio = 10;
  }

  /// Inserts into models[i] in place (the factory hands out the slot).
  std::vector<WatermarkEngine::InsertRequest> make_requests(
      std::vector<QuantizedModel>& models) const {
    const std::vector<std::string> schemes = {"emmark", "randomwm", "specmark"};
    std::vector<WatermarkEngine::InsertRequest> requests;
    for (size_t i = 0; i < models.size(); ++i) {
      WatermarkEngine::InsertRequest request;
      request.id = "model-" + std::to_string(i);
      request.scheme = schemes[i % schemes.size()];
      request.model_factory = [&models, i] { return &models[i]; };
      request.stats = &f.stats;
      request.key = key;
      request.seed_from_id = true;
      requests.push_back(request);
    }
    return requests;
  }

  /// The reference an insert must match: the request's scheme called
  /// directly on a fresh copy, with the seeds the engine derives from
  /// (base_seed, id).
  uint64_t direct_insert_digest(const WatermarkEngine::InsertRequest& request,
                                uint64_t base_seed) const {
    QuantizedModel model = *f.quantized;
    WatermarkKey direct = request.key;
    direct.seed = WatermarkEngine::request_seed(base_seed, request.id, 0);
    direct.signature_seed = WatermarkEngine::request_seed(base_seed, request.id, 1);
    WatermarkRegistry::create(request.scheme)->insert(model, f.stats, direct);
    return digest_model_codes(model);
  }

  WmFixture f;
  WatermarkKey key;
};

TEST(Engine, InsertIsDeterministicAcrossPoolSizesAndMatchesDirectCalls) {
  EngineFixture fx;
  constexpr size_t kBatch = 7;
  constexpr uint64_t kBaseSeed = 11;

  std::vector<uint64_t> direct;
  std::vector<uint64_t> reference_seeds;
  for (size_t pool_size : {size_t{1}, size_t{3}, size_t{8}}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    WatermarkEngine engine({kBaseSeed, /*trace_min_wer_pct=*/90.0});
    std::vector<QuantizedModel> models(kBatch, *fx.f.quantized);
    const auto requests = fx.make_requests(models);
    const auto results = submit_all(engine, requests);
    if (direct.empty()) {
      for (const auto& request : requests) {
        direct.push_back(fx.direct_insert_digest(request, kBaseSeed));
      }
    }

    ASSERT_EQ(results.size(), kBatch);
    std::vector<uint64_t> digests;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].id, "model-" + std::to_string(i));
      digests.push_back(digest_model_codes(models[i]));
      seeds.push_back(results[i].key.seed);
    }
    EXPECT_EQ(digests, direct) << "pool size " << pool_size;
    if (reference_seeds.empty()) {
      reference_seeds = seeds;
    } else {
      EXPECT_EQ(seeds, reference_seeds) << "pool size " << pool_size;
    }
  }
}

TEST(Engine, SeedFromIdSeparatesIdenticalRequests) {
  // Two models watermarked from the same key template but different request
  // ids must land on different placements (no cross-device collisions).
  EngineFixture fx;
  std::vector<QuantizedModel> models(2, *fx.f.quantized);
  WatermarkEngine engine({/*base_seed=*/5, /*trace_min_wer_pct=*/90.0});
  auto requests = fx.make_requests(models);
  requests[1].scheme = requests[0].scheme;  // same scheme, different id
  const auto results = submit_all(engine, requests);
  ASSERT_TRUE(results[0].ok && results[1].ok);
  EXPECT_NE(results[0].key.seed, results[1].key.seed);
  EXPECT_NE(digest_model_codes(models[0]), digest_model_codes(models[1]));
}

TEST(Engine, BadRequestFailsItsSlotOnly) {
  EngineFixture fx;
  std::vector<QuantizedModel> models(3, *fx.f.quantized);
  auto requests = fx.make_requests(models);
  requests[1].scheme = "no-such-scheme";
  WatermarkEngine engine;
  const auto results = submit_all(engine, requests);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("no-such-scheme"), std::string::npos);
  EXPECT_TRUE(results[2].ok) << results[2].error;

  // A factory that yields no model reports, does not crash.
  requests[1].scheme = "emmark";
  requests[1].model_factory = [] { return static_cast<QuantizedModel*>(nullptr); };
  const auto retry = submit_all(engine, requests);
  EXPECT_FALSE(retry[1].ok);
  EXPECT_NE(retry[1].error.find("model"), std::string::npos);
}

TEST(Engine, ExtractMatchesDirectExtractionAtPoolSizes1AndN) {
  EngineFixture fx;
  constexpr size_t kBatch = 5;
  std::vector<QuantizedModel> models(kBatch, *fx.f.quantized);
  std::vector<WatermarkEngine::InsertResult> inserted;
  {
    WatermarkEngine engine;
    inserted = submit_all(engine, fx.make_requests(models));
  }

  std::vector<WatermarkEngine::ExtractRequest> extracts;
  for (size_t i = 0; i < kBatch; ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = inserted[i].id;
    request.sources_factory = [&, i] {
      return WatermarkEngine::ExtractRequest::Sources{&models[i], fx.f.quantized.get(),
                                                      &inserted[i].record};
    };
    extracts.push_back(request);
  }

  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t pool_size : {size_t{1}, size_t{6}}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    WatermarkEngine engine;
    const auto results = submit_all(engine, extracts);
    std::vector<std::pair<int64_t, int64_t>> reports;
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      reports.emplace_back(results[i].report.matched_bits,
                           results[i].report.total_bits);
      // Direct scheme extraction agrees with the engine's slot.
      const auto direct =
          WatermarkRegistry::create(inserted[i].record.scheme())
              ->extract(models[i], *fx.f.quantized, inserted[i].record);
      EXPECT_EQ(direct.matched_bits, results[i].report.matched_bits);
      EXPECT_EQ(direct.total_bits, results[i].report.total_bits);
    }
    if (reference.empty()) {
      reference = reports;
    } else {
      EXPECT_EQ(reports, reference);  // bit-identical at pool sizes 1 and N
    }
  }
}

TEST(Engine, TraceIdentifiesLeakers) {
  EngineFixture fx;
  std::vector<QuantizedModel> device_models;
  const FingerprintSet set = Fingerprinter::enroll(
      "emmark", *fx.f.quantized, fx.f.stats, fx.key,
      {"dev-a", "dev-b", "dev-c"}, device_models);

  std::vector<WatermarkEngine::TraceRequest> requests;
  for (size_t i = 0; i < device_models.size(); ++i) {
    WatermarkEngine::TraceRequest request;
    request.id = "leak-" + std::to_string(i);
    request.sources_factory = [&, i] {
      return WatermarkEngine::TraceRequest::Sources{&device_models[i],
                                                    fx.f.quantized.get(), &set};
    };
    requests.push_back(request);
  }
  WatermarkEngine engine;
  const auto results = submit_all(engine, requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].trace.device_id, "dev-a");
  EXPECT_EQ(results[1].trace.device_id, "dev-b");
  EXPECT_EQ(results[2].trace.device_id, "dev-c");
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_DOUBLE_EQ(result.trace.wer_pct, 100.0);
  }
}

// --- asynchronous path -------------------------------------------------------

TEST(AsyncEngine, SubmitMatchesDirectSchemeCalls) {
  // The engine is a scheduling layer only: for the same requests, results
  // and stamped codes are byte-identical to calling the schemes directly
  // with the seeds derived from (base_seed, id), and drain() leaves every
  // future ready.
  EngineFixture fx;
  constexpr size_t kBatch = 6;
  const EngineConfig config{/*base_seed=*/21, /*trace_min_wer_pct=*/90.0};

  std::vector<QuantizedModel> models(kBatch, *fx.f.quantized);
  WatermarkEngine engine(config);
  const auto requests = fx.make_requests(models);
  std::vector<std::future<WatermarkEngine::InsertResult>> futures;
  for (const auto& request : requests) futures.push_back(engine.submit(request));
  engine.drain();

  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto slot = futures[i].get();
    ASSERT_TRUE(slot.ok) << slot.error;
    EXPECT_EQ(slot.id, requests[i].id);
    EXPECT_EQ(slot.key.seed,
              WatermarkEngine::request_seed(config.base_seed, requests[i].id, 0));
    EXPECT_EQ(slot.key.signature_seed,
              WatermarkEngine::request_seed(config.base_seed, requests[i].id, 1));
    EXPECT_EQ(digest_model_codes(models[i]),
              fx.direct_insert_digest(requests[i], config.base_seed))
        << "request " << i;
  }
}

TEST(AsyncEngine, CompletionCallbackDeliversTheResult) {
  EngineFixture fx;
  std::vector<QuantizedModel> models(1, *fx.f.quantized);
  WatermarkEngine engine;
  auto requests = fx.make_requests(models);

  std::promise<std::string> seen_id;
  auto future = engine.submit(requests[0], [&](const WatermarkEngine::InsertResult& r) {
    seen_id.set_value(r.ok ? r.id : "error:" + r.error);
  });
  EXPECT_EQ(seen_id.get_future().get(), requests[0].id);
  EXPECT_TRUE(future.get().ok);

  // A throwing callback must not lose the future or kill the worker.
  std::vector<QuantizedModel> more(1, *fx.f.quantized);
  auto retry = fx.make_requests(more);
  auto future2 = engine.submit(
      retry[0], [](const WatermarkEngine::InsertResult&) {
        throw std::runtime_error("callback boom");
      });
  EXPECT_TRUE(future2.get().ok);
  engine.drain();
}

TEST(AsyncEngine, StressInterleavedSubmittersAreIsolatedAndDeterministic) {
  // Several threads hammer one engine with interleaved insert / extract /
  // trace submissions (plus a sprinkling of malformed requests). Every
  // future must resolve, failures must stay in their own slot, and the
  // insert placements must match direct scheme calls for the same ids.
  EngineFixture fx;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 6;
  constexpr size_t kTotal = kThreads * kPerThread;

  std::vector<QuantizedModel> device_models;
  const FingerprintSet set =
      Fingerprinter::enroll("emmark", *fx.f.quantized, fx.f.stats, fx.key,
                            {"dev-a", "dev-b"}, device_models);
  QuantizedModel marked = *fx.f.quantized;
  const SchemeRecord record = EmMarkScheme().insert(marked, fx.f.stats, fx.key);

  const EngineConfig config{/*base_seed=*/17, /*trace_min_wer_pct=*/90.0};
  auto make_insert = [&](size_t slot, QuantizedModel* model) {
    WatermarkEngine::InsertRequest request;
    request.id = "ins-" + std::to_string(slot);
    request.scheme = slot % 5 == 0 ? "no-such-scheme" : "emmark";
    request.model_factory = [model] { return model; };
    request.stats = &fx.f.stats;
    request.key = fx.key;
    request.seed_from_id = true;
    return request;
  };

  WatermarkEngine engine(config);
  std::vector<QuantizedModel> async_models(kTotal, *fx.f.quantized);
  std::vector<std::shared_future<WatermarkEngine::InsertResult>> inserts(kTotal);
  std::vector<std::shared_future<WatermarkEngine::ExtractResult>> extracts(kTotal);
  std::vector<std::shared_future<WatermarkEngine::TraceBatchResult>> traces(kTotal);

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t slot = t * kPerThread + i;
        if (slot % 3 == 0) {
          inserts[slot] =
              engine.submit(make_insert(slot, &async_models[slot])).share();
        } else if (slot % 3 == 1) {
          WatermarkEngine::ExtractRequest request;
          request.id = "ext-" + std::to_string(slot);
          request.sources_factory = [&] {
            return WatermarkEngine::ExtractRequest::Sources{
                &marked, fx.f.quantized.get(), &record};
          };
          extracts[slot] = engine.submit(request).share();
        } else {
          WatermarkEngine::TraceRequest request;
          request.id = "trc-" + std::to_string(slot);
          request.sources_factory = [&, slot] {
            return WatermarkEngine::TraceRequest::Sources{
                &device_models[slot % 2], fx.f.quantized.get(), &set};
          };
          traces[slot] = engine.submit(request).share();
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  engine.drain();
  EXPECT_EQ(engine.pending(), 0u);

  for (size_t slot = 0; slot < kTotal; ++slot) {
    if (slot % 3 == 0) {
      ASSERT_EQ(inserts[slot].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const auto result = inserts[slot].get();
      EXPECT_EQ(result.id, "ins-" + std::to_string(slot));
      if (slot % 5 == 0) {
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("no-such-scheme"), std::string::npos);
        EXPECT_EQ(digest_model_codes(async_models[slot]),
                  digest_model_codes(*fx.f.quantized))
            << "slot " << slot;
      } else {
        ASSERT_TRUE(result.ok) << result.error;
        const auto request = make_insert(slot, nullptr);
        EXPECT_EQ(result.key.seed,
                  WatermarkEngine::request_seed(config.base_seed, request.id, 0));
        EXPECT_EQ(digest_model_codes(async_models[slot]),
                  fx.direct_insert_digest(request, config.base_seed))
            << "slot " << slot;
      }
    } else if (slot % 3 == 1) {
      const auto result = extracts[slot].get();
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_DOUBLE_EQ(result.report.wer_pct(), 100.0);
    } else {
      const auto result = traces[slot].get();
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.trace.device_id, slot % 2 == 0 ? "dev-a" : "dev-b");
    }
  }
}

TEST(AsyncEngine, ShutdownWithNonEmptyQueueResolvesEveryFuture) {
  // One worker + a deep backlog: shutdown() must cancel the queued tail
  // (ok=false slots), finish the in-flight head, and leave no dangling
  // futures -- the destructor-safety contract.
  EngineFixture fx;
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);

  WatermarkEngine engine;

  constexpr size_t kBacklog = 12;
  std::vector<QuantizedModel> models(kBacklog, *fx.f.quantized);
  auto requests = fx.make_requests(models);
  std::vector<std::future<WatermarkEngine::InsertResult>> futures;
  for (auto& request : requests) futures.push_back(engine.submit(request));
  engine.shutdown();

  size_t completed = 0;
  size_t cancelled = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto slot = future.get();
    if (slot.ok) {
      ++completed;
    } else {
      ++cancelled;
      EXPECT_NE(slot.error.find("shut down"), std::string::npos) << slot.error;
    }
  }
  EXPECT_EQ(completed + cancelled, kBacklog);
  EXPECT_EQ(engine.pending(), 0u);

  // Post-shutdown submissions are rejected immediately, not queued.
  auto rejected = engine.submit(requests[0]);
  const auto slot = rejected.get();
  EXPECT_FALSE(slot.ok);
  EXPECT_NE(slot.error.find("shut down"), std::string::npos);
}

TEST(AsyncEngine, EnginesSharingAPoolRunRequestsInArrivalOrder) {
  // The pool's FIFO is the only queue: a request for engine b, posted
  // between two halves of a burst for engine a, runs before the second
  // half instead of waiting out everything a receives while it is busy.
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::string> order;  // one worker: no concurrent pushes
  WatermarkEngine a;
  WatermarkEngine b;

  using Request = WatermarkEngine::ExtractRequest;
  auto request = [&](const std::string& id) {
    Request r;
    r.id = id;
    // Empty sources fail the slot at once; only the order matters here.
    r.sources_factory = [&, park = id == "a0"] {
      if (park) {
        parked.set_value();
        gate.wait();
      }
      return Request::Sources{};
    };
    return r;
  };
  WatermarkEngine::Callback<Request> record = [&](const Request::Result& slot) {
    order.push_back(slot.id);
  };

  std::vector<std::future<Request::Result>> futures;
  futures.push_back(a.submit(request("a0"), record));
  parked.get_future().wait();  // a0 holds the only worker
  for (int i = 1; i <= 4; ++i) {
    futures.push_back(a.submit(request("a" + std::to_string(i)), record));
  }
  futures.push_back(b.submit(request("b0"), record));
  for (int i = 5; i <= 8; ++i) {
    futures.push_back(a.submit(request("a" + std::to_string(i)), record));
  }
  release.set_value();
  for (auto& future : futures) future.wait();

  ASSERT_EQ(order.size(), 10u);
  const auto position = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(position("b0"), position("a5"));
  EXPECT_EQ(position("b0"), 5);
}

TEST(AsyncEngine, ReadyFutureImpliesNotPending) {
  // The publish-after-decrement contract: once a future reports ready, the
  // request is no longer counted in pending(). (Before the split of run
  // and publish, the promise resolved while in_flight_ was still 1.)
  EngineFixture fx;
  WatermarkEngine engine;
  for (int round = 0; round < 5; ++round) {
    std::vector<QuantizedModel> models(1, *fx.f.quantized);
    auto requests = fx.make_requests(models);
    auto future = engine.submit(requests[0]);
    EXPECT_TRUE(future.get().ok);
    EXPECT_EQ(engine.pending(), 0u) << "round " << round;
  }
}

TEST(AsyncEngine, LazySourcesFactoryRunsOnTheWorker) {
  // Extract/trace requests materialize their inputs through their
  // sources_factory on the executing worker -- the submitting thread never
  // touches them.
  EngineFixture fx;
  std::vector<QuantizedModel> models(1, *fx.f.quantized);
  WatermarkEngine engine({/*base_seed=*/9, /*trace_min_wer_pct=*/90.0});
  auto inserts = fx.make_requests(models);
  const auto inserted = engine.submit(inserts[0]).get();
  ASSERT_TRUE(inserted.ok) << inserted.error;

  struct Lazy {
    std::unique_ptr<QuantizedModel> suspect;
    SchemeRecord record;
  };
  auto lazy = std::make_shared<Lazy>();
  std::thread::id factory_thread;

  WatermarkEngine::ExtractRequest request;
  request.id = "lazy-extract";
  request.sources_factory = [&, lazy]() {
    factory_thread = std::this_thread::get_id();
    lazy->suspect = std::make_unique<QuantizedModel>(models[0]);  // off-thread deep copy
    lazy->record = inserted.record;
    WatermarkEngine::ExtractRequest::Sources src;
    src.suspect = lazy->suspect.get();
    src.original = fx.f.quantized.get();
    src.record = &lazy->record;
    return src;
  };
  const auto slot = engine.submit(std::move(request)).get();
  ASSERT_TRUE(slot.ok) << slot.error;
  EXPECT_NE(factory_thread, std::this_thread::get_id());
  EXPECT_DOUBLE_EQ(slot.report.wer_pct(), 100.0);

  // A throwing factory fails only its own slot.
  WatermarkEngine::ExtractRequest boom;
  boom.id = "boom";
  boom.sources_factory = []() -> WatermarkEngine::ExtractRequest::Sources {
    throw std::runtime_error("artifact load failed");
  };
  const auto failed = engine.submit(std::move(boom)).get();
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("artifact load failed"), std::string::npos);
  engine.drain();
}

TEST(AsyncEngine, VerifyRequestAuditsEvidenceOffThread) {
  // The arbiter audit as an engine verb: same verdicts as calling
  // OwnershipEvidence::verify directly, per-slot error isolation included.
  EngineFixture fx;
  QuantizedModel marked = *fx.f.quantized;
  const SchemeRecord record = EmMarkScheme().insert(marked, fx.f.stats, fx.key);
  const OwnershipEvidence evidence = OwnershipEvidence::create(
      "acme", record, *fx.f.quantized, fx.f.stats, /*created_unix=*/1234);

  // Each audit runs with the original's precomputed facts (the serving
  // path's ModelHandle) and without them; the answers must not differ.
  const OriginalFacts facts = OriginalFacts::of(*fx.f.quantized, fx.f.stats);
  auto audit = [&](const char* id, const QuantizedModel* suspect,
                   const OriginalFacts* with) {
    WatermarkEngine::VerifyRequest request;
    request.id = id;
    request.sources_factory = [&, suspect, with] {
      return WatermarkEngine::VerifyRequest::Sources{suspect, fx.f.quantized.get(),
                                                     &fx.f.stats, &evidence, with};
    };
    request.min_wer_pct = 90.0;
    return request;
  };
  WatermarkEngine engine;
  const QuantizedModel scrubbed = *fx.f.quantized;
  for (const OriginalFacts* with : {static_cast<const OriginalFacts*>(nullptr), &facts}) {
    const auto slot = engine.submit(audit("audit", &marked, with)).get();
    ASSERT_TRUE(slot.ok) << slot.error;
    EXPECT_TRUE(slot.verified) << slot.why;
    EXPECT_EQ(slot.why, "verified");
    EXPECT_EQ(slot.owner, "acme");
    EXPECT_EQ(slot.scheme, record.scheme());

    // A scrubbed suspect fails the audit (ok=true, verified=false, reason).
    const auto bad_slot = engine.submit(audit("audit-scrubbed", &scrubbed, with)).get();
    ASSERT_TRUE(bad_slot.ok) << bad_slot.error;
    EXPECT_FALSE(bad_slot.verified);
    EXPECT_EQ(bad_slot.why, "signature does not extract from the suspect model");
  }
  EXPECT_EQ(facts.placements->counts().misses, 1u);
  EXPECT_EQ(facts.placements->counts().hits, 1u);

  // A request without payload fails the slot, not the engine.
  WatermarkEngine::VerifyRequest empty;
  empty.id = "audit-null";
  const auto null_slot = engine.submit(std::move(empty)).get();
  EXPECT_FALSE(null_slot.ok);
  EXPECT_NE(null_slot.error.find("verify request"), std::string::npos);
  engine.drain();
}

TEST(Engine, ZooExtractionBitIdenticalAtPoolSizes1AndN) {
  // The acceptance-criterion shape: watermark two zoo models (training
  // capped, throwaway cache), then extract at pool sizes 1 and N and
  // require bit-identical reports.
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_engine_zoo_cache").string();
  std::filesystem::remove_all(cache);
  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(40);

  const std::vector<std::string> names = {"opt-125m-sim", "opt-1.3b-sim"};
  std::vector<std::shared_ptr<const ActivationStats>> stats;
  std::vector<std::unique_ptr<QuantizedModel>> originals;
  std::vector<std::unique_ptr<QuantizedModel>> marked;
  for (const std::string& name : names) {
    auto fp = zoo.model(name);
    stats.push_back(zoo.stats(name));
    originals.push_back(std::make_unique<QuantizedModel>(*fp, *stats.back(),
                                                         QuantMethod::kAwqInt4));
    marked.push_back(std::make_unique<QuantizedModel>(*originals.back()));
  }

  std::vector<WatermarkEngine::InsertRequest> inserts;
  for (size_t i = 0; i < names.size(); ++i) {
    WatermarkEngine::InsertRequest request;
    request.id = names[i];
    request.model_factory = [&marked, i] { return marked[i].get(); };
    request.stats = stats[i].get();
    request.key.bits_per_layer = 8;
    request.key.candidate_ratio = 10;
    request.seed_from_id = true;
    inserts.push_back(request);
  }
  std::vector<WatermarkEngine::InsertResult> inserted;
  {
    WatermarkEngine engine({/*base_seed=*/3, /*trace_min_wer_pct=*/90.0});
    inserted = submit_all(engine, inserts);
  }
  for (const auto& result : inserted) ASSERT_TRUE(result.ok) << result.error;

  std::vector<WatermarkEngine::ExtractRequest> extracts;
  for (size_t i = 0; i < names.size(); ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = names[i];
    request.sources_factory = [&, i] {
      return WatermarkEngine::ExtractRequest::Sources{
          marked[i].get(), originals[i].get(), &inserted[i].record};
    };
    extracts.push_back(request);
  }

  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t pool_size : {size_t{1}, ThreadPool::shared().size()}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    WatermarkEngine engine({/*base_seed=*/3, /*trace_min_wer_pct=*/90.0});
    const auto results = submit_all(engine, extracts);
    std::vector<std::pair<int64_t, int64_t>> reports;
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_DOUBLE_EQ(result.report.wer_pct(), 100.0);
      reports.emplace_back(result.report.matched_bits, result.report.total_bits);
    }
    if (reference.empty()) {
      reference = reports;
    } else {
      EXPECT_EQ(reports, reference);
    }
  }
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace emmark
