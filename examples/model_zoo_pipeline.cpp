// Model-zoo pipeline: prepares (trains + caches) every simulated OPT /
// LLaMA-2 model, then runs the full embed-and-watermark pipeline on each,
// printing a per-model summary. Run this once before the bench suite to
// warm the checkpoint cache.
//
// Watermarking goes through the WatermarkEngine service layer: all INT8 and
// INT4 insertions across the whole zoo are submitted at once (executed on
// the shared ThreadPool), then verified the same way with extracts -- the
// shape a production endpoint would use.
//
// Run:  ./model_zoo_pipeline [--model opt-2.7b-sim] [--threads 2]
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "util/argparse.h"

#include "eval/perplexity.h"
#include "eval/report.h"
#include "eval/zeroshot.h"
#include "model_zoo/zoo.h"
#include "wm/engine.h"

using namespace emmark;

namespace {

QuantMethod int8_method(ArchFamily family) {
  return family == ArchFamily::kOptStyle ? QuantMethod::kSmoothQuantInt8
                                         : QuantMethod::kLlmInt8;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("model_zoo_pipeline",
                 "train/cache all zoo models and watermark each");
  args.add_option("model", "", "run a single model (default: all)");
  args.add_option("threads", "2", "parallel training workers");
  if (!args.parse(argc, argv)) return 1;

  ModelZoo zoo;
  if (args.get("model").empty()) {
    std::printf("preparing all %zu zoo models (cached after first run)...\n",
                zoo_entries().size());
    zoo.prepare_all(static_cast<size_t>(args.get_int("threads")));
  }

  // One pipeline entry per (model, bit width): the original quantized model
  // plus its to-be-watermarked copy, addressed by a stable request id.
  struct PipelineEntry {
    const ZooEntry* entry = nullptr;
    std::shared_ptr<TransformerLM> fp;
    std::shared_ptr<const ActivationStats> stats;
    std::unique_ptr<QuantizedModel> original;
    std::unique_ptr<QuantizedModel> watermarked;
    std::string request_id;
  };
  std::vector<PipelineEntry> pipeline;
  for (const ZooEntry& entry : zoo_entries()) {
    if (!args.get("model").empty() && entry.name != args.get("model")) continue;
    for (const bool int8 : {true, false}) {
      PipelineEntry pe;
      pe.entry = &entry;
      pe.fp = zoo.model(entry.name);
      pe.stats = zoo.stats(entry.name);
      pe.original = std::make_unique<QuantizedModel>(
          *pe.fp, *pe.stats,
          int8 ? int8_method(entry.family) : QuantMethod::kAwqInt4);
      pe.watermarked = std::make_unique<QuantizedModel>(*pe.original);
      pe.request_id = entry.name + (int8 ? "/int8" : "/int4");
      pipeline.push_back(std::move(pe));
    }
  }

  // Insert the whole zoo through the engine: submit every request, then
  // wait on the futures in order.
  WatermarkEngine engine;
  std::vector<std::future<WatermarkEngine::InsertResult>> insert_futures;
  for (PipelineEntry& pe : pipeline) {
    WatermarkEngine::InsertRequest request;
    request.id = pe.request_id;
    request.scheme = "emmark";
    request.model_factory = [&pe] { return pe.watermarked.get(); };
    request.stats = pe.stats.get();
    request.key.bits_per_layer = pe.original->bits() == QuantBits::kInt8 ? 24 : 8;
    request.key.candidate_ratio = 10;
    insert_futures.push_back(engine.submit(std::move(request)));
  }
  std::vector<WatermarkEngine::InsertResult> insert_results;
  for (auto& future : insert_futures) insert_results.push_back(future.get());

  // Extract against the originals, the same way.
  std::vector<std::future<WatermarkEngine::ExtractResult>> extract_futures;
  for (size_t i = 0; i < pipeline.size(); ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = pipeline[i].request_id;
    request.sources_factory = [&, i] {
      return WatermarkEngine::ExtractRequest::Sources{pipeline[i].watermarked.get(),
                                                      pipeline[i].original.get(),
                                                      &insert_results[i].record};
    };
    extract_futures.push_back(engine.submit(std::move(request)));
  }
  std::vector<WatermarkEngine::ExtractResult> extract_results;
  for (auto& future : extract_futures) extract_results.push_back(future.get());

  const auto tasks = make_task_suite(synth_vocab(), 60, 310);
  PplConfig ppl_config;
  ppl_config.seq_len = 32;
  TablePrinter table({"model", "family", "params", "fp PPL", "int8 PPL",
                      "int4 PPL", "acc%", "WER8%", "WER4%"});

  for (size_t i = 0; i + 1 < pipeline.size(); i += 2) {
    const PipelineEntry& pe8 = pipeline[i];      // int8 first per model
    const PipelineEntry& pe4 = pipeline[i + 1];  // then int4
    if (!insert_results[i].ok || !insert_results[i + 1].ok) {
      std::fprintf(stderr, "insert failed for %s: %s%s\n", pe8.entry->name.c_str(),
                   insert_results[i].error.c_str(),
                   insert_results[i + 1].error.c_str());
      continue;
    }
    const double fp_ppl = perplexity(*pe8.fp, zoo.env().corpus.test, ppl_config);
    auto wm8_eval = pe8.watermarked->materialize();
    auto wm4_eval = pe4.watermarked->materialize();
    const double ppl8 = perplexity(*wm8_eval, zoo.env().corpus.test, ppl_config);
    const double ppl4 = perplexity(*wm4_eval, zoo.env().corpus.test, ppl_config);
    const double acc = evaluate_zeroshot(*wm4_eval, tasks).mean_accuracy_pct;

    table.add_row({pe8.entry->name, to_string(pe8.entry->family),
                   std::to_string(pe8.fp->parameter_count()),
                   TablePrinter::fmt(fp_ppl), TablePrinter::fmt(ppl8),
                   TablePrinter::fmt(ppl4), TablePrinter::fmt(acc),
                   TablePrinter::fmt(extract_results[i].report.wer_pct(), 0),
                   TablePrinter::fmt(extract_results[i + 1].report.wer_pct(), 0)});
    std::printf("done: %s\n", pe8.entry->name.c_str());
  }
  std::printf("\n");
  table.print();
  std::printf("\nAll watermarked models should show WER 100 with PPL within "
              "noise of the quantized baseline.\n");
  return 0;
}
