// perfbench_e2e: the in-process half of the end-to-end workloads.
//
//   perfbench_e2e ppl --cache DIR --model M --quant int4 --seed N
//                     --tokens T --seconds S --setups K
//       Builds the QuantizedModel K times from the cached checkpoint
//       (set-up time), scores a seeded T-token stream once through
//       materialize() as the reference, then runs perplexity() passes back
//       to back for S seconds at the default pool size and kernel level.
//   perfbench_e2e clean-codes --cache DIR --model M --quant int4 --out PATH
//       Writes the unwatermarked original's codes (the dispute workload's
//       clean suspect).
//
// Prints one JSON object. Correctness is judged by run.py's oracle from the
// reported bit patterns, not here.
#include <memory>

#include "common.h"
#include "eval/perplexity.h"
#include "util/threadpool.h"

namespace {

using namespace emmark;
using perfbench::bits_hex;
using perfbench::Flags;
using perfbench::Json;
using perfbench::now_s;

int cmd_ppl(const Flags& flags) {
  const std::string model = flags.str("model");
  const QuantMethod method = perfbench::quant_method(model, flags.str("quant", "int4"));
  ModelZoo zoo(flags.str("cache"));
  const std::vector<TokenId> stream = perfbench::seeded_stream(
      static_cast<uint64_t>(flags.num("seed", 1)),
      static_cast<int64_t>(flags.num("tokens", 4096)));

  // Set-up: checkpoint load -> QuantizedModel built, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<QuantizedModel> qm;
  for (int i = 0; i < static_cast<int>(flags.num("setups", 3)); ++i) {
    const double t0 = now_s();
    auto fp = zoo.model(model);
    auto stats = zoo.stats(model);
    qm = std::make_unique<QuantizedModel>(*fp, *stats, method);
    setup_s.push_back(now_s() - t0);
  }

  const PplConfig config;
  int64_t scored = 0;
  for (const Batch& b : tile_eval_batches(stream, config.batch_size, config.seq_len)) {
    for (TokenId t : b.targets) scored += t >= 0 ? 1 : 0;
  }
  const double reference = perplexity(*qm->materialize(), stream, config);

  std::vector<std::string> seen;
  auto record = [&](double value) {
    const std::string hex = bits_hex(value);
    if (std::find(seen.begin(), seen.end(), hex) == seen.end()) seen.push_back(hex);
  };
  record(perplexity(*qm, stream, config));  // warm-up pass

  std::vector<double> pass_ms;
  const double seconds = flags.num("seconds", 10);
  const double cpu0 = perfbench::process_cpu_s();
  const double start = now_s();
  while (now_s() - start < seconds) {
    const double t0 = now_s();
    record(perplexity(*qm, stream, config));
    pass_ms.push_back((now_s() - t0) * 1e3);
  }
  const double wall = now_s() - start;
  const double cpu = perfbench::process_cpu_s() - cpu0;

  std::string seen_list;
  for (const std::string& hex : seen) seen_list += (seen_list.empty() ? "" : ",") + hex;
  Json()
      .nums("setup_s", setup_s)
      .nums("pass_ms", pass_ms)
      .num("scored_tokens", static_cast<double>(scored))
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("vmhwm_kib", perfbench::vm_hwm_kib())
      .num("pool_threads", static_cast<double>(ThreadPool::active().size()))
      .num("ppl", reference)
      .str("ref_bits", bits_hex(reference))
      .str("pass_bits", seen_list)
      .print();
  return 0;
}

int cmd_clean_codes(const Flags& flags) {
  const std::string model = flags.str("model");
  ModelZoo zoo(flags.str("cache"));
  const QuantizedModel qm(*zoo.model(model), *zoo.stats(model),
                          perfbench::quant_method(model, flags.str("quant", "int4")));
  qm.save_codes(flags.str("out"));
  Json().str("codes", flags.str("out")).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_e2e ppl|clean-codes --flag value ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Flags flags(argc, argv, 2);
    if (cmd == "ppl") return cmd_ppl(flags);
    if (cmd == "clean-codes") return cmd_clean_codes(flags);
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
  }
  return 1;
}
