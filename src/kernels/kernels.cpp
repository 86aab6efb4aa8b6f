#include "kernels/kernels.h"

#include <atomic>
#include <stdexcept>

#include "kernels/exp_lanes.h"
#include "kernels/isa_tables.h"
#include "kernels/scalar_impl.h"
#include "util/env.h"

namespace emmark::kernels {
namespace {

const Ops kScalarOps = {
    "scalar",
    detail::score_row_scalar,
    detail::count_matches_scalar,
    detail::collect_le_f64_scalar,
    detail::collect_le_abs8_scalar,
    detail::axpy_f64_scalar,
    detail::dequant_span_f32_scalar,
    detail::gemm_tile_f32_scalar,
    detail::dequant_packed_span_f32_scalar,
    detail::exp_span<>,
    detail::swiglu<>,
    detail::causal_softmax_cols<>,
};

/// Does the running CPU have the level's instructions? (Compile-time
/// availability of the table is checked separately.)
bool cpu_has(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Level::kSse2:
      return __builtin_cpu_supports("sse2");
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Level::kAvx512:
      // The TU needs F (doubles/masks), BW (byte compares in
      // collect_le_abs8), and VL (256-bit mask compares in count_matches).
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
    case Level::kNeon:
      return false;
#elif defined(__aarch64__) || defined(__ARM_NEON)
    case Level::kSse2:
    case Level::kAvx2:
    case Level::kAvx512:
      return false;
    case Level::kNeon:
      return true;
#else
    default:
      return false;
#endif
  }
  return false;
}

const Ops* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarOps;
    case Level::kSse2:
      return detail::sse2_table();
    case Level::kAvx2:
      return detail::avx2_table();
    case Level::kNeon:
      return detail::neon_table();
    case Level::kAvx512:
      return detail::avx512_table();
  }
  return nullptr;
}

/// Process-wide test/bench override: -1 = none, else a Level. Atomic (not
/// thread-local) because dispatch is consulted from pool workers too.
std::atomic<int32_t> override_level{-1};

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

Level parse_level(const std::string& name) {
  for (Level level : {Level::kScalar, Level::kSse2, Level::kAvx2, Level::kNeon,
                      Level::kAvx512}) {
    if (name == to_string(level)) return level;
  }
  throw std::invalid_argument("unknown kernel level: " + name +
                              " (use scalar, sse2, avx2, neon, or avx512)");
}

bool level_supported(Level level) {
  return table_for(level) != nullptr && cpu_has(level);
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels;
  for (Level level : {Level::kScalar, Level::kSse2, Level::kAvx2, Level::kNeon,
                      Level::kAvx512}) {
    if (level_supported(level)) levels.push_back(level);
  }
  return levels;
}

Level default_level() {
  // Resolved once per process: EMMARK_KERNEL wins (and must name a level
  // this host can run -- failing loudly beats silently falling back, since
  // the forced-scalar CI lane depends on the override taking effect),
  // otherwise the highest supported level.
  static const Level resolved = [] {
    const std::string forced = env_or("EMMARK_KERNEL", "");
    if (!forced.empty()) {
      const Level level = parse_level(forced);
      if (!level_supported(level)) {
        std::string supported;
        for (Level s : supported_levels()) {
          if (!supported.empty()) supported += ", ";
          supported += to_string(s);
        }
        throw std::runtime_error("EMMARK_KERNEL=" + forced +
                                 " is not supported on this host (supported: " +
                                 supported + ")");
      }
      return level;
    }
    return supported_levels().back();
  }();
  return resolved;
}

Level active_level() {
  const int32_t forced = override_level.load(std::memory_order_acquire);
  return forced >= 0 ? static_cast<Level>(forced) : default_level();
}

const Ops& ops_for(Level level) {
  const Ops* table = table_for(level);
  if (table == nullptr || !cpu_has(level)) {
    throw std::runtime_error(std::string("kernel level ") + to_string(level) +
                             " is not supported on this host");
  }
  return *table;
}

const Ops& active_ops() { return ops_for(active_level()); }

float exp_f32(float x) {
  detail::F32x1 lane = {x};
  detail::exp_lanes(lane);
  return lane[0];
}

void stamp(int8_t* codes, const int64_t* locations, const int8_t* bits, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    codes[locations[j]] = static_cast<int8_t>(codes[locations[j]] + bits[j]);
  }
}

ScopedLevelOverride::ScopedLevelOverride(Level level)
    : previous_(override_level.load(std::memory_order_acquire)) {
  (void)ops_for(level);  // validate eagerly
  override_level.store(static_cast<int32_t>(level), std::memory_order_release);
}

ScopedLevelOverride::~ScopedLevelOverride() {
  override_level.store(previous_, std::memory_order_release);
}

}  // namespace emmark::kernels
