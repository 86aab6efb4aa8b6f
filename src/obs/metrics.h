#pragma once

// Process-wide observability primitives: counters, gauges, and fixed-bucket
// log2 latency histograms, collected in a MetricsRegistry and rendered as
// Prometheus text exposition format.
//
// The record-path cost contract: recording a sample is a handful of relaxed
// atomic increments — no locks, no allocation, no syscalls — so hot paths
// (engine pool workers, store lookups, the server event loop) can record
// unconditionally. Registration (get-or-create by name+labels) takes a mutex
// but happens once per series, at setup time, never per sample. Scraping
// snapshots every series with relaxed loads; snapshots from different shards
// merge by plain addition.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace emmark::obs {

/// Label set attached to one series, e.g. {{"shard","0"}}. Order is
/// preserved in the exposition output; an empty set renders no braces.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections, resident bytes).
class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency distribution over fixed log2 buckets of microseconds: bucket i
/// holds samples with value <= 2^i us for i in [0, kBuckets-2]; the last
/// bucket is +Inf. 2^26 us is ~67 s, far past any request this system
/// serves, so the +Inf bucket only catches pathology.
class Histogram {
 public:
  static constexpr size_t kBuckets = 28;

  /// Deterministic bucket for a microsecond value: smallest i with
  /// value <= 2^i, clamped to the +Inf bucket.
  static size_t bucket_index(uint64_t us) {
    if (us <= 1) return 0;
    // bit_width(us - 1): smallest i with 2^i >= us.
    size_t width = 0;
    for (uint64_t v = us - 1; v != 0; v >>= 1) ++width;
    return width < kBuckets - 1 ? width : kBuckets - 1;
  }

  void record_us(uint64_t us) {
    buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  void record_seconds(double seconds) {
    record_us(seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e6 + 0.5));
  }

  void record_duration(std::chrono::steady_clock::duration d) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    record_us(us <= 0 ? 0 : static_cast<uint64_t>(us));
  }

  /// Point-in-time copy, mergeable across shards at scrape time.
  struct Snapshot {
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum_us = 0;

    void merge(const Snapshot& other);

    /// Approximate q-quantile in seconds (q in [0,1]), linearly
    /// interpolated inside the owning bucket; 0 when empty. Samples in
    /// the +Inf bucket report the largest finite bound.
    double quantile(double q) const;

    double sum_seconds() const { return static_cast<double>(sum_us) / 1e6; }
  };

  Snapshot snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// Prometheus text exposition builder. Callers group output by family:
/// family() emits the HELP/TYPE header, then sample()/histogram() append
/// series lines. No trailing blank line; the caller owns any terminator.
class Exposition {
 public:
  void family(const std::string& name, const std::string& type,
              const std::string& help);
  void sample(const std::string& name, const Labels& labels, uint64_t value);
  void sample(const std::string& name, const Labels& labels, int64_t value);
  void sample(const std::string& name, const Labels& labels, double value);
  void histogram(const std::string& name, const Labels& labels,
                 const Histogram::Snapshot& snap);

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Get-or-create registry of named series. Returned references stay valid
/// for the registry's lifetime (series are heap-allocated; the registry is
/// append-only). Families expose in registration order; series within a
/// family in their own registration order. Re-registering a name with a
/// different metric type throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {});

  /// Render every registered family into `out`.
  void expose(Exposition& out) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Type type = Type::kCounter;
    std::vector<Series> series;
  };

  Family& family_of(const std::string& name, const std::string& help,
                    Type type);
  Series& series_of(Family& family, const Labels& labels);

  mutable std::mutex mutex_;
  std::deque<Family> families_;
};

}  // namespace emmark::obs
