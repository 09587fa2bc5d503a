// Shared plumbing of the end-to-end benchmark: the clock, order statistics,
// a fixed-bucket latency histogram, the span stack that turns nested call
// timings into per-layer self times, resource probes, and the result that
// main() prints.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

/// Input seed of batch k of a run.  Batch 0 of every run with one seed gets
/// the same inputs; each later batch gets fresh ones, so a run's medians
/// pool many inputs instead of one.
std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t k);

/// Median of `values` (mean of the two middle elements for even sizes).
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Arithmetic mean of `values` (0 when empty).
double mean(const std::vector<double>& values);

/// One value per batch: `field` of each.
template <typename Batch>
std::vector<double> each(const std::vector<Batch>& batches,
                         double Batch::*field) {
  std::vector<double> out;
  for (const Batch& b : batches) out.push_back(b.*field);
  return out;
}

/// The samples `field` of every batch, pooled.
template <typename Batch>
std::vector<double> pooled(const std::vector<Batch>& batches,
                           std::vector<double> Batch::*field) {
  std::vector<double> out;
  for (const Batch& b : batches)
    out.insert(out.end(), (b.*field).begin(), (b.*field).end());
  return out;
}

/// Log-linear histogram of non-negative durations in nanoseconds: 16
/// sub-buckets per power of two, so a bucket is at most 1/16 of its value
/// wide.  Fixed size, no allocation per sample.
class Histogram {
 public:
  void add(std::int64_t ns);
  std::uint64_t count() const { return count_; }
  double mean_ns() const;
  /// {"count":..,"sum_ns":..,"buckets":[[lower_ns,count],..]} (non-empty
  /// buckets only).
  std::string to_json() const;

 private:
  static constexpr int kSubBits = 4;
  static constexpr int kBuckets = 64 << kSubBits;
  static int bucket_of(std::uint64_t v);
  static double lower_edge(int bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Durations and self time of one kind of span.
struct SpanStat {
  Histogram hist;         ///< span durations
  std::int64_t self_ns = 0;  ///< durations minus time covered by children
  double mean_ns() const { return hist.mean_ns(); }
  double self_mean_ns() const {
    return hist.count() == 0 ? 0.0
                             : static_cast<double>(self_ns) /
                                   static_cast<double>(hist.count());
  }
};

/// Stack of open spans.  A span's self time is its duration minus the
/// durations of the spans that closed while it was the innermost open one.
/// Spans timed outside any open span (set-up work) are not recorded.
class Tracer {
 public:
  bool active() const { return !stack_.empty(); }
  void open(std::int64_t t) { stack_.push_back(Frame{t, 0}); }
  /// Close the innermost span at time t into `stat`; returns its duration.
  std::int64_t close(std::int64_t t, SpanStat& stat);
  /// Record a span with no children, measured in one piece.
  void leaf(std::int64_t duration, SpanStat& stat);

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Filesystem type name of `path` ("tmpfs", "ext4", ...).
std::string fs_type(const std::string& path);

/// Outcome of one benchmark invocation.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Extra key/value facts printed in the table (counts, settings).
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    notes.push_back({key, value});
  }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  /// Check that process p stores at most n checkpoints.
  void check_bound(int p, std::size_t stored, std::size_t n);
};

/// Print the human-readable table, then the one-line JSON result, to stdout.
void print_result(const Result& result, const std::string& workload);

}  // namespace e2e
