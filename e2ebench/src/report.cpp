#include "report.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + k * 0x9E3779B97F4A7C15ULL;  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ---- Histogram ------------------------------------------------------------

int Histogram::bucket_of(std::uint64_t v) {
  constexpr std::uint64_t kSub = 1u << kSubBits;
  if (v < kSub) return static_cast<int>(v);
  const int top = 63 - std::countl_zero(v);  // floor(log2 v) >= kSubBits
  const int shift = top - kSubBits;
  const auto sub = static_cast<int>((v >> shift) & (kSub - 1));
  return ((shift + 1) << kSubBits) + sub;
}

double Histogram::lower_edge(int bucket) {
  constexpr int kSub = 1 << kSubBits;
  if (bucket < kSub) return bucket;
  const int shift = (bucket >> kSubBits) - 1;
  const int sub = bucket & (kSub - 1);
  return std::ldexp(static_cast<double>(kSub + sub), shift);
}

void Histogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  ++count_;
  sum_ += static_cast<double>(v);
}

double Histogram::mean_ns() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::string Histogram::to_json() const {
  std::ostringstream out;
  out << "{\"count\":" << count_ << ",\"sum_ns\":" << sum_
      << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    out << (first ? "" : ",") << '[' << lower_edge(static_cast<int>(b)) << ','
        << buckets_[b] << ']';
    first = false;
  }
  out << "]}";
  return out.str();
}

// ---- Tracer ---------------------------------------------------------------

std::int64_t Tracer::close(std::int64_t t, SpanStat& stat) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - frame.start;
  stat.hist.add(duration);
  stat.self_ns += duration - frame.child;
  if (!stack_.empty()) stack_.back().child += duration;
  return duration;
}

void Tracer::leaf(std::int64_t duration, SpanStat& stat) {
  if (stack_.empty()) return;
  stat.hist.add(duration);
  stat.self_ns += duration;
  stack_.back().child += duration;
}

// ---- Probes ---------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fs_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

// ---- Result ---------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  // Each distinct failure is listed once, however many batches repeat it.
  if (std::find(failures.begin(), failures.end(), what) == failures.end())
    failures.push_back(what);
}

void Result::check_bound(int p, std::size_t stored, std::size_t n) {
  if (stored <= n) return;
  std::string what = "process ";
  what += std::to_string(p);
  what += " stores more than n checkpoints";
  check(false, what);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_result(const Result& result, const std::string& workload) {
  std::printf("== %s ==\n", workload.c_str());
  for (const auto& [key, value] : result.notes)
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  for (const auto& [name, value] : result.metrics)
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  for (const auto& failure : result.failures)
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  std::printf("  correct=%s attempted=%llu failed=%llu failed_op_ratio=%g\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted));

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    json << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": {\"value\": " << number(value.first) << ", \"unit\": \""
         << json_escape(value.second) << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace e2e
