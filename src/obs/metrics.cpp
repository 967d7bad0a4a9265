#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <stdexcept>

namespace roads::obs {

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target || i + 1 == counts.size()) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      const double width = bounds[i] - lower;
      const double inside = counts[i] == 0
                                ? 0.0
                                : (target - cumulative) /
                                      static_cast<double>(counts[i]);
      return lower + width * std::clamp(inside, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
}

void Histogram::record(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  stat_.add(x);
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stat_.count();
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stat_.sum();
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stat_.mean();
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stat_.min();
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stat_.max();
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Empty, the rule reads 0 and RunningStat reads min = max = 0, so
  // snapshot/export paths get a defined 0 at every quantile.
  return std::clamp(bucket_quantile(bounds_, buckets_, q), stat_.min(),
                    stat_.max());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  if (!(start > 0.0)) {
    throw std::invalid_argument("exponential_buckets: start must be > 0");
  }
  if (!(factor > 1.0)) {
    throw std::invalid_argument("exponential_buckets: factor must be > 1");
  }
  if (count == 0) {
    throw std::invalid_argument("exponential_buckets: count must be >= 1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> default_latency_buckets() {
  return {0.5,    1.0,    2.5,     5.0,     10.0,    25.0,     50.0,
          100.0,  250.0,  500.0,   1000.0,  2500.0,  5000.0,   10000.0,
          25000.0, 50000.0, 100000.0, 250000.0, 500000.0, 1000000.0};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::set_help(const std::string& name, std::string text) {
  std::lock_guard<std::mutex> lock(mutex_);
  help_[name] = std::move(text);
}

std::string MetricsRegistry::help(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = help_.find(name);
  return it != help_.end() ? it->second : std::string{};
}

util::MetricSet MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::MetricSet out;
  for (const auto& [name, c] : counters_) {
    out.set(name, static_cast<double>(c->value()));
  }
  for (const auto& [name, h] : histograms_) {
    out.set(name + ".count", static_cast<double>(h->count()));
    out.set(name + ".mean", h->mean());
    out.set(name + ".p50", h->quantile(0.50));
    out.set(name + ".p90", h->quantile(0.90));
    out.set(name + ".p99", h->quantile(0.99));
    out.set(name + ".max", h->max());
  }
  return out;
}

void MetricsRegistry::reset_counters() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, c] : counters_) c->reset();
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

double ScopedTimer::wall_clock_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ScopedTimer::thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return wall_clock_us();
}

ScopedTimer::ClockFn ScopedTimer::thread_cpu_clock() {
  return &ScopedTimer::thread_cpu_us;
}

ScopedTimer::ScopedTimer(Histogram& hist)
    : hist_(hist), clock_(&ScopedTimer::wall_clock_us), start_(clock_()) {}

ScopedTimer::ScopedTimer(Histogram& hist, ClockFn clock)
    : hist_(hist), clock_(std::move(clock)), start_(clock_()) {}

ScopedTimer::~ScopedTimer() { hist_.record(clock_() - start_); }

}  // namespace roads::obs
