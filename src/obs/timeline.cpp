#include "obs/timeline.h"

#include <algorithm>
#include <ostream>
#include <set>

#include "obs/export.h"

namespace roads::obs {

namespace {

/// Quantile of the samples a window added to a histogram, estimated
/// from the per-bucket count deltas by linear interpolation within the
/// bucket bounds (the Prometheus histogram_quantile rule). The exact
/// side-samples are cumulative over the run, so a window cannot use
/// them; bucket-resolution estimates are the standard trade.
double windowed_quantile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& deltas, double q) {
  std::uint64_t total = 0;
  for (const auto d : deltas) total += d;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const double next = cumulative + static_cast<double>(deltas[i]);
    if (next >= target || i + 1 == deltas.size()) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      const double width = bounds[i] - lower;
      const double inside = deltas[i] == 0
                                ? 0.0
                                : (target - cumulative) /
                                      static_cast<double>(deltas[i]);
      return lower + width * std::clamp(inside, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

Timeline::Timeline(MetricsRegistry& registry, TimelineConfig config)
    : registry_(registry),
      config_(config),
      armed_(std::make_shared<bool>(false)) {
  if (config_.window <= 0) config_.window = sim::seconds(1);
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.convergence_windows == 0) config_.convergence_windows = 1;
}

Timeline::~Timeline() { *armed_ = false; }

void Timeline::track_counter(const std::string& name) {
  for (const auto& t : counters_) {
    if (t.name == name) return;
  }
  CounterTrack track;
  track.name = name;
  track.counter = &registry_.counter(name);
  // Baseline at registration: the first window reports only increments
  // that happen after tracking started, not the run's whole history.
  track.last = track.counter->value();
  counters_.push_back(std::move(track));
}

void Timeline::track_histogram(const std::string& name) {
  for (const auto& t : histograms_) {
    if (t.name == name) return;
  }
  HistogramTrack track;
  track.name = name;
  track.hist = &registry_.histogram(name);
  track.last_buckets = track.hist->bucket_counts();
  track.last_count = track.hist->count();
  track.last_sum = track.hist->sum();
  histograms_.push_back(std::move(track));
}

void Timeline::add_probe(const std::string& name, ProbeFn fn) {
  probes_.push_back({name, std::move(fn)});
}

void Timeline::add_node_probe(const std::string& name, std::size_t nodes,
                              NodeProbeFn fn) {
  node_probes_.push_back({name, nodes, std::move(fn)});
}

void Timeline::add_health_check(const std::string& name, HealthFn fn) {
  health_checks_.push_back({name, std::move(fn)});
}

void Timeline::require_flat_rate(const std::string& counter_name,
                                 double rel_tolerance, double abs_floor) {
  track_counter(counter_name);
  flat_rates_.push_back({"rate." + counter_name, rel_tolerance, abs_floor});
}

void Timeline::tick(sim::Time now) {
  TimelineWindow window;
  window.index = next_index_++;
  window.start = last_tick_;
  window.end = now;
  ticked_ = true;
  last_tick_ = now;
  const double span_s =
      std::max(sim::to_seconds(window.end - window.start), 1e-12);

  for (auto& t : counters_) {
    const std::uint64_t cur = t.counter->value();
    const std::uint64_t delta = cur >= t.last ? cur - t.last : 0;
    t.last = cur;
    window.values["delta." + t.name] = static_cast<double>(delta);
    window.values["rate." + t.name] = static_cast<double>(delta) / span_s;
  }
  for (auto& t : histograms_) {
    const auto buckets = t.hist->bucket_counts();
    const std::uint64_t count = t.hist->count();
    const double sum = t.hist->sum();
    std::vector<std::uint64_t> deltas(buckets.size(), 0);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::uint64_t prev =
          i < t.last_buckets.size() ? t.last_buckets[i] : 0;
      deltas[i] = buckets[i] >= prev ? buckets[i] - prev : 0;
    }
    const std::uint64_t wcount = count >= t.last_count ? count - t.last_count
                                                       : 0;
    const double wsum = sum - t.last_sum;
    t.last_buckets = buckets;
    t.last_count = count;
    t.last_sum = sum;
    window.values[t.name + ".wcount"] = static_cast<double>(wcount);
    window.values[t.name + ".wmean"] =
        wcount > 0 ? wsum / static_cast<double>(wcount) : 0.0;
    const auto& bounds = t.hist->bounds();
    window.values[t.name + ".wp50"] = windowed_quantile(bounds, deltas, 0.50);
    window.values[t.name + ".wp90"] = windowed_quantile(bounds, deltas, 0.90);
    window.values[t.name + ".wp99"] = windowed_quantile(bounds, deltas, 0.99);
  }
  for (const auto& p : probes_) {
    window.values["probe." + p.name] = p.fn(now);
  }
  for (const auto& p : node_probes_) {
    auto& series = window.per_node[p.name];
    series.reserve(p.nodes);
    for (std::size_t n = 0; n < p.nodes; ++n) {
      series.push_back(p.fn(static_cast<std::uint32_t>(n), now));
    }
  }

  window.healthy = true;
  for (const auto& h : health_checks_) {
    if (!h.fn(window)) {
      window.healthy = false;
      break;
    }
  }

  windows_.push_back(std::move(window));
  while (windows_.size() > config_.capacity) {
    windows_.pop_front();
    ++evicted_;
  }
  update_convergence(windows_.back());
}

bool Timeline::flat_rates_ok() const {
  const std::size_t w = config_.convergence_windows;
  if (windows_.size() < w) return false;
  for (const auto& flat : flat_rates_) {
    double lo = 0.0;
    double hi = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < w; ++i) {
      const auto& window = windows_[windows_.size() - 1 - i];
      const double v = window.value(flat.series);
      if (i == 0) {
        lo = hi = v;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      sum += v;
    }
    const double mean = sum / static_cast<double>(w);
    const double allowed =
        std::max(flat.rel_tolerance * mean, flat.abs_floor);
    if (hi - lo > allowed) return false;
  }
  return true;
}

void Timeline::update_convergence(const TimelineWindow& window) {
  if (!window.healthy) {
    healthy_streak_ = 0;
    in_convergence_ = false;
    return;
  }
  ++healthy_streak_;
  if (in_convergence_) return;
  if (healthy_streak_ < config_.convergence_windows) return;
  if (!flat_rates_ok()) return;
  in_convergence_ = true;
  events_.push_back({window.end, window.index});
}

std::optional<sim::Time> Timeline::first_converged_at() const {
  if (events_.empty()) return std::nullopt;
  return events_.front().at;
}

std::optional<sim::Time> Timeline::converged_after(sim::Time t) const {
  for (const auto& e : events_) {
    if (e.at >= t) return e.at;
  }
  return std::nullopt;
}

void Timeline::stop() { *armed_ = false; }

void Timeline::write_csv(std::ostream& os) const {
  std::set<std::string> keys;
  for (const auto& window : windows_) {
    for (const auto& [name, _] : window.values) keys.insert(name);
  }
  os << "window,start_s,end_s,healthy";
  for (const auto& key : keys) os << "," << key;
  os << "\n";
  for (const auto& window : windows_) {
    os << window.index << "," << sim::to_seconds(window.start) << ","
       << sim::to_seconds(window.end) << "," << (window.healthy ? 1 : 0);
    for (const auto& key : keys) {
      os << "," << json_number(window.value(key));
    }
    os << "\n";
  }
}

namespace {

void write_window_json(const TimelineWindow& window, std::ostream& os) {
  os << "{\"window\":" << window.index << ",\"start_us\":" << window.start
     << ",\"end_us\":" << window.end
     << ",\"healthy\":" << (window.healthy ? "true" : "false")
     << ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : window.values) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  os << "}";
  if (!window.per_node.empty()) {
    os << ",\"per_node\":{";
    first = true;
    for (const auto& [name, series] : window.per_node) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":[";
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (i > 0) os << ",";
        os << json_number(series[i]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

void Timeline::write_jsonl(std::ostream& os) const {
  for (const auto& window : windows_) {
    write_window_json(window, os);
    os << "\n";
  }
}

void Timeline::write_json_windows(std::ostream& os,
                                  std::size_t max_windows) const {
  const std::size_t n = std::min(max_windows, windows_.size());
  os << "[";
  for (std::size_t i = windows_.size() - n; i < windows_.size(); ++i) {
    if (i > windows_.size() - n) os << ",\n ";
    write_window_json(windows_[i], os);
  }
  os << "]";
}

}  // namespace roads::obs
