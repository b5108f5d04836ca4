#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The three cut points dividing `v` into quartiles, computed exactly as
/// Python's `statistics.quantiles(v, n=4)` (its default "exclusive"
/// method), so in-run spreads agree with the ones a reader computes over
/// repeated runs. Requires at least two values; fewer yield {x, x, x}.
inline std::vector<double> Quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  const int64_t m = n + 1;
  std::vector<double> cuts;
  for (int64_t i = 1; i < 4; ++i) {
    // Python clamps j to [1, n - 1] so both neighbours exist, and takes
    // the interpolation weight from the clamped j.
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    cuts.push_back((v[j - 1] * static_cast<double>(4 - delta) +
                    v[j] * static_cast<double>(delta)) /
                   4);
  }
  return cuts;
}

/// Nearest-rank position (1-based) of the `permille`/10 percentile in a
/// sample of `n` values: ceil(permille * n / 1000), at least 1.
inline size_t PercentileRank(size_t n, uint32_t permille) {
  const size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

/// Samples strictly beyond the nearest-rank percentile.
inline size_t SamplesBeyond(size_t n, uint32_t permille) {
  return n == 0 ? 0 : n - PercentileRank(n, permille);
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
inline double PercentileSorted(const std::vector<double>& sorted,
                               uint32_t permille) {
  if (sorted.empty()) return 0;
  return sorted[PercentileRank(sorted.size(), permille) - 1];
}

/// The highest percentile of {99.9, 99, 95, 90, 50} that leaves at least
/// `min_beyond` samples above it, in permille; 0 when even the median
/// does not. A tail reported past this point rests on fewer samples than
/// the rule allows.
inline uint32_t HighestSupportedPermille(size_t n, size_t min_beyond = 10) {
  for (uint32_t p : {999u, 990u, 950u, 900u, 500u}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

/// A latency sample summarised the way the benchmark reports timings:
/// median, p99, the sample count and the highest percentile it supports.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  uint32_t supported_permille = 0;
};

inline LatencySummary Summarize(std::vector<double> v) {
  LatencySummary s;
  s.count = v.size();
  std::sort(v.begin(), v.end());
  s.p50 = Median(v);
  s.p99 = PercentileSorted(v, 990);
  s.supported_permille = HighestSupportedPermille(v.size());
  return s;
}

/// Latency over a run cut into windows: the samples of consecutive
/// epochs, in order, are cut into windows of `window` samples (a short
/// tail joins the last window). On a shared host, outside load only ever
/// adds time, in bursts of one to a few seconds, while a change that
/// slows the code slows every window. So the median is the lower
/// quartile (nearest rank) of the window medians, which skips the windows
/// a burst hit. The p99 first keeps the faster windows: the faster half
/// by median, plus the next fastest until they hold `tail_samples`. Their
/// samples, in run order, are cut again into tail windows of
/// `tail_samples` (at least ten beyond each p99), and the p99 is the
/// lower quartile of the tail windows' p99s. A run with few samples thus
/// still gets a p99 from the windows no burst hit, and one with many
/// also skips the tail windows that a cluster of stalls hit.
struct WindowedLatency {
  size_t count = 0;
  size_t windows = 0;
  double p50 = 0;
  double p99 = 0;
  /// The tail windows, and the lowest supported_permille among them.
  size_t tail_windows = 0;
  uint32_t supported_permille = 0;
  /// Each window's median, in run order.
  std::vector<double> window_p50s;
};

/// Nearest-rank lower quartile (the smallest value of up to 4).
inline double LowerQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 250);
}

/// Nearest-rank upper quartile, for metrics where higher is better.
inline double UpperQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 750);
}

/// Cuts the samples of `epochs`, in order, into windows of `window` (a
/// short tail joins the last window; fewer samples make one window).
inline std::vector<std::vector<double>> CutWindows(
    const std::vector<std::vector<double>>& epochs, size_t window) {
  std::vector<std::vector<double>> windows;
  std::vector<double> current;
  for (const std::vector<double>& e : epochs) {
    for (double v : e) {
      current.push_back(v);
      if (current.size() == window) {
        windows.push_back(std::move(current));
        current.clear();
      }
    }
  }
  if (!current.empty()) {
    if (windows.empty()) {
      windows.push_back(std::move(current));
    } else {
      windows.back().insert(windows.back().end(), current.begin(),
                            current.end());
    }
  }
  return windows;
}

inline WindowedLatency SummarizeWindows(
    const std::vector<std::vector<double>>& epochs, size_t window,
    size_t tail_samples) {
  const std::vector<std::vector<double>> windows = CutWindows(epochs, window);
  WindowedLatency out;
  for (const std::vector<double>& w : windows) {
    out.window_p50s.push_back(Median(w));
    out.count += w.size();
  }
  out.windows = windows.size();
  out.p50 = LowerQuartile(out.window_p50s);

  std::vector<size_t> by_median(windows.size());
  for (size_t i = 0; i < by_median.size(); ++i) by_median[i] = i;
  std::stable_sort(by_median.begin(), by_median.end(), [&](size_t a, size_t b) {
    return out.window_p50s[a] < out.window_p50s[b];
  });
  std::vector<size_t> kept;
  size_t kept_samples = 0;
  for (size_t k = 0; k < by_median.size(); ++k) {
    if (2 * k >= by_median.size() && kept_samples >= tail_samples) break;
    kept.push_back(by_median[k]);
    kept_samples += windows[by_median[k]].size();
  }
  std::sort(kept.begin(), kept.end());
  std::vector<std::vector<double>> fast;
  for (size_t i : kept) fast.push_back(windows[i]);
  std::vector<double> p99s;
  for (const std::vector<double>& w : CutWindows(fast, tail_samples)) {
    const LatencySummary s = Summarize(w);
    p99s.push_back(s.p99);
    out.supported_permille =
        out.tail_windows == 0
            ? s.supported_permille
            : std::min(out.supported_permille, s.supported_permille);
    ++out.tail_windows;
  }
  out.p99 = LowerQuartile(p99s);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
