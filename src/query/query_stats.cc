#include "query/query_stats.h"

#include <cmath>

namespace tcob {

namespace {

// Wall times are reported at 0.001us granularity; raw doubles would
// render with noise digits that make the output unstable to diff.
double RoundUs(double us) { return std::round(us * 1000.0) / 1000.0; }

}  // namespace

ResultSet QueryStats::ToResultSet() const {
  ResultSet out;
  out.columns = {"SECTION", "METRIC", "VALUE"};
  auto text = [&](const char* section, const char* metric,
                  const std::string& value) {
    out.rows.push_back({Value::String(section), Value::String(metric),
                        Value::String(value)});
  };
  auto num = [&](const char* section, const char* metric, uint64_t value) {
    out.rows.push_back({Value::String(section), Value::String(metric),
                        Value::Int(static_cast<int64_t>(value))});
  };
  auto us = [&](const char* section, const char* metric, double value) {
    out.rows.push_back({Value::String(section), Value::String(metric),
                        Value::Double(RoundUs(value))});
  };
  auto rate = [&](const char* section, const char* metric, double value) {
    out.rows.push_back({Value::String(section), Value::String(metric),
                        Value::Double(std::round(value * 10000.0) / 10000.0)});
  };

  text("query", "statement", statement);
  text("query", "plan", plan);
  text("query", "temporal_mode", temporal_mode);
  text("query", "strategy", strategy);
  num("query", "parallelism", parallelism);
  text("query", "disposition", disposition);

  us("timing", "parse_us", parse_us);
  us("timing", "plan_us", plan_us);
  us("timing", "materialize_us", materialize_us);
  us("timing", "emit_us", emit_us);
  us("timing", "aggregate_us", aggregate_us);
  us("timing", "sort_us", sort_us);
  us("timing", "execute_us", execute_us);
  us("timing", "total_us", total_us);

  num("result", "molecules", molecules);
  num("result", "states", states);
  num("result", "rows", rows);
  num("result", "atoms_visited", atoms_visited);

  us("streaming", "first_row_us", first_row_us);
  num("streaming", "rows_streamed", rows_streamed);
  num("streaming", "peak_buffered_rows", peak_buffered_rows);

  num("store", "get_as_of", store.get_as_of);
  num("store", "get_versions", store.get_versions);
  num("store", "scan_as_of", store.scan_as_of);
  num("store", "scan_versions", store.scan_versions);
  num("store", "total_accesses", store.Total());

  num("tiering", "segments_pruned", tiering.segments_pruned);
  num("tiering", "segments_scanned", tiering.segments_scanned);
  num("tiering", "cold_versions", tiering.cold_versions);

  num("version_cache", "atom_hits", cache.atom_hits);
  num("version_cache", "atom_misses", cache.atom_misses);
  num("version_cache", "link_hits", cache.link_hits);
  num("version_cache", "link_misses", cache.link_misses);
  num("version_cache", "versions_pinned", cache.versions_pinned);
  num("version_cache", "link_instances_pinned", cache.link_instances_pinned);
  rate("version_cache", "hit_rate", cache.HitRate());

  num("index", "probes", index.probes);
  num("index", "node_visits", index.node_visits);

  num("buffer_pool", "fetches", pool.fetches);
  num("buffer_pool", "hits", pool.hits);
  num("buffer_pool", "misses", pool.misses);
  num("buffer_pool", "evictions", pool.evictions);
  rate("buffer_pool", "hit_rate", pool.HitRate());

  num("governance", "peak_memory_bytes", peak_memory_bytes);
  num("governance", "memory_overflow_bytes", memory_overflow_bytes);
  us("governance", "admission_wait_us", admission_wait_us);

  for (size_t w = 0; w < worker_us.size(); ++w) {
    us("workers", ("worker_" + std::to_string(w) + "_us").c_str(),
       worker_us[w]);
  }
  return out;
}

}  // namespace tcob
