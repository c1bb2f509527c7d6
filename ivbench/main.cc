// ivbench: the ivdb end-to-end benchmark driver (see README.md).
//
//   ivbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>] [--corrupt-shadow]
//
// Prints progress and tables on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics of one untraced pass; with
// --trace 1 an untraced pass and a traced pass run on the same seed and the
// metrics are the per-layer ones, with the tracing overhead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace ivbench {
namespace {

struct MetricValue {
  std::string name;
  std::string unit;
  double value;
};

std::vector<MetricValue> EndToEndMetrics(const PassResult& r) {
  return {
      {"setup_s", "s", r.setup_s},
      {"commit_tps", "1/s", r.commit_tps},
      {"txn_p50_us", "us", r.txn_p50_us},
      {"txn_p99_us", "us", r.txn_p99_us},
      {"scan_per_s", "1/s", r.scan_per_s},
      {"scan_p50_ms", "ms", r.scan_p50_ms},
      {"scan_p99_ms", "ms", r.scan_p99_ms},
      {"peak_rss_mb", "MB", r.peak_rss_mb},
      {"disk_mb", "MB", r.disk_mb},
      {"reopen_s", "s", r.reopen_s},
  };
}

// Per-layer metric names and units, in the order of BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& PerLayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"engine.begin_us", "us"},
      {"engine.insert_us", "us"},
      {"engine.update_us", "us"},
      {"engine.delete_us", "us"},
      {"engine.commit_us", "us"},
      {"wal.stage_staging_wait_us", "us"},
      {"wal.stage_batch_assembly_us", "us"},
      {"wal.stage_fsync_us", "us"},
      {"wal.stage_flip_wait_us", "us"},
      {"wal.fsyncs_per_commit", "count/txn"},
      {"wal.batch_records_p50", "count"},
      {"wal.records_per_txn", "count/txn"},
      {"wal.bytes_per_txn", "B/txn"},
      {"wal.append_flush_ns", "ns"},
      {"lock.acquisitions_per_txn", "count/txn"},
      {"lock.immediate_grant_ratio", "ratio"},
      {"lock.wait_us_per_txn", "us/txn"},
      {"lock.e_lock_release_ns", "ns"},
      {"view.increments_per_txn", "count/txn"},
      {"storage.version_increment_commit_ns", "ns"},
      {"storage.version_entries_end", "count"},
      {"storage.chain_max_end", "count"},
      {"storage.btree_get_ns", "ns"},
      {"storage.btree_insert_ns", "ns"},
      {"storage.scan_cache_hit_ratio", "ratio"},
      {"storage.scan_cache_served_ratio", "ratio"},
      {"engine.scan_view_us", "us"},
      {"engine.get_view_row_us", "us"},
      {"engine.checkpoint_ms", "ms"},
      {"engine.ckpt_capture_stall_us", "us"},
      {"view.ghosts_created", "count"},
      {"view.ghosts_reclaimed_ratio", "ratio"},
      {"engine.clean_ghosts_ms", "ms"},
      {"engine.gc_versions_ms", "ms"},
      {"storage.versions_collected", "count"},
      {"client.busy_retries", "count"},
      {"trace.untraced_commit_tps", "1/s"},
      {"trace.traced_commit_tps", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricValue>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report(const char* label, const PassResult& r) {
  std::fprintf(stderr, "%s: correct=%d attempted=%llu failed=%llu%s%s\n",
               label, r.correct ? 1 : 0,
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               r.correct ? "" : " why=", r.why_incorrect.c_str());
  for (const MetricValue& m : EndToEndMetrics(r)) {
    std::fprintf(stderr, "  %-12s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "ivbench: %s\nusage: ivbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--corrupt-shadow]\nworkloads:",
               problem);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_out";
  std::string workload;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-shadow") {
      config.corrupt_shadow = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--work-dir") {
      config.work_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  config.spec = FindWorkload(workload);
  if (config.spec == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (config.seconds < 1 || config.seconds > 60) {
    return Usage("--seconds must be 1..60");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  const std::string run_name =
      workload + "-seed" + std::to_string(config.seed);
  const std::string db_dir = config.work_dir + "/db-" + run_name;
  std::filesystem::create_directories(config.work_dir);

  const PassResult untraced = RunPass(config, nullptr, db_dir);
  Report(("untraced " + run_name).c_str(), untraced);
  if (trace == 0) {
    PrintResult(untraced.correct, untraced.attempted, untraced.failed,
                EndToEndMetrics(untraced));
    return 0;
  }

  SpanSet spans;
  const uint64_t traced_start = NowNs();
  PassResult traced = RunPass(config, &spans, db_dir);
  Report(("traced " + run_name).c_str(), traced);
  spans.PrintTable(stderr, run_name);
  const std::string span_path = config.work_dir + "/spans-" + run_name + ".tsv";
  if (!spans.WriteTsv(span_path, traced_start)) {
    std::fprintf(stderr, "could not write %s\n", span_path.c_str());
  }

  std::map<std::string, double> layer = traced.layer;
  RunMicroTimings(config, &layer);
  const std::pair<const char*, SpanKind> span_means_us[] = {
      {"engine.begin_us", SpanKind::kBegin},
      {"engine.insert_us", SpanKind::kInsert},
      {"engine.update_us", SpanKind::kUpdate},
      {"engine.delete_us", SpanKind::kDelete},
      {"engine.commit_us", SpanKind::kCommit},
      {"engine.scan_view_us", SpanKind::kScanView},
      {"engine.get_view_row_us", SpanKind::kGetViewRow},
  };
  for (const auto& [name, kind] : span_means_us) {
    layer[name] = spans.MeanSelfMicros(kind);
  }
  const std::pair<const char*, SpanKind> span_means_ms[] = {
      {"engine.checkpoint_ms", SpanKind::kCheckpoint},
      {"engine.clean_ghosts_ms", SpanKind::kCleanGhosts},
      {"engine.gc_versions_ms", SpanKind::kGcVersions},
  };
  for (const auto& [name, kind] : span_means_ms) {
    layer[name] = spans.MeanSelfMicros(kind) / 1e3;
  }
  layer["trace.untraced_commit_tps"] = untraced.commit_tps;
  layer["trace.traced_commit_tps"] = traced.commit_tps;
  layer["trace.overhead_pct"] =
      untraced.commit_tps > 0
          ? 100.0 * (1.0 - traced.commit_tps / untraced.commit_tps)
          : 0;

  std::vector<MetricValue> metrics;
  for (const auto& [name, unit] : PerLayerUnits()) {
    auto it = layer.find(name);
    if (it == layer.end()) {
      std::fprintf(stderr, "per-layer metric %s was not measured\n",
                   name.c_str());
    }
    metrics.push_back({name, unit, it == layer.end() ? 0 : it->second});
  }
  std::fprintf(stderr, "\nper-layer metrics: %s\n", run_name.c_str());
  for (const MetricValue& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintResult(untraced.correct && traced.correct,
              untraced.attempted + traced.attempted,
              untraced.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ivbench

int main(int argc, char** argv) { return ivbench::Main(argc, argv); }
