// Shared declarations of the ivdb end-to-end benchmark (see README.md).
#ifndef IVBENCH_BENCH_H_
#define IVBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ivbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Deterministic generator (splitmix64-seeded xorshift64*): the same seed
// and stream always give the same sequence on every platform.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Zipf(theta) over [0, n): group 0 is the hottest. theta = 0 is uniform.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// Make-up of one workload's inputs (README.md "Workloads").
struct WorkloadSpec {
  const char* name;
  int writers;              // closed-loop write clients
  bool reader;              // one concurrent closed-loop snapshot reader
  bool maintenance;         // operator schedule: GC, ghost cleanup, checkpoints
  uint64_t groups;          // distinct view groups
  double zipf_theta;        // skew of the group choice
  uint64_t flush_delay_micros;
  // Each write transaction is one statement: a group-moving update with
  // this percentage, otherwise an insert while the writer owns fewer than
  // live_rows_per_writer rows and a delete once it owns that many (0 =
  // unbounded: insert only).
  int update_pct;
  int64_t live_rows_per_writer;
  int64_t preload_per_writer;  // rows each writer owns before the window
  // > 0: the run is one round per second of --seconds, each this many
  // write transactions shared equally by the writers and then
  // scans_per_round back-to-back whole-view snapshot scans, so every run
  // does the same work (about --seconds long on the reference host);
  // 0: closed loop for --seconds.
  int64_t txns_per_round;
  int scans_per_round;  // 0 with a dedicated reader
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  // Adds 1 to one acknowledged insert's amount in the shadow model after
  // the window, so the correctness checks must fail (negative check).
  bool corrupt_shadow = false;
  // Scratch directory for databases and span files (inside the checkout).
  std::string work_dir;
};

class SpanSet;

// What one pass of a workload measured.
struct PassResult {
  bool correct = true;
  std::string why_incorrect;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double setup_s = 0;
  double commit_tps = 0;
  double txn_p50_us = 0;
  double txn_p99_us = 0;
  double scan_per_s = 0;
  double scan_p50_ms = 0;
  double scan_p99_ms = 0;
  double peak_rss_mb = 0;
  double disk_mb = 0;
  double reopen_s = 0;

  // Per-layer figures read from the engine's metrics registry during the
  // window (traced passes only): name -> value.
  std::map<std::string, double> layer;
};

// Runs one pass: set-up, the measured window (rounds of writes and scans
// for workloads without a reader), end-of-run checks, close, timed reopens
// and post-recovery checks. With `spans` non-null every call into the
// engine is recorded as a span.
PassResult RunPass(const RunConfig& config, SpanSet* spans,
                   const std::string& db_dir);

// Single-thread micro-timings of module functions on the workload's key
// distributions; adds `<layer>.<what>_ns` entries to `out`.
void RunMicroTimings(const RunConfig& config, std::map<std::string, double>* out);

}  // namespace ivbench

#endif  // IVBENCH_BENCH_H_
