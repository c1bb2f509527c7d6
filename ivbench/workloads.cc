// The three workloads, their shadow model and the correctness checks.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/database.h"
#include "spans.h"

namespace ivbench {

using ivdb::Database;
using ivdb::DatabaseOptions;
using ivdb::ReadMode;
using ivdb::Row;
using ivdb::Status;
using ivdb::Transaction;
using ivdb::Value;

namespace {

constexpr char kTable[] = "sales";
constexpr char kView[] = "by_grp";
// Preload rows committed per set-up transaction.
constexpr int64_t kPreloadBatch = 256;
// Re-runs of a write transaction that failed with kBusy before it counts as
// failed.
constexpr int kMaxTxnRetries = 100;
// The reader re-aggregates the fact table inside every this-many-th scan's
// snapshot, and makes this many point reads per round.
constexpr uint64_t kTableCheckEvery = 16;
constexpr int kPointReadsPerRound = 16;
// Maintenance schedule (mixed_churn), in ticks of kTickMs: version GC every
// 2 ticks, ghost cleanup every 5, a fuzzy checkpoint every 20.
constexpr int kTickMs = 50;
constexpr int kGcEvery = 2;
constexpr int kCleanEvery = 5;
constexpr int kCheckpointEvery = 20;
// reopen_s is the fastest of the opens of the closed directory made one
// after another until at least kMinReopens have run and kReopenSpanNs has
// passed since the first began.
constexpr int kMinReopens = 5;
constexpr uint64_t kReopenSpanNs = 2000000000;

const WorkloadSpec kWorkloads[] = {
    // name, writers, reader, maintenance, groups, zipf theta, flush delay,
    // update %, live rows/writer, preload/writer, write transactions and
    // scans per round.
    {"insert_solo", 1, false, false, 1024, 0.99, 0, 0, 0, 0, 10000, 1000},
    {"mixed_churn", 3, true, true, 8192, 0.0, 0, 30, 4096, 4096, 0, 0},
    {"device_hot", 4, false, false, 2, 0.0, 1000, 0, 0, 2048, 1800, 5000},
};

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Per-group aggregate of the shadow model.
struct GroupAgg {
  int64_t count = 0;
  int64_t sum = 0;
  bool operator==(const GroupAgg& o) const {
    return count == o.count && sum == o.sum;
  }
};

// The benchmark's own record of every acknowledged operation.
struct Shadow {
  std::vector<GroupAgg> groups;
  int64_t live_rows = 0;

  explicit Shadow(uint64_t n) : groups(n) {}
  void Add(int64_t grp, int64_t amount, int64_t sign) {
    groups[static_cast<size_t>(grp)].count += sign;
    groups[static_cast<size_t>(grp)].sum += sign * amount;
    live_rows += sign;
  }
  void Merge(const Shadow& other) {
    for (size_t g = 0; g < groups.size(); g++) {
      groups[g].count += other.groups[g].count;
      groups[g].sum += other.groups[g].sum;
    }
    live_rows += other.live_rows;
  }
};

struct LiveRow {
  int64_t id;
  int64_t grp;
  int64_t amount;
};

// One closed-loop write client: its inputs, the rows it owns, its share of
// the shadow model and its measurements.
struct Writer {
  Writer(const RunConfig& config, int index)
      : rng(config.seed, static_cast<uint64_t>(index) + 1),
        shadow(config.spec->groups),
        id_base(static_cast<int64_t>(index + 1) << 40) {}

  Rng rng;
  Shadow shadow;
  std::vector<LiveRow> live;
  int64_t id_base;
  int64_t next_seq = 1;
  std::vector<uint64_t> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t last_done_ns = 0;
  uint64_t busy_retries = 0;
  std::string first_error;

  int64_t NextId() { return id_base | next_seq++; }
  int64_t Amount() { return 1 + static_cast<int64_t>(rng.Uniform(1000)); }
};

Row FactRow(int64_t id, int64_t grp, int64_t amount) {
  return {Value::Int64(id), Value::Int64(grp), Value::Int64(amount)};
}

DatabaseOptions Options(const WorkloadSpec& spec, const std::string& dir) {
  DatabaseOptions options;
  options.dir = dir;
  options.sync = ivdb::SyncMode::kNone;
  options.flush_delay_micros = spec.flush_delay_micros;
  return options;
}

// One write transaction of `w`: a single insert, group-moving update or
// delete on a row the writer owns. Applies it to the writer's shadow only
// once Commit has returned OK.
void WriteTxn(Database* db, const WorkloadSpec& spec, const Zipf& zipf,
              Writer* w, SpanLane* lane) {
  enum class Op { kInsert, kUpdate, kDelete };
  const auto live = static_cast<int64_t>(w->live.size());
  Op op = Op::kInsert;
  if (static_cast<int>(w->rng.Uniform(100)) < spec.update_pct && live > 0) {
    op = Op::kUpdate;
  } else if (spec.live_rows_per_writer > 0 &&
             live >= spec.live_rows_per_writer) {
    op = Op::kDelete;
  }

  LiveRow row{};
  size_t index = 0;
  if (op == Op::kInsert) {
    row = {w->NextId(), static_cast<int64_t>(zipf.Sample(&w->rng)),
           w->Amount()};
  } else {
    index = static_cast<size_t>(w->rng.Uniform(w->live.size()));
    row = w->live[index];
    if (op == Op::kUpdate) {
      int64_t grp = static_cast<int64_t>(zipf.Sample(&w->rng));
      while (grp == row.grp && spec.groups > 1) {
        grp = static_cast<int64_t>(zipf.Sample(&w->rng));
      }
      row.grp = grp;
      row.amount = w->Amount();
    }
  }

  // A transaction that fails with kBusy is rolled back and run again at
  // once, whole, up to kMaxTxnRetries times; any other failure is final.
  // (Database::RunTransaction is not used because the engine.begin and
  // engine.commit spans need the individual calls.) Its latency spans every
  // attempt.
  const uint64_t start = NowNs();
  Status s;
  for (int attempt = 0;; attempt++) {
    Transaction* txn = nullptr;
    {
      RootSpan root(lane, SpanKind::kTxn);
      txn = Timed(lane, SpanKind::kBegin, root.id(),
                  [&] { return db->Begin(); });
      switch (op) {
        case Op::kInsert:
          s = Timed(lane, SpanKind::kInsert, root.id(), [&] {
            return db->Insert(txn, kTable,
                              FactRow(row.id, row.grp, row.amount));
          });
          break;
        case Op::kUpdate:
          s = Timed(lane, SpanKind::kUpdate, root.id(), [&] {
            return db->Update(txn, kTable,
                              FactRow(row.id, row.grp, row.amount));
          });
          break;
        case Op::kDelete:
          s = Timed(lane, SpanKind::kDelete, root.id(), [&] {
            return db->Delete(txn, kTable, {Value::Int64(row.id)});
          });
          break;
      }
      if (s.ok()) {
        s = Timed(lane, SpanKind::kCommit, root.id(),
                  [&] { return db->Commit(txn); });
      }
    }
    if (!s.ok() && txn->state() == ivdb::TxnState::kActive) {
      (void)db->Abort(txn);
    }
    db->Forget(txn);
    if (s.ok() || !s.IsBusy() || attempt == kMaxTxnRetries) break;
    w->busy_retries++;
  }
  const uint64_t end = NowNs();
  w->attempted++;
  if (!s.ok()) {
    w->failed++;
    if (w->first_error.empty()) w->first_error = s.ToString();
    return;
  }
  w->latency_ns.push_back(end - start);
  w->last_done_ns = end;
  switch (op) {
    case Op::kInsert:
      w->shadow.Add(row.grp, row.amount, +1);
      w->live.push_back(row);
      break;
    case Op::kUpdate:
      w->shadow.Add(w->live[index].grp, w->live[index].amount, -1);
      w->shadow.Add(row.grp, row.amount, +1);
      w->live[index] = row;
      break;
    case Op::kDelete:
      w->shadow.Add(row.grp, row.amount, -1);
      w->live[index] = w->live.back();
      w->live.pop_back();
      break;
  }
}

// Commits `count` rows owned by `w` in batches (set-up, untimed).
Status Preload(Database* db, const Zipf& zipf, int64_t count, Writer* w) {
  for (int64_t done = 0; done < count;) {
    Transaction* txn = db->Begin();
    std::vector<LiveRow> batch;
    Status s;
    for (; s.ok() && done < count &&
           static_cast<int64_t>(batch.size()) < kPreloadBatch;
         done++) {
      LiveRow row{w->NextId(), static_cast<int64_t>(zipf.Sample(&w->rng)),
                  w->Amount()};
      s = db->Insert(txn, kTable, FactRow(row.id, row.grp, row.amount));
      batch.push_back(row);
    }
    if (s.ok()) s = db->Commit(txn);
    if (!s.ok()) {
      if (txn->state() == ivdb::TxnState::kActive) (void)db->Abort(txn);
      db->Forget(txn);
      return s;
    }
    db->Forget(txn);
    for (const LiveRow& row : batch) {
      w->shadow.Add(row.grp, row.amount, +1);
      w->live.push_back(row);
    }
  }
  return Status::OK();
}

using AggMap = std::map<int64_t, GroupAgg>;

// Group -> (count, sum) of finalized view rows; a visible ghost (count <= 0)
// is reported through `why`.
AggMap AggregateViewRows(const std::vector<Row>& rows, std::string* why) {
  AggMap out;
  for (const Row& row : rows) {
    const int64_t count = row[1].AsInt64();
    if (count <= 0 && why->empty()) {
      *why = "ghost row visible for group " + std::to_string(row[0].AsInt64());
    }
    out[row[0].AsInt64()] = {count, row[2].AsInt64()};
  }
  return out;
}

AggMap AggregateFactRows(const std::vector<Row>& rows) {
  AggMap out;
  for (const Row& row : rows) {
    GroupAgg& agg = out[row[1].AsInt64()];
    agg.count++;
    agg.sum += row[2].AsInt64();
  }
  return out;
}

// Empty when equal, else a description of the first difference.
std::string DiffAggregates(const AggMap& expected, const AggMap& actual,
                           const std::string& what) {
  for (const auto& [grp, agg] : expected) {
    auto it = actual.find(grp);
    if (it == actual.end() || !(it->second == agg)) {
      return what + ": group " + std::to_string(grp) + " expected count " +
             std::to_string(agg.count) + " sum " + std::to_string(agg.sum) +
             (it == actual.end()
                  ? std::string(", absent")
                  : ", got count " + std::to_string(it->second.count) +
                        " sum " + std::to_string(it->second.sum));
    }
  }
  for (const auto& [grp, agg] : actual) {
    if (expected.count(grp) == 0) {
      return what + ": unexpected group " + std::to_string(grp) + " count " +
             std::to_string(agg.count);
    }
  }
  return "";
}

// Compares one snapshot of the view, and the benchmark's own aggregation of
// a snapshot of the fact table, with the shadow model; checks conservation
// (view counts add up to the live fact rows). Empty when all hold.
std::string CheckAgainstShadow(Database* db, const Shadow& shadow) {
  Transaction* txn = db->Begin(ReadMode::kSnapshot);
  auto view = db->ScanView(txn, kView);
  auto table = db->ScanTable(txn, kTable);
  Status s = db->Commit(txn);
  db->Forget(txn);
  if (!view.ok()) return "ScanView failed: " + view.status().ToString();
  if (!table.ok()) return "ScanTable failed: " + table.status().ToString();
  if (!s.ok()) return "snapshot commit failed: " + s.ToString();

  AggMap expected;
  for (size_t g = 0; g < shadow.groups.size(); g++) {
    if (shadow.groups[g].count < 0) return "shadow count below zero";
    if (shadow.groups[g].count > 0) {
      expected[static_cast<int64_t>(g)] = shadow.groups[g];
    }
  }
  std::string why;
  const AggMap from_view = AggregateViewRows(view.value(), &why);
  if (!why.empty()) return why;
  why = DiffAggregates(expected, from_view, "view vs shadow");
  if (!why.empty()) return why;
  why = DiffAggregates(expected, AggregateFactRows(table.value()),
                       "fact table vs shadow");
  if (!why.empty()) return why;
  int64_t view_count = 0;
  for (const auto& [grp, agg] : from_view) view_count += agg.count;
  if (view_count != shadow.live_rows ||
      static_cast<int64_t>(table.value().size()) != shadow.live_rows) {
    return "conservation: view counts " + std::to_string(view_count) +
           ", fact rows " + std::to_string(table.value().size()) +
           ", acknowledged live rows " + std::to_string(shadow.live_rows);
  }
  return "";
}

// Closed-loop snapshot reader of mixed_churn.
struct Reader {
  explicit Reader(const RunConfig& config) : rng(config.seed, 100) {}

  Rng rng;
  std::vector<uint64_t> scan_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t last_done_ns = 0;
  std::string first_error;
  std::string mismatch;
};

void NoteFailure(std::string* first, const std::string& what) {
  if (first->empty()) *first = what;
}

// One whole-view snapshot scan; on every kTableCheckEvery-th call
// (`check_table`) the fact table is re-aggregated inside the same snapshot
// and must equal it.
void ScanOnce(Database* db, Reader* r, SpanLane* lane, uint64_t parent,
              bool check_table) {
  Transaction* txn = Timed(lane, SpanKind::kSnapshotBegin, parent,
                           [&] { return db->Begin(ReadMode::kSnapshot); });
  r->attempted++;
  const uint64_t start = NowNs();
  auto rows = Timed(lane, SpanKind::kScanView, parent,
                    [&] { return db->ScanView(txn, kView); });
  const uint64_t end = NowNs();
  if (!rows.ok()) {
    r->failed++;
    NoteFailure(&r->first_error, "ScanView: " + rows.status().ToString());
  } else {
    r->scan_ns.push_back(end - start);
    for (const Row& row : rows.value()) {
      if (row[1].AsInt64() <= 0) {
        NoteFailure(&r->mismatch, "ghost row visible to ScanView, group " +
                                      std::to_string(row[0].AsInt64()));
      }
    }
    if (check_table) {
      r->attempted++;
      auto table = Timed(lane, SpanKind::kScanTable, parent,
                         [&] { return db->ScanTable(txn, kTable); });
      if (!table.ok()) {
        r->failed++;
        NoteFailure(&r->first_error,
                    "ScanTable: " + table.status().ToString());
      } else {
        std::string why;
        const AggMap from_view = AggregateViewRows(rows.value(), &why);
        NoteFailure(&r->mismatch,
                    DiffAggregates(AggregateFactRows(table.value()), from_view,
                                   "snapshot view vs snapshot fact table"));
      }
    }
  }
  Status s = Timed(lane, SpanKind::kSnapshotCommit, parent,
                   [&] { return db->Commit(txn); });
  if (!s.ok()) NoteFailure(&r->first_error, "reader commit: " + s.ToString());
  db->Forget(txn);
  r->last_done_ns = NowNs();
}

void ReaderLoop(Database* db, const WorkloadSpec& spec,
                const std::atomic<bool>* stop, Reader* r, SpanLane* lane) {
  const Zipf zipf(spec.groups, spec.zipf_theta);
  for (uint64_t round = 1; !stop->load(std::memory_order_relaxed); round++) {
    RootSpan root(lane, SpanKind::kReadRound);
    ScanOnce(db, r, lane, root.id(), round % kTableCheckEvery == 0);
    Transaction* txn = Timed(lane, SpanKind::kSnapshotBegin, root.id(),
                             [&] { return db->Begin(ReadMode::kSnapshot); });
    for (int i = 0; i < kPointReadsPerRound; i++) {
      const auto grp = static_cast<int64_t>(zipf.Sample(&r->rng));
      r->attempted++;
      auto row = Timed(lane, SpanKind::kGetViewRow, root.id(), [&] {
        return db->GetViewRow(txn, kView, {Value::Int64(grp)});
      });
      if (!row.ok()) {
        r->failed++;
        NoteFailure(&r->first_error, "GetViewRow: " + row.status().ToString());
      } else if (row.value().has_value() && (*row.value())[1].AsInt64() <= 0) {
        NoteFailure(&r->mismatch,
                    "ghost row visible to GetViewRow, group " +
                        std::to_string(grp));
      }
    }
    Status s = Timed(lane, SpanKind::kSnapshotCommit, root.id(),
                     [&] { return db->Commit(txn); });
    if (!s.ok()) NoteFailure(&r->first_error, "reader commit: " + s.ToString());
    db->Forget(txn);
  }
}

// The operator's maintenance schedule (see kTickMs).
struct Maintenance {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t versions_collected = 0;
  std::string first_error;

  void Check(const Status& s, const char* what) {
    attempted++;
    if (!s.ok()) {
      failed++;
      NoteFailure(&first_error, std::string(what) + ": " + s.ToString());
    }
  }
};

// Runs every tick that falls strictly inside the window, so each run makes
// the same calls and the last checkpoint starts one second before the
// window ends.
void MaintenanceLoop(Database* db, int window_ms, Maintenance* m,
                     SpanLane* lane) {
  const auto start = std::chrono::steady_clock::now();
  for (int tick = 1; tick * kTickMs < window_ms; tick++) {
    std::this_thread::sleep_until(start +
                                  std::chrono::milliseconds(tick * kTickMs));
    RootSpan root(lane, SpanKind::kMaintTick);
    if (tick % kGcEvery == 0) {
      m->attempted++;
      m->versions_collected += Timed(lane, SpanKind::kGcVersions, root.id(),
                                     [&] { return db->GarbageCollectVersions(); });
    }
    if (tick % kCleanEvery == 0) {
      m->Check(Timed(lane, SpanKind::kCleanGhosts, root.id(),
                     [&] { return db->CleanGhosts(); }),
               "CleanGhosts");
    }
    if (tick % kCheckpointEvery == 0) {
      m->Check(Timed(lane, SpanKind::kCheckpoint, root.id(),
                     [&] { return db->Checkpoint(); }),
               "Checkpoint");
    }
  }
}

// Nearest-rank percentile of an unsorted sample (sorted in place).
template <typename T>
double Percentile(std::vector<T>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::clamp<size_t>(rank, 1, v->size()) - 1]);
}

struct Summary {
  double per_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

// Rate and latency percentiles of the operations that took `latency_ns`
// in `span_ns` of measured time, pooled over all of them.
Summary Summarize(std::vector<uint64_t> latency_ns, uint64_t span_ns) {
  const double span_s =
      static_cast<double>(std::max<uint64_t>(span_ns, 1)) / 1e9;
  return {static_cast<double>(latency_ns.size()) / span_s,
          Percentile(&latency_ns, 0.50), Percentile(&latency_ns, 0.99)};
}

// The write figures of a fixed-round workload from its rounds' summaries.
// The rounds differ by design (chains, memory and the WAL grow through the
// run), so the rate is pooled over all of them, and each latency
// percentile is the mean of the rounds' percentiles: it moves in
// proportion to the share of rounds a busy host slows down, where a pooled
// percentile jumps once that share passes a threshold.
Summary CombineWriteRounds(const std::vector<Summary>& rounds,
                           uint64_t commits, uint64_t span_ns) {
  Summary out;
  out.per_s = static_cast<double>(commits) /
              (static_cast<double>(std::max<uint64_t>(span_ns, 1)) / 1e9);
  for (const Summary& r : rounds) {
    out.p50_ns += r.p50_ns / static_cast<double>(rounds.size());
    out.p99_ns += r.p99_ns / static_cast<double>(rounds.size());
  }
  return out;
}

// The scan figures of a fixed-round workload from its rounds' summaries.
// Every scan round does the same work (after its first scan the cache
// serves every row), but a shared host switches between a fast and a slow
// mode from one round to the next (on a shared 4-vCPU machine, per-round
// insert_solo scan p50s of about 265 and 400 us, with the same cache
// statistics). Each figure is the fast-side quartile of
// the rounds' figures (the rate a quarter of the rounds beat, latencies a
// quarter of the rounds stay under), so it holds while at least a quarter
// of the rounds ran in the fast mode and moves with any change that slows
// every scan.
Summary CombineScanRounds(const std::vector<Summary>& rounds) {
  std::vector<double> per_s, p50, p99;
  for (const Summary& r : rounds) {
    per_s.push_back(r.per_s);
    p50.push_back(r.p50_ns);
    p99.push_back(r.p99_ns);
  }
  return {Percentile(&per_s, 0.75), Percentile(&p50, 0.25),
          Percentile(&p99, 0.25)};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1 << 20);
}

// reopen_s: opens the closed database in `db_dir` again and again (see
// kMinReopens) and returns the fastest open's time in seconds. Recovery
// writes nothing back, so every open repeats the same work, and a busy host
// can only add time to it. The host's speed swings within seconds, so a
// short open is repeated across a span of them; a long one is repeated at
// least kMinReopens times. The last open stays in `*db` for the
// post-recovery checks; on failure `*db` is null and the status is
// returned.
Status TimeReopens(const WorkloadSpec& spec, const std::string& db_dir,
                   std::unique_ptr<Database>* db, double* fastest_s) {
  std::vector<uint64_t> ns;
  const uint64_t first = NowNs();
  for (int i = 0; i < kMinReopens || NowNs() - first < kReopenSpanNs; i++) {
    db->reset();
    const uint64_t start = NowNs();
    auto opened = Database::Open(Options(spec, db_dir));
    ns.push_back(NowNs() - start);
    if (!opened.ok()) return opened.status();
    *db = std::move(opened).value();
  }
  *fastest_s =
      static_cast<double>(*std::min_element(ns.begin(), ns.end())) / 1e9;
  return Status::OK();
}

// Counters and histogram sums the per-layer metrics are computed from,
// looked up by name in the engine's registry.
struct EngineSample {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // sum, count
};

const std::vector<std::string>& SampledCounters() {
  static const std::vector<std::string> names = {
      "ivdb_wal_records_appended_total",
      "ivdb_wal_bytes_appended_total",
      "ivdb_wal_flushes_total",
      "ivdb_lock_acquisitions_total",
      "ivdb_lock_immediate_grants_total",
      "ivdb_lock_wait_micros_total",
      ivdb::obs::WithLabel("ivdb_view_increments_total", "view", kView),
      ivdb::obs::WithLabel("ivdb_view_ghosts_created_total", "view", kView),
      ivdb::obs::WithLabel("ivdb_ghost_reclaimed_total", "view", kView),
      ivdb::obs::WithLabel("ivdb_ghost_candidates_seen_total", "view", kView),
  };
  return names;
}

const std::vector<std::string>& SampledHistograms() {
  static const std::vector<std::string> names = {
      ivdb::obs::WithLabel("ivdb_commit_stage_micros", "stage", "staging_wait"),
      ivdb::obs::WithLabel("ivdb_commit_stage_micros", "stage",
                           "batch_assembly"),
      ivdb::obs::WithLabel("ivdb_commit_stage_micros", "stage", "fsync"),
      ivdb::obs::WithLabel("ivdb_commit_stage_micros", "stage", "flip_wait"),
      "ivdb_ckpt_capture_stall_micros",
  };
  return names;
}

EngineSample SampleEngine(Database* db) {
  EngineSample s;
  ivdb::obs::MetricsRegistry* reg = db->metrics_registry();
  for (const std::string& name : SampledCounters()) {
    s.counters[name] = static_cast<double>(reg->GetCounter(name)->Value());
  }
  for (const std::string& name : SampledHistograms()) {
    const auto snap = reg->GetHistogram(name)->Snap();
    s.histograms[name] = {static_cast<double>(snap.sum),
                          static_cast<double>(snap.count)};
  }
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer figures of the window [before, after] (see README.md).
void FillLayerMetrics(Database* db, const EngineSample& before,
                      const EngineSample& after, double write_commits,
                      PassResult* out) {
  auto delta = [&](const std::string& name) {
    return after.counters.at(name) - before.counters.at(name);
  };
  auto mean = [&](const std::string& name) {
    const auto& [sum1, n1] = after.histograms.at(name);
    const auto& [sum0, n0] = before.histograms.at(name);
    return Ratio(sum1 - sum0, n1 - n0);
  };
  auto per_txn = [&](const std::string& name) {
    return Ratio(delta(name), write_commits);
  };
  const auto stage = [](const char* s) {
    return ivdb::obs::WithLabel("ivdb_commit_stage_micros", "stage", s);
  };
  const auto view_label = [](const char* m) {
    return ivdb::obs::WithLabel(m, "view", kView);
  };
  auto& m = out->layer;
  m["wal.stage_staging_wait_us"] = mean(stage("staging_wait"));
  m["wal.stage_batch_assembly_us"] = mean(stage("batch_assembly"));
  m["wal.stage_fsync_us"] = mean(stage("fsync"));
  m["wal.stage_flip_wait_us"] = mean(stage("flip_wait"));
  m["wal.fsyncs_per_commit"] = per_txn("ivdb_wal_flushes_total");
  m["wal.batch_records_p50"] =
      db->metrics_registry()->GetHistogram("ivdb_wal_batch_records")->Snap().P50();
  m["wal.records_per_txn"] = per_txn("ivdb_wal_records_appended_total");
  m["wal.bytes_per_txn"] = per_txn("ivdb_wal_bytes_appended_total");
  m["lock.acquisitions_per_txn"] = per_txn("ivdb_lock_acquisitions_total");
  m["lock.immediate_grant_ratio"] =
      Ratio(delta("ivdb_lock_immediate_grants_total"),
            delta("ivdb_lock_acquisitions_total"));
  m["lock.wait_us_per_txn"] = per_txn("ivdb_lock_wait_micros_total");
  m["view.increments_per_txn"] =
      per_txn(view_label("ivdb_view_increments_total"));
  m["view.ghosts_created"] = delta(view_label("ivdb_view_ghosts_created_total"));
  m["view.ghosts_reclaimed_ratio"] =
      Ratio(delta(view_label("ivdb_ghost_reclaimed_total")),
            delta(view_label("ivdb_ghost_candidates_seen_total")));
  m["engine.ckpt_capture_stall_us"] = mean("ivdb_ckpt_capture_stall_micros");

  (void)db->DumpMetrics();  // refreshes the point-in-time storage gauges
  m["storage.version_entries_end"] =
      static_cast<double>(db->version_store_entries());
  m["storage.chain_max_end"] = static_cast<double>(
      db->metrics_registry()->GetGauge("ivdb_storage_version_chain_max")->Value());
  const ivdb::ScanCache::Stats cache = db->scan_cache()->GetStats();
  m["storage.scan_cache_hit_ratio"] =
      Ratio(static_cast<double>(cache.hits),
            static_cast<double>(cache.hits + cache.misses));
  m["storage.scan_cache_served_ratio"] =
      Ratio(static_cast<double>(cache.served_scans),
            static_cast<double>(cache.served_scans + cache.full_scans));
}

Status CreateSchema(Database* db) {
  ivdb::Schema schema({{"id", ivdb::TypeId::kInt64},
                       {"grp", ivdb::TypeId::kInt64},
                       {"amount", ivdb::TypeId::kInt64}});
  auto table = db->CreateTable(kTable, schema, {0});
  if (!table.ok()) return table.status();
  ivdb::ViewDefinition def;
  def.name = kView;
  def.kind = ivdb::ViewKind::kAggregate;
  def.fact_table = table.value()->id;
  def.group_by = {1};
  def.aggregates = {{ivdb::AggregateFunction::kSum, 2, "total"}};
  auto view = db->CreateIndexedView(def);
  return view.ok() ? Status::OK() : view.status();
}

void MarkIncorrect(PassResult* out, const std::string& why) {
  if (why.empty()) return;
  if (out->correct) out->why_incorrect = why;
  out->correct = false;
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ull);
  state_ = SplitMix(&x) | 1;
}

uint64_t Rng::Next() {
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545f4914f6cdd1dull;
}

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double total = 0;
  for (uint64_t i = 0; i < n; i++) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

PassResult RunPass(const RunConfig& config, SpanSet* spans,
                   const std::string& db_dir) {
  const WorkloadSpec& spec = *config.spec;
  PassResult out;
  std::filesystem::remove_all(db_dir);
  std::filesystem::create_directories(db_dir);

  // --- Set-up: open, DDL, preload. ---
  // The untraced pass runs first in the process, so its set-up is cold.
  const uint64_t setup_start = NowNs();
  auto opened = Database::Open(Options(spec, db_dir));
  if (!opened.ok()) {
    MarkIncorrect(&out, "open: " + opened.status().ToString());
    return out;
  }
  std::unique_ptr<Database> db = std::move(opened).value();
  const Zipf zipf(spec.groups, spec.zipf_theta);
  std::vector<std::unique_ptr<Writer>> writers;
  for (int i = 0; i < spec.writers; i++) {
    writers.push_back(std::make_unique<Writer>(config, i));
  }
  Status s = CreateSchema(db.get());
  for (auto& w : writers) {
    if (s.ok()) s = Preload(db.get(), zipf, spec.preload_per_writer, w.get());
  }
  if (!s.ok()) {
    MarkIncorrect(&out, "set-up: " + s.ToString());
    return out;
  }
  out.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  // --- The measured window. ---
  std::vector<SpanLane*> writer_lanes(writers.size(), nullptr);
  SpanLane* reader_lane = nullptr;
  SpanLane* maint_lane = nullptr;
  if (spans != nullptr) {
    for (auto& lane : writer_lanes) lane = spans->NewLane();
    reader_lane = spans->NewLane();
    maint_lane = spans->NewLane();
  }
  Reader reader(config);
  Maintenance maint;
  std::atomic<bool> stop{false};
  // Starts one thread per writer, running `txns` transactions each, or
  // until `stop` when `txns` is 0.
  auto start_writers = [&](int64_t txns, std::vector<std::thread>* threads) {
    for (size_t i = 0; i < writers.size(); i++) {
      threads->emplace_back([&, i, txns] {
        for (int64_t n = 1;
             txns > 0 ? n <= txns : !stop.load(std::memory_order_relaxed);
             n++) {
          WriteTxn(db.get(), spec, zipf, writers[i].get(), writer_lanes[i]);
        }
      });
    }
  };
  const EngineSample before = SampleEngine(db.get());
  // Fixed-round workloads: time spent writing, and each round's summaries.
  uint64_t write_span_ns = 0;
  std::vector<Summary> txn_rounds;
  std::vector<Summary> scan_rounds;
  // Closed-loop workloads: the length of the window.
  uint64_t window_ns = 0;
  if (spec.txns_per_round > 0) {
    // One round per second of --seconds: the writers' share of the round's
    // transactions, then back-to-back snapshot scans by one client. The
    // write figures cover commits only, and both kinds of figure are
    // spread over the whole run, so a slow stretch of the host falls on
    // both alike instead of on all of one.
    std::vector<size_t> summarized(writers.size(), 0);
    for (int round = 0; round < config.seconds; round++) {
      const uint64_t round_start = NowNs();
      std::vector<std::thread> threads;
      start_writers(spec.txns_per_round / spec.writers, &threads);
      for (auto& t : threads) t.join();
      const uint64_t writes_done = NowNs();
      const size_t scans_before = reader.scan_ns.size();
      for (int i = 0; i < spec.scans_per_round; i++) {
        RootSpan root(reader_lane, SpanKind::kReadRound);
        ScanOnce(db.get(), &reader, reader_lane, root.id(), false);
      }
      const uint64_t scans_done = NowNs();

      std::vector<uint64_t> round_txn_ns;
      for (size_t i = 0; i < writers.size(); i++) {
        const std::vector<uint64_t>& v = writers[i]->latency_ns;
        round_txn_ns.insert(round_txn_ns.end(), v.begin() + summarized[i],
                            v.end());
        summarized[i] = v.size();
      }
      write_span_ns += writes_done - round_start;
      txn_rounds.push_back(
          Summarize(std::move(round_txn_ns), writes_done - round_start));
      scan_rounds.push_back(Summarize(
          std::vector<uint64_t>(reader.scan_ns.begin() + scans_before,
                                reader.scan_ns.end()),
          scans_done - writes_done));
    }
  } else {
    const uint64_t window_start = NowNs();
    std::vector<std::thread> threads;
    start_writers(0, &threads);
    if (spec.reader) {
      threads.emplace_back(
          [&] { ReaderLoop(db.get(), spec, &stop, &reader, reader_lane); });
    }
    if (spec.maintenance) {
      threads.emplace_back([&] {
        MaintenanceLoop(db.get(), config.seconds * 1000, &maint, maint_lane);
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(config.seconds));
    stop = true;
    for (auto& t : threads) t.join();
    uint64_t window_end = std::max(window_start, reader.last_done_ns);
    for (auto& w : writers) window_end = std::max(window_end, w->last_done_ns);
    window_ns = window_end - window_start;
  }
  // Read before the end-of-run checks, whose own scans allocate.
  out.peak_rss_mb = PeakRssMb();

  Shadow shadow(spec.groups);
  std::vector<uint64_t> txn_ns;
  uint64_t write_commits = 0;
  uint64_t busy_retries = 0;
  for (auto& w : writers) {
    shadow.Merge(w->shadow);
    txn_ns.insert(txn_ns.end(), w->latency_ns.begin(), w->latency_ns.end());
    write_commits += w->latency_ns.size();
    out.attempted += w->attempted;
    out.failed += w->failed;
    busy_retries += w->busy_retries;
    if (!w->first_error.empty()) {
      std::fprintf(stderr, "write failed: %s\n", w->first_error.c_str());
    }
  }
  Summary txn_summary;
  Summary scan_summary;
  if (spec.txns_per_round > 0) {
    txn_summary = CombineWriteRounds(txn_rounds, write_commits, write_span_ns);
    scan_summary = CombineScanRounds(scan_rounds);
  } else {
    // The host's speed swings by tens of percent within seconds; figures
    // pooled over the window average those swings, where a median of
    // per-second figures would pick one speed or the other.
    txn_summary = Summarize(std::move(txn_ns), window_ns);
    scan_summary = Summarize(std::move(reader.scan_ns), window_ns);
  }
  out.commit_tps = txn_summary.per_s;
  out.txn_p50_us = txn_summary.p50_ns / 1e3;
  out.txn_p99_us = txn_summary.p99_ns / 1e3;

  // The operator checkpoints once more at shutdown.
  if (spec.maintenance) {
    RootSpan root(maint_lane, SpanKind::kMaintTick);
    maint.Check(Timed(maint_lane, SpanKind::kCheckpoint, root.id(),
                      [&] { return db->Checkpoint(); }),
                "final Checkpoint");
  }
  out.scan_per_s = scan_summary.per_s;
  out.scan_p50_ms = scan_summary.p50_ns / 1e6;
  out.scan_p99_ms = scan_summary.p99_ns / 1e6;
  out.attempted += reader.attempted + maint.attempted;
  out.failed += reader.failed + maint.failed;
  for (const std::string* e : {&reader.first_error, &maint.first_error}) {
    if (!e->empty()) std::fprintf(stderr, "operation failed: %s\n", e->c_str());
  }
  MarkIncorrect(&out, reader.mismatch);

  FillLayerMetrics(db.get(), before, SampleEngine(db.get()),
                   static_cast<double>(write_commits), &out);
  out.layer["storage.versions_collected"] =
      static_cast<double>(maint.versions_collected);
  out.layer["client.busy_retries"] = static_cast<double>(busy_retries);

  // --- End-of-run checks, close, timed reopen, post-recovery checks. ---
  if (config.corrupt_shadow) {
    for (GroupAgg& g : shadow.groups) {
      if (g.count > 0) {
        g.sum += 1;  // one acknowledged insert recorded one unit too large
        break;
      }
    }
  }
  MarkIncorrect(&out, CheckAgainstShadow(db.get(), shadow));
  db.reset();
  out.disk_mb = DirMb(db_dir);

  s = TimeReopens(spec, db_dir, &db, &out.reopen_s);
  if (!s.ok()) {
    MarkIncorrect(&out, "reopen: " + s.ToString());
  } else {
    const std::string why = CheckAgainstShadow(db.get(), shadow);
    MarkIncorrect(&out, why.empty() ? "" : "after reopen: " + why);
    s = db->VerifyViewConsistency(kView);
    if (!s.ok()) MarkIncorrect(&out, "VerifyViewConsistency: " + s.ToString());
    db.reset();
  }
  std::filesystem::remove_all(db_dir);
  return out;
}

}  // namespace ivbench
