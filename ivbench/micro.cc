// Single-thread micro-timings of module functions, on the same key
// distributions the workloads draw from. Each figure is the median over
// kBatches equal batches of the mean time per call.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog/schema.h"
#include "lock/lock_manager.h"
#include "storage/btree.h"
#include "storage/version_store.h"
#include "wal/log_manager.h"

namespace ivbench {

using ivdb::ColumnDelta;
using ivdb::Value;

namespace {

constexpr int kBatches = 5;
// The object ids the engine gives the fact table and the view in a fresh
// database (catalog order of CreateTable, CreateIndexedView).
constexpr uint32_t kViewObject = 2;

double MedianBatchNs(int ops_per_batch, const std::function<void(int)>& op) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; b++) {
    const uint64_t start = NowNs();
    for (int i = 0; i < ops_per_batch; i++) op(b * ops_per_batch + i);
    per_op.push_back(static_cast<double>(NowNs() - start) / ops_per_batch);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[kBatches / 2];
}

std::string GroupKey(int64_t grp) {
  return ivdb::EncodeKeyValues({Value::Int64(grp)});
}

}  // namespace

void RunMicroTimings(const RunConfig& config,
                     std::map<std::string, double>* out) {
  const WorkloadSpec& spec = *config.spec;
  const Zipf zipf(spec.groups, spec.zipf_theta);
  Rng rng(config.seed, 1000);

  // B-tree: insert the fact keys in the order the workload's writers create
  // them (writer w owns ids (w + 1) << 40 | seq), then get them in random
  // order.
  constexpr int kTreeOps = 40000;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 0; i < kTreeOps * kBatches; i++) {
    const int64_t id = (static_cast<int64_t>(i % spec.writers + 1) << 40) |
                       (i / spec.writers + 1);
    const auto grp = static_cast<int64_t>(zipf.Sample(&rng));
    keys.push_back(ivdb::EncodeKeyValues({Value::Int64(id)}));
    values.push_back(ivdb::EncodeRow(
        {Value::Int64(id), Value::Int64(grp), Value::Int64(1)}));
  }
  ivdb::BTree tree;
  (*out)["storage.btree_insert_ns"] = MedianBatchNs(
      kTreeOps, [&](int i) { (void)tree.Insert(keys[i], values[i]); });
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::string value;
  (*out)["storage.btree_get_ns"] = MedianBatchNs(
      kTreeOps, [&](int i) { (void)tree.Get(keys[order[i]], &value); });

  // Group keys in the workload's skew, shared by the remaining timings.
  constexpr int kGroupOps = 20000;
  std::vector<std::string> group_keys;
  for (int i = 0; i < kGroupOps * kBatches; i++) {
    group_keys.push_back(GroupKey(static_cast<int64_t>(zipf.Sample(&rng))));
  }

  // Lock manager: one E lock on a view row, then release.
  ivdb::LockManager locks;
  (*out)["lock.e_lock_release_ns"] = MedianBatchNs(kGroupOps, [&](int i) {
    const auto txn = static_cast<ivdb::TxnId>(i + 1);
    (void)locks.Lock(txn, ivdb::ResourceId::Key(kViewObject, group_keys[i]),
                     ivdb::LockMode::kE);
    locks.ReleaseAll(txn);
  });

  // Version store: one escrow increment (count +1, sum +amount) on a view
  // row, then its commit. No GC runs, as with the engine's default options.
  ivdb::BTree view_tree;
  for (uint64_t g = 0; g < spec.groups; g++) {
    const auto grp = static_cast<int64_t>(g);
    (void)view_tree.Insert(GroupKey(grp),
                           ivdb::EncodeRow({Value::Int64(grp), Value::Int64(0),
                                            Value::Int64(0)}));
  }
  // Fewer calls than the other timings: without GC each call walks its
  // row's whole chain, so the cost grows with the count.
  constexpr int kVersionOps = 4000;
  ivdb::VersionStore versions;
  (*out)["storage.version_increment_commit_ns"] =
      MedianBatchNs(kVersionOps, [&](int i) {
        const auto txn = static_cast<ivdb::TxnId>(i + 1);
        const std::vector<ColumnDelta> deltas = {{1, Value::Int64(1)},
                                                 {2, Value::Int64(1 + i % 1000)}};
        (void)versions.ApplyIncrement(kViewObject, group_keys[i], deltas, txn,
                                      true, &view_tree);
        versions.Commit(txn, txn);
      });

  // WAL: append one increment record and flush it (buffered writes, no
  // simulated device delay), on the default inline group-commit path.
  constexpr int kWalOps = 4000;
  const std::string wal_dir = config.work_dir + "/micro-wal";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  {
    ivdb::LogManagerOptions options;
    options.dir = wal_dir;
    ivdb::LogManager log(options);
    if (log.Open().ok()) {
      (*out)["wal.append_flush_ns"] = MedianBatchNs(kWalOps, [&](int i) {
        ivdb::LogRecord rec;
        rec.txn_id = static_cast<ivdb::TxnId>(i + 1);
        rec.type = ivdb::LogRecordType::kIncrement;
        rec.object_id = kViewObject;
        rec.key = group_keys[i];
        rec.deltas = {{1, Value::Int64(1)}, {2, Value::Int64(1 + i % 1000)}};
        if (log.Append(&rec).ok()) (void)log.Flush(rec.lsn);
      });
    }
  }
  std::filesystem::remove_all(wal_dir);
}

}  // namespace ivbench
