// In-memory span tracing of the benchmark's own calls into the engine.
//
// Each client thread owns a SpanLane and appends to it without
// synchronisation. A root span covers one transaction (or one reader round
// or maintenance tick); the spans of the engine calls made inside it are its
// children and carry its id as their transaction id. Spans stay in memory
// until the run ends, when SpanSet writes them out and computes each
// layer's self time: a span's duration minus the time its children cover.
#ifndef IVBENCH_SPANS_H_
#define IVBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace ivbench {

enum class SpanKind : uint8_t {
  kTxn,         // root: one write transaction, Begin to Commit return
  kReadRound,   // root: one reader round (scan txn + point-read txn)
  kMaintTick,   // root: one maintenance tick
  kBegin,
  kInsert,
  kUpdate,
  kDelete,
  kCommit,
  kSnapshotBegin,   // a reader's snapshot transaction
  kSnapshotCommit,
  kScanView,
  kScanTable,
  kGetViewRow,
  kCheckpoint,
  kCleanGhosts,
  kGcVersions,
  kNumKinds,
};

// "client.txn", "engine.begin", ...: the layer a span's self time counts
// against is its name's prefix.
const char* SpanName(SpanKind kind);

struct Span {
  uint64_t id;      // (lane << 40) | (index in lane + 1)
  uint64_t parent;  // 0 for a root span
  uint64_t txn;     // the root span's id; spans of one transaction share it
  uint64_t start_ns;
  uint64_t end_ns;
  SpanKind kind;
};

class SpanLane {
 public:
  explicit SpanLane(uint32_t lane) : lane_(lane) { spans_.reserve(1 << 16); }

  uint64_t OpenRoot(SpanKind kind);
  void CloseRoot(uint64_t id);
  void AddChild(SpanKind kind, uint64_t parent, uint64_t start_ns,
                uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t lane_;
  std::vector<Span> spans_;
};

class SpanSet {
 public:
  // Call before the client threads start; the pointer stays valid for the
  // set's lifetime.
  SpanLane* NewLane();

  struct KindStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::vector<KindStats> SelfTimes() const;  // indexed by SpanKind
  // Mean self time of one span kind in microseconds (0 if none recorded).
  double MeanSelfMicros(SpanKind kind) const;

  // Per-layer self-time table: spans, total self time, mean, share.
  void PrintTable(FILE* out, const std::string& title) const;
  // One span per line (tab-separated, header first); times are relative to
  // `origin_ns`. Returns false on an I/O error.
  bool WriteTsv(const std::string& path, uint64_t origin_ns) const;

 private:
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

// A root span scoped to a block; inert when `lane` is null (untraced pass).
class RootSpan {
 public:
  RootSpan(SpanLane* lane, SpanKind kind)
      : lane_(lane), id_(lane != nullptr ? lane->OpenRoot(kind) : 0) {}
  ~RootSpan() {
    if (lane_ != nullptr) lane_->CloseRoot(id_);
  }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLane* lane_;
  uint64_t id_;
};

// Calls fn() and, when `lane` is non-null, records it as a child span of
// `parent`.
template <typename Fn>
auto Timed(SpanLane* lane, SpanKind kind, uint64_t parent, Fn&& fn)
    -> decltype(fn()) {
  if (lane == nullptr) return fn();
  const uint64_t start = NowNs();
  auto result = fn();
  lane->AddChild(kind, parent, start, NowNs());
  return result;
}

}  // namespace ivbench

#endif  // IVBENCH_SPANS_H_
