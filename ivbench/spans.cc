#include "spans.h"

#include <cinttypes>

namespace ivbench {

namespace {

constexpr uint64_t kIndexBits = 40;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "client.txn";
    case SpanKind::kReadRound:
      return "client.read_round";
    case SpanKind::kMaintTick:
      return "client.maint_tick";
    case SpanKind::kBegin:
      return "engine.begin";
    case SpanKind::kInsert:
      return "engine.insert";
    case SpanKind::kUpdate:
      return "engine.update";
    case SpanKind::kDelete:
      return "engine.delete";
    case SpanKind::kCommit:
      return "engine.commit";
    case SpanKind::kSnapshotBegin:
      return "engine.begin_snapshot";
    case SpanKind::kSnapshotCommit:
      return "engine.commit_snapshot";
    case SpanKind::kScanView:
      return "engine.scan_view";
    case SpanKind::kScanTable:
      return "engine.scan_table";
    case SpanKind::kGetViewRow:
      return "engine.get_view_row";
    case SpanKind::kCheckpoint:
      return "engine.checkpoint";
    case SpanKind::kCleanGhosts:
      return "engine.clean_ghosts";
    case SpanKind::kGcVersions:
      return "engine.gc_versions";
    case SpanKind::kNumKinds:
      break;
  }
  return "?";
}

uint64_t SpanLane::OpenRoot(SpanKind kind) {
  const uint64_t id = (lane_ << kIndexBits) | (spans_.size() + 1);
  spans_.push_back(Span{id, 0, id, NowNs(), 0, kind});
  return id;
}

void SpanLane::CloseRoot(uint64_t id) {
  spans_[(id & kIndexMask) - 1].end_ns = NowNs();
}

void SpanLane::AddChild(SpanKind kind, uint64_t parent, uint64_t start_ns,
                        uint64_t end_ns) {
  const uint64_t id = (lane_ << kIndexBits) | (spans_.size() + 1);
  spans_.push_back(Span{id, parent, parent, start_ns, end_ns, kind});
}

SpanLane* SpanSet::NewLane() {
  lanes_.push_back(
      std::make_unique<SpanLane>(static_cast<uint32_t>(lanes_.size() + 1)));
  return lanes_.back().get();
}

std::vector<SpanSet::KindStats> SpanSet::SelfTimes() const {
  std::vector<KindStats> stats(static_cast<size_t>(SpanKind::kNumKinds));
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    // Children always follow their parent within a lane, and parents are
    // on the same lane, so one pass accumulates each parent's child time.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent != 0) {
        child_ns[(span.parent & kIndexMask) - 1] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& span = spans[i];
      if (span.end_ns < span.start_ns) continue;  // root never closed
      const uint64_t duration = span.end_ns - span.start_ns;
      KindStats& s = stats[static_cast<size_t>(span.kind)];
      s.count++;
      s.total_ns += duration;
      s.self_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
    }
  }
  return stats;
}

double SpanSet::MeanSelfMicros(SpanKind kind) const {
  const KindStats s = SelfTimes()[static_cast<size_t>(kind)];
  return s.count > 0 ? s.self_ns / 1e3 / s.count : 0;
}

void SpanSet::PrintTable(FILE* out, const std::string& title) const {
  const std::vector<KindStats> stats = SelfTimes();
  uint64_t all_self = 0;
  for (const KindStats& s : stats) all_self += s.self_ns;
  std::fprintf(out, "\nper-layer self time: %s\n", title.c_str());
  std::fprintf(out, "  %-22s %10s %14s %12s %8s\n", "span", "count",
               "self total ms", "self mean us", "share");
  for (size_t k = 0; k < stats.size(); k++) {
    const KindStats& s = stats[k];
    if (s.count == 0) continue;
    std::fprintf(out, "  %-22s %10" PRIu64 " %14.3f %12.3f %7.2f%%\n",
                 SpanName(static_cast<SpanKind>(k)), s.count, s.self_ns / 1e6,
                 s.self_ns / 1e3 / s.count,
                 all_self > 0 ? 100.0 * s.self_ns / all_self : 0.0);
  }
}

bool SpanSet::WriteTsv(const std::string& path, uint64_t origin_ns) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\ttxn\tname\tstart_ns\tend_ns\n");
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) {
      std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRIu64
                      "\t%" PRIu64 "\n",
                   s.id, s.parent, s.txn, SpanName(s.kind),
                   s.start_ns - origin_ns, s.end_ns - origin_ns);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace ivbench
