#include "parallel/segment_scan.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/fault_metrics.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/shard.h"

namespace ppm::parallel {

namespace {

/// Instants walked between interrupt polls; also the streaming read block.
constexpr uint64_t kBlockInstants = 4096;

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// One chunk's progress through the segments it owns: for period `r`, the
/// segments whose first instant lies in the chunk's instant range.
class Cursor {
 public:
  Cursor(const std::vector<uint32_t>& periods,
         const std::vector<uint64_t>& num_segments, uint32_t chunk,
         uint64_t begin, uint64_t end)
      : periods_(periods), chunk_(chunk) {
    for (size_t r = 0; r < periods.size(); ++r) {
      next_.push_back(CeilDiv(begin, periods[r]));
      last_.push_back(std::min(CeilDiv(end, periods[r]), num_segments[r]));
    }
  }

  /// Hands `kernel` every owned segment of period `r` that ends at or
  /// before instant `hi`; instant `t` lives at `instants[t - base]`.
  void Advance(uint32_t r, uint64_t hi, const tsdb::FeatureSet* instants,
               uint64_t base, const SegmentScan::Kernel& kernel) {
    const uint64_t p = periods_[r];
    uint64_t s = next_[r];
    for (; s < last_[r] && (s + 1) * p <= hi; ++s) {
      kernel(Segment{chunk_, r, instants + (s * p - base)});
    }
    next_[r] = s;
  }

 private:
  const std::vector<uint32_t>& periods_;
  const uint32_t chunk_;
  std::vector<uint64_t> next_;
  std::vector<uint64_t> last_;
};

}  // namespace

Result<std::vector<tsdb::FeatureSet>> MaterializePrefix(
    tsdb::SeriesSource& source, uint64_t limit) {
  const obs::TraceSpan span =
      obs::Tracer::Global().StartSpan("materialize");
  std::vector<tsdb::FeatureSet> instants;
  instants.reserve(limit);
  PPM_RETURN_IF_ERROR(source.StartScan());
  tsdb::FeatureSet instant;
  while (instants.size() < limit && source.Next(&instant)) {
    instants.push_back(instant);
  }
  PPM_RETURN_IF_ERROR(source.status());
  if (instants.size() < limit) {
    return Status::Internal("source ended before its declared length");
  }
  return instants;
}

SegmentScan::SegmentScan(tsdb::SeriesSource& source,
                         std::vector<uint32_t> periods, uint32_t num_threads,
                         const Interrupt& interrupt)
    : source_(source), periods_(std::move(periods)), interrupt_(interrupt) {
  period_low_ = *std::min_element(periods_.begin(), periods_.end());
  period_high_ = *std::max_element(periods_.begin(), periods_.end());
  for (const uint32_t period : periods_) {
    const uint64_t segments = source.length() / period;
    num_segments_.push_back(segments);
    total_segments_ += segments;
    extent_ = std::max(extent_, segments * period);
  }
  const uint32_t threads = ResolveThreadCount(num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads);
    obs::MetricsRegistry::Global().GetGauge("ppm.parallel.threads")
        .Set(pool_->size());
    chunks_ = ThreadPool::SplitRange(CeilDiv(extent_, period_low_),
                                     pool_->size());
  } else {
    chunks_.push_back(ThreadPool::Chunk{0, 0, CeilDiv(extent_, period_low_)});
  }
}

Status SegmentScan::Check(uint32_t chunk, const Poll& poll) const {
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt_);
  return poll ? poll(chunk) : Status::OK();
}

Status SegmentScan::Run(const std::string& phase, const Kernel& kernel,
                        const Merge& merge, const Poll& poll) {
  if (pool_ != nullptr && instants_.empty()) {
    PPM_ASSIGN_OR_RETURN(instants_, MaterializePrefix(source_, extent_));
  }
  const obs::TraceSpan span = obs::Tracer::Global().StartSpan(phase);
  PPM_RETURN_IF_ERROR(pool_ == nullptr ? Stream(kernel, poll)
                                       : Shard(phase, kernel, merge, poll));
  RecordDbPass(phase, extent_, total_segments_);
  return Status::OK();
}

Status SegmentScan::Stream(const Kernel& kernel, const Poll& poll) {
  PPM_RETURN_IF_ERROR(source_.StartScan());
  Cursor cursor(periods_, num_segments_, 0, 0, extent_);
  // The last `keep` instants stay in the window across blocks: an
  // unfinished segment never reaches further back than that.
  const uint64_t keep = period_high_ - 1;
  const uint64_t block = std::max<uint64_t>(kBlockInstants, period_high_);
  std::vector<tsdb::FeatureSet> window(keep + block);
  uint64_t base = 0;  // Series index of `window[0]`.
  uint64_t held = 0;  // Instants currently in the window.
  for (uint64_t read = 0;;) {
    PPM_RETURN_IF_ERROR(Check(0, poll));
    if (read == extent_) break;
    if (held > keep) {
      // Swap rather than copy so the window's feature sets keep their
      // buffers for the next block.
      for (uint64_t i = 0; i < keep; ++i) {
        std::swap(window[i], window[held - keep + i]);
      }
      base += held - keep;
      held = keep;
    }
    const uint64_t want = std::min(block, extent_ - read);
    uint64_t got = 0;
    while (got < want && source_.Next(&window[held + got])) ++got;
    PPM_RETURN_IF_ERROR(source_.status());
    if (got < want) {
      return Status::Internal("source ended before its declared length");
    }
    held += got;
    read += got;
    for (uint32_t r = 0; r < periods_.size(); ++r) {
      cursor.Advance(r, read, window.data(), base, kernel);
    }
  }
  return Status::OK();
}

Status SegmentScan::Shard(const std::string& phase, const Kernel& kernel,
                          const Merge& merge, const Poll& poll) {
  // Workers cannot return a `Status`: a failed poll parks its status in the
  // chunk's slot and stops the other chunks at their next poll.
  std::vector<Status> failures(chunks_.size());
  std::atomic<bool> stop{false};
  ShardTimings timings = ShardedRun(
      pool_.get(), chunks_.back().end, phase,
      [&](const ThreadPool::Chunk& chunk) {
        const uint64_t begin = chunk.begin * period_low_;
        const uint64_t end = std::min(chunk.end * period_low_, extent_);
        Cursor cursor(periods_, num_segments_, chunk.index, begin, end);
        const auto keep_going = [&] {
          Status status = Check(chunk.index, poll);
          if (status.ok() && !stop.load(std::memory_order_relaxed)) {
            return true;
          }
          failures[chunk.index] = std::move(status);
          stop.store(true, std::memory_order_relaxed);
          return false;
        };
        // Period by period, so each period's private state stays hot for
        // the whole range.
        for (uint32_t r = 0; r < periods_.size(); ++r) {
          for (uint64_t hi = begin; hi < end;) {
            if (!keep_going()) return;
            hi = std::min(hi + kBlockInstants, end);
            cursor.Advance(r, hi, instants_.data(), 0, kernel);
          }
          // Segments starting in this chunk may end in the next one.
          cursor.Advance(r, extent_, instants_.data(), 0, kernel);
        }
      },
      interrupt_);
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt_);
  for (Status& failure : failures) PPM_RETURN_IF_ERROR(std::move(failure));

  obs::TraceSpan merge_span =
      obs::Tracer::Global().StartSpan(phase + ".merge");
  if (merge) {
    for (uint32_t chunk = 1; chunk < chunks_.size(); ++chunk) merge(chunk);
  }
  merge_span.End();
  timings.merge_seconds = merge_span.ElapsedSeconds();
  RecordShardMetrics(timings);
  return Status::OK();
}

Status SegmentScan::RunTasks(uint32_t n, const Task& task) {
  if (pool_ == nullptr) {
    for (uint32_t i = 0; i < n; ++i) PPM_RETURN_IF_ERROR(task(source_, i));
    return Status::OK();
  }
  PPM_ASSIGN_OR_RETURN(std::vector<tsdb::FeatureSet> instants,
                       MaterializePrefix(source_, extent_));
  tsdb::TimeSeries series;
  for (tsdb::FeatureSet& instant : instants) series.Append(std::move(instant));

  std::vector<Status> statuses(n);
  for (uint32_t i = 0; i < n; ++i) {
    pool_->Submit([&series, &task, &statuses, i] {
      tsdb::InMemorySeriesSource task_source(&series);
      statuses[i] = task(task_source, i);
    });
  }
  pool_->Wait();
  for (Status& status : statuses) PPM_RETURN_IF_ERROR(std::move(status));
  return Status::OK();
}

}  // namespace ppm::parallel
