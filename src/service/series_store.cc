#include "service/series_store.h"

#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "tsdb/series_codec.h"
#include "util/log.h"

namespace ppm::service {

namespace fs = std::filesystem;

namespace {

bool HasSuffix(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Result<tsdb::TimeSeries> LoadSeriesFile(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty series path");
  if (HasSuffix(path, ".txt")) return tsdb::ReadTextSeries(path);
  return tsdb::ReadBinarySeries(path);
}

Status SaveSeriesFile(const tsdb::TimeSeries& series, const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty series path");
  if (HasSuffix(path, ".txt")) return tsdb::WriteTextSeries(series, path);
  return tsdb::WriteBinarySeries(series, path);
}

Result<std::unique_ptr<SeriesStore>> SeriesStore::Open(const std::string& root,
                                                       const Options& options) {
  std::unique_ptr<SeriesStore> store(new SeriesStore(root, options));
  PPM_ASSIGN_OR_RETURN(store->db_, tsdb::Database::Open(root));
  return store;
}

void SeriesStore::SetMutationListener(MutationListener listener) {
  listener_ = std::move(listener);
}

std::string SeriesStore::WalPathFor(const std::string& name) const {
  return root_ + "/" + name + ".wal";
}

std::shared_ptr<SeriesStore::Entry> SeriesStore::FindEntry(
    const std::string& name, bool create) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) return it->second;
  if (!create) return nullptr;
  auto entry = std::make_shared<Entry>();
  entries_.emplace(name, entry);
  return entry;
}

Status SeriesStore::EnsureLoaded(const std::string& name, Entry* entry) const {
  if (entry->dropped) return Status::NotFound("dropped series: " + name);
  if (entry->loaded) return Status::OK();
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    PPM_ASSIGN_OR_RETURN(entry->series, db_->Get(name));
  }
  // Replay the tail WAL (instants appended since the payload was last
  // rewritten). Record seq == instant index, so replay starts at the
  // payload's length; a stale tail (fully covered by the payload after a
  // crash between compaction steps) is skipped and later recreated.
  const Result<tsdb::WalReplayInfo> replay = tsdb::ReplayWalTail(
      WalPathFor(name), entry->series.length(),
      [entry, &name](uint64_t seq, const tsdb::FeatureSet& instant) {
        if (seq != entry->series.length()) {
          return Status::Corruption(
              "series tail WAL out of step with payload for '" + name +
              "': record seq " + std::to_string(seq) + ", series length " +
              std::to_string(entry->series.length()));
        }
        entry->series.Append(instant);
        return Status::OK();
      });
  if (replay.ok()) {
    if (replay->records_delivered > 0) {
      entry->wal_reuse = true;
      entry->wal_next_seq = replay->next_seq;
      entry->wal_valid_bytes = replay->valid_bytes;
      obs::MetricsRegistry::Global()
          .GetCounter("ppm.server.store.tail_replays")
          .Inc(replay->records_delivered);
    }
  } else if (replay.status().code() != StatusCode::kNotFound) {
    return replay.status();
  }
  entry->loaded = true;
  return Status::OK();
}

Status SeriesStore::EnsureWal(const std::string& name, Entry* entry) {
  if (entry->wal != nullptr) return Status::OK();
  if (entry->wal_reuse) {
    PPM_ASSIGN_OR_RETURN(
        entry->wal,
        tsdb::WalWriter::Open(WalPathFor(name), options_.wal_fsync,
                              entry->wal_next_seq, entry->wal_valid_bytes));
  } else {
    PPM_ASSIGN_OR_RETURN(
        entry->wal,
        tsdb::WalWriter::CreateAt(WalPathFor(name), options_.wal_fsync,
                                  entry->series.length()));
  }
  return Status::OK();
}

Status SeriesStore::CompactLocked(const std::string& name, Entry* entry) {
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    PPM_RETURN_IF_ERROR(db_->Put(name, entry->series));
  }
  // The payload now covers everything; start an empty tail after it. A
  // crash before `CreateAt` leaves the old tail fully covered by the new
  // payload, which replay skips (`start_seq` == payload length).
  entry->wal.reset();
  entry->wal_reuse = false;
  PPM_ASSIGN_OR_RETURN(
      entry->wal, tsdb::WalWriter::CreateAt(WalPathFor(name),
                                            options_.wal_fsync,
                                            entry->series.length()));
  entry->poisoned = false;
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.server.store.compactions")
      .Inc();
  return Status::OK();
}

Status SeriesStore::Put(const std::string& name,
                        const tsdb::TimeSeries& series) {
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  // Retention applies to puts too: only the newest `cap` instants are kept.
  tsdb::TimeSeries clamped;
  const tsdb::TimeSeries* stored = &series;
  const uint64_t cap = options_.max_instants_per_series;
  if (cap > 0 && series.length() > cap) {
    clamped = series;
    clamped.DropFront(series.length() - cap);
    stored = &clamped;
    obs::MetricsRegistry::Global()
        .GetCounter("ppm.server.store.truncated_instants")
        .Inc(series.length() - cap);
  }
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    PPM_RETURN_IF_ERROR(db_->Put(name, *stored));
  }
  entry->series = *stored;
  entry->loaded = true;
  entry->dropped = false;
  entry->wal.reset();
  entry->wal_reuse = false;
  PPM_ASSIGN_OR_RETURN(
      entry->wal, tsdb::WalWriter::CreateAt(WalPathFor(name),
                                            options_.wal_fsync,
                                            entry->series.length()));
  entry->poisoned = false;
  ++entry->version;
  obs::MetricsRegistry::Global().GetCounter("ppm.server.store.puts").Inc();
  if (listener_) {
    Mutation mutation;
    mutation.kind = Mutation::Kind::kPut;
    mutation.name = name;
    mutation.version = entry->version;
    mutation.length = entry->series.length();
    listener_(mutation);
  }
  return Status::OK();
}

Status SeriesStore::Append(
    const std::string& name,
    const std::vector<std::vector<std::string>>& instants) {
  if (instants.empty()) return Status::OK();
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  PPM_RETURN_IF_ERROR(EnsureLoaded(name, entry.get()));
  if (entry->poisoned) {
    return Status::Internal("series '" + name +
                            "' refused writes after an earlier WAL failure");
  }
  PPM_RETURN_IF_ERROR(EnsureWal(name, entry.get()));

  // Interning may grow the symbol table; when it does, the payload must be
  // rewritten before the tail references the new ids (the tail WAL stores
  // ids only -- names live in the payload's symbol table).
  const uint32_t known_symbols = entry->series.symbols().size();
  std::vector<tsdb::FeatureSet> delta;
  delta.reserve(instants.size());
  for (const std::vector<std::string>& features : instants) {
    tsdb::FeatureSet instant;
    for (const std::string& feature : features) {
      instant.Set(entry->series.symbols().Intern(feature));
    }
    delta.push_back(std::move(instant));
  }
  const bool new_symbols = entry->series.symbols().size() > known_symbols;

  for (const tsdb::FeatureSet& instant : delta) {
    entry->series.Append(instant);
  }
  if (new_symbols) {
    PPM_RETURN_IF_ERROR(CompactLocked(name, entry.get()));
  } else {
    // One write and one fsync for the whole request (group commit); the
    // ack below follows the fsync.
    const Status appended = entry->wal->AppendBatch(delta);
    if (!appended.ok()) {
      // Memory is ahead of disk; refuse further writes until a
      // compaction reconciles them (reads still serve memory).
      entry->poisoned = true;
      return appended;
    }
  }
  ++entry->version;
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.server.store.appended_instants")
      .Inc(delta.size());
  if (listener_) {
    Mutation mutation;
    mutation.kind = Mutation::Kind::kAppend;
    mutation.name = name;
    mutation.version = entry->version;
    mutation.length = entry->series.length();
    mutation.delta = &delta;
    listener_(mutation);
  }

  // Retention: an append that overflowed the cap drops the oldest instants
  // and compacts -- the truncated payload becomes the new baseline and the
  // tail WAL restarts after it, so recovery replays nothing stale. Its own
  // version bump + mutation keep snapshot consumers coherent.
  const uint64_t cap = options_.max_instants_per_series;
  if (cap > 0 && entry->series.length() > cap) {
    const uint64_t overflow = entry->series.length() - cap;
    entry->series.DropFront(overflow);
    PPM_RETURN_IF_ERROR(CompactLocked(name, entry.get()));
    ++entry->version;
    obs::MetricsRegistry::Global()
        .GetCounter("ppm.server.store.truncated_instants")
        .Inc(overflow);
    if (listener_) {
      Mutation mutation;
      mutation.kind = Mutation::Kind::kTruncate;
      mutation.name = name;
      mutation.version = entry->version;
      mutation.length = entry->series.length();
      listener_(mutation);
    }
  }
  return Status::OK();
}

Result<SeriesSnapshot> SeriesStore::Snapshot(const std::string& name) const {
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  PPM_RETURN_IF_ERROR(EnsureLoaded(name, entry.get()));
  SeriesSnapshot snapshot;
  snapshot.series = entry->series;
  snapshot.version = entry->version;
  return snapshot;
}

Result<std::pair<uint64_t, uint64_t>> SeriesStore::VersionAndLength(
    const std::string& name) const {
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  PPM_RETURN_IF_ERROR(EnsureLoaded(name, entry.get()));
  return std::make_pair(entry->version, entry->series.length());
}

Status SeriesStore::Drop(const std::string& name) {
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->dropped) return Status::NotFound("dropped series: " + name);
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    PPM_RETURN_IF_ERROR(db_->Drop(name));
  }
  entry->wal.reset();
  std::error_code ec;
  fs::remove(WalPathFor(name), ec);  // Best effort; replay skips stale tails.
  entry->series = tsdb::TimeSeries();
  entry->loaded = true;
  entry->dropped = true;
  entry->wal_reuse = false;
  ++entry->version;
  if (listener_) {
    Mutation mutation;
    mutation.kind = Mutation::Kind::kDrop;
    mutation.name = name;
    mutation.version = entry->version;
    mutation.length = 0;
    listener_(mutation);
  }
  return Status::OK();
}

Status SeriesStore::Compact(const std::string& name) {
  std::shared_ptr<Entry> entry = FindEntry(name, /*create=*/true);
  std::lock_guard<std::mutex> lock(entry->mu);
  PPM_RETURN_IF_ERROR(EnsureLoaded(name, entry.get()));
  return CompactLocked(name, entry.get());
}

std::vector<std::string> SeriesStore::List() const {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  return db_->List();
}

bool SeriesStore::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  return db_->Contains(name);
}

}  // namespace ppm::service
