#ifndef PPM_DIST_SHARD_RESULT_H_
#define PPM_DIST_SHARD_RESULT_H_

// The per-shard result file (`shard-<id>.result`): the *raw* sufficient
// statistics of one shard's segment range, CRC32C-framed and written
// atomically by the worker.
//
// Exactness hinges on what "raw" means here. A shard cannot compute its
// own `F_1` -- the frequency threshold depends on the *global* segment
// count `m`, which no single shard knows. So workers record, per shard:
//
//   * the exact count of every letter `(position, feature)` seen in the
//     range (no threshold applied), and
//   * the multiset of *unprojected* per-segment letter patterns -- for
//     each segment, the full set of letters present, keyed canonically.
//
// Both are additive over disjoint segment ranges. The merger sums them,
// derives the global `F_1` with the real `m`, projects each raw segment
// pattern onto the global letter space, and reuses the one-shot
// derivation -- making the merged pattern set field-identical to a
// single-process mine by construction (docs/DISTRIBUTED.md).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "dist/shard_plan.h"
#include "util/status.h"

namespace ppm::dist {

/// File magic of shard result files.
inline constexpr char kResultMagic[9] = "PPMDRS1\n";
inline constexpr uint32_t kResultVersion = 1;

/// Exact occurrence count of one letter over the shard's segments.
struct LetterCount {
  Letter letter;
  uint64_t count = 0;
};

/// One distinct raw segment pattern: the letters present in a segment
/// (canonically sorted, no threshold or projection applied) and how many
/// of the shard's segments showed exactly that set.
struct RawHit {
  std::vector<Letter> letters;
  uint64_t count = 0;
};

struct ShardResult {
  /// `ShardPlan::fingerprint` of the plan this shard was mined under.
  uint32_t plan_fingerprint = 0;
  uint32_t shard_id = 0;
  uint32_t input_index = 0;
  uint64_t segment_begin = 0;
  uint64_t segment_end = 0;
  /// The input's full symbol table in id order, so letters are
  /// interpretable without reloading the series; the merger
  /// cross-validates that all shards of an input agree on it.
  std::vector<std::string> symbols;
  /// Sorted canonically by letter; every count >= 1.
  std::vector<LetterCount> letter_counts;
  /// Sorted canonically by letter list; every count >= 1. Segments with
  /// no letters at all contribute to no entry (their count is implied by
  /// the range size).
  std::vector<RawHit> hits;

  uint64_t num_segments() const { return segment_end - segment_begin; }
};

std::string EncodeShardResultBody(const ShardResult& result);
Result<ShardResult> DecodeShardResultBody(std::string_view body);

/// Atomic, fsync'd write of the framed result file.
Status WriteShardResultFile(const ShardResult& result,
                            const std::string& path);

/// Reads, CRC-verifies, and decodes one result file (`kNotFound` /
/// `kCorruption`). Structural validation against a plan is separate --
/// see `ValidateShardResult`.
Result<ShardResult> ReadShardResultFile(const std::string& path);

/// Cross-validates `result` against the plan's shard `shard_id`:
/// fingerprint binding, shard identity, segment-range bookkeeping, and
/// canonical ordering of the recorded counts. `kCorruption` on any
/// mismatch -- the coordinator treats such a file as a failed shard and
/// the merger refuses to merge it.
Status ValidateShardResult(const ShardPlan& plan, uint32_t shard_id,
                           const ShardResult& result);

}  // namespace ppm::dist

#endif  // PPM_DIST_SHARD_RESULT_H_
