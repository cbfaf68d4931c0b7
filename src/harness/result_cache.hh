// On-disk result cache: an append-only CSV journal holding one line per
// completed (workload, design) point — and, since format v4, one line per
// *claim* a work-stealing worker stakes on a point it is about to simulate.
//
// Format v5 adds explicit framing and a checksum. Every record is
//
//   5,L<len>,C<crc8hex>,<payload>
//
// where <payload> runs from the character after the third comma to the end
// of the line (the trailing "end#" sentinel included), <len> is the decimal
// payload byte count, and <crc8hex> is the CRC-32C of the payload bytes
// (Castagnoli, reflected, ~crc32c(~0, payload); 8 lower-case hex digits,
// computed through the dispatched SIMD kernel table — hardware crc32 at the
// AVX2 level, table-driven scalar otherwise). The length catches short writes
// the sentinel alone cannot (a torn tail that happens to end in ",end#"),
// and the CRC catches bit rot that still parses.
//
// Result payload:
//
//   workload,design,config_hash,<19 metric fields>,output_error,
//       wall_seconds[,detail_key,detail_value]...,end#
//
// Claim payload (see docs/OPERATIONS.md for the protocol):
//
//   claim#,workload,design,config_hash,owner,claimed_at,lease_seconds,end#
//
// The "claim#" kind marker occupies the workload slot of a result payload;
// the '#' keeps it disjoint from workload names (identifiers and
// trace:<path> specs), exactly as the "end#" sentinel stays disjoint from
// detail-counter keys. `claimed_at` is wall-clock (epoch) seconds; a claim
// is live until claimed_at + lease_seconds, expired afterwards. Claims are
// advisory scheduler hints: results remain the only source of truth, and a
// duplicate result produced by an over-eager reclaim is harmless
// (deterministic points, duplicate-tolerant loads).
//
// config_hash is the config_fingerprint() of the runner's *base* SimConfig
// (per-workload scaling is deterministic from it), so records produced
// under different configurations — e.g. the avr_report ablation or --set
// variants — can share one cache file: loads filter on the hash.
// Only the current version decodes. Lines of any other version — pre-v5
// records (2, 3, 4) and future formats alike — are foreign: loads skip
// them and fsck counts them. Caches are regenerable memos, so the points
// of an old cache simply re-simulate.
//
// Contract for concurrent *writer processes* (the distributed sweep):
//   - a record is encoded to one string and appended with a single write(2)
//     on an O_APPEND fd, under an exclusive flock(2) on the cache file —
//     writers never interleave partial lines. Lock acquisition and the
//     write are retried with bounded exponential backoff (common/
//     backoff.hh) before the writer degrades to in-memory-only results;
//   - claim staking (try_claim_point) is read-modify-append under the same
//     flock, so two workers can never both win a fresh claim on one point.
//     A CacheScan lets the read part classify only the lines appended since
//     the process's previous claim;
//   - CacheScan is the one reader of cache files: every load, claim check,
//     coverage check and audit is a view of its per-point state and file
//     accounting. Readers take no lock. load_result_cache() *quarantines*
//     corrupt, truncated or checksum-failing lines — each skipped with a
//     one-line stderr reason (capped per load) — skips claims and foreign
//     versions, and tolerates duplicate records (points are deterministic,
//     so duplicates carry identical values; the last one wins). Merging
//     caches is therefore plain concatenation. avr_sweep --fsck audits a
//     cache offline; --fsck --repair rewrites it clean (harness/fsck.hh).
//
// Fault sites on this path (common/fault_inject.hh): "cache.append" inside
// the result-record write loop (kill = torn line), "cache.load" ahead of a
// warm-up read, "claim.stake" before the claim append (kill = die with the
// stake durably on disk), "lock.acquire" inside FileLock.
#pragma once

#include <sys/types.h>

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace avr {

/// Bump whenever results become incomparable (model changes) or the record
/// framing changes; config changes need no bump — records carry a config
/// fingerprint. Loads accept only this version; older lines are foreign.
inline constexpr int kResultCacheVersion = 5;

/// The (workload, design) pair results and claims are keyed by.
using ResultKey = std::pair<std::string, Design>;

/// One work-stealing claim: `owner` (a comma-free token, unique per
/// process) staked the point at wall-clock second `claimed_at` and promises
/// a result within `lease_seconds`. Later claim records for the same key
/// supersede earlier ones (last-writer-wins, serialized by the flock).
struct ClaimRecord {
  std::string workload;
  Design design = Design::kBaseline;
  uint64_t config_hash = 0;
  std::string owner;
  uint64_t claimed_at = 0;      // epoch seconds (wall clock)
  uint64_t lease_seconds = 0;

  /// True once the lease has run out as of wall-clock second `now`: the
  /// owner is presumed dead and the point may be reclaimed.
  bool expired(uint64_t now) const { return now >= claimed_at + lease_seconds; }
};

/// Outcome of one atomic claim attempt (try_claim_point).
enum class ClaimOutcome {
  kClaimed,    // we hold a live claim on the point — simulate it
  kReclaimed,  // same, but we superseded another owner's expired claim
  kDone,       // a result already exists — nothing to do
  kBusy,       // another owner holds a live claim — try again later
  kError,      // the cache file could not be opened/read/written
};

/// What one cache line turned out to be under the shared version/framing
/// policy (the single classifier behind decode_*, the loaders and fsck).
enum class CacheLineKind {
  kBlank,    // empty line
  kResult,   // a valid current-version result — *result is filled
  kClaim,    // a valid current-version claim — *claim is filled
  kForeign,  // another version's line (pre-v5 or future): not ours to
             //   judge, skipped silently
  kCorrupt,  // torn, checksum-failing or unparseable — *reason says why
};

/// Classifies `line`. `result`/`claim` receive the decoded record for
/// kResult/kClaim; `reason` (optional) the one-line quarantine cause for
/// kCorrupt.
CacheLineKind classify_cache_line(const std::string& line,
                                  ExperimentResult* result, ClaimRecord* claim,
                                  std::string* reason = nullptr);

/// One result CSV record (v5 framed), no trailing newline. Doubles are
/// written with max_digits10 precision so decode() round-trips them
/// bit-exactly — re-encoding a decoded record is value-identical.
std::string encode_result_line(const ExperimentResult& r);

/// Equal in every simulated field: wall_seconds, machine-dependent by
/// design, is left out. Encoded-line comparison keeps this in lockstep with
/// the cache schema. `avr_sweep --assert-same` and `avr_sweep --fsck` both
/// judge records by it.
bool same_metrics(ExperimentResult a, ExperimentResult b);

/// Parses one result record. Returns false (leaving `*out` unspecified)
/// for blank, malformed, truncated, checksum-failing, wrong-version — or
/// claim — lines.
bool decode_result_line(const std::string& line, ExperimentResult* out);

/// One claim CSV record (v5 framed), no trailing newline.
std::string encode_claim_line(const ClaimRecord& c);

/// Parses one claim record; false for anything else (results included).
bool decode_claim_line(const std::string& line, ClaimRecord* out);

/// Appends one result record under the locking contract above, riding out
/// transient failures with bounded backoff. Returns false once retries are
/// exhausted (best-effort: the in-memory cache is the source of truth
/// within a process, and the caller warns loudly).
bool append_result_line(const std::string& path, const ExperimentResult& r);

/// One quarantined line: where and why.
struct CorruptLine {
  size_t line_no = 0;  // 1-based
  std::string reason;
};

/// The one reader of cache files. Each line is classified once and folded
/// into per-point state, keyed by (workload, design, config hash), and into
/// file accounting; loads, claims, `--check` and `--fsck` are views of the
/// result. scan(fd) is incremental: it remembers the file's device and inode
/// and the byte offset just past the last complete line, so a later scan
/// classifies only the bytes appended since. sweep::run_grid keeps one per
/// process and cache file for try_claim_point, which holds mutex() for as
/// long as it holds the flock.
class CacheScan {
 public:
  using Key = std::tuple<std::string, Design, uint64_t>;

  /// A point as its lines add up, in file order.
  struct PointState {
    bool done = false;                       // some result exists
    std::optional<ClaimRecord> governing;    // the last claim
    std::optional<ExperimentResult> result;  // the last result
    size_t result_line = 0;                  // their 1-based line numbers
    size_t claim_line = 0;
    size_t duplicate_results = 0;    // earlier results with identical metrics
    size_t conflicting_results = 0;  // earlier results whose metrics differ
    size_t superseded_claims = 0;    // earlier claims
  };

  /// The file as a whole.
  struct FileStats {
    size_t total_lines = 0;
    size_t blank_lines = 0;
    size_t foreign_lines = 0;          // pre-v5 and future versions
    size_t results = 0;                // valid result records
    size_t claims = 0;                 // valid claim records
    std::vector<CorruptLine> corrupt;  // quarantined lines, file order
  };

  /// Brings the scan up to date with the cache file open on `fd`. A
  /// different file (device or inode changed — `--fsck --repair` renames a
  /// rewrite into place), one shorter than the offset, or one whose last
  /// scan ended in an unterminated tail is rescanned from byte 0; otherwise
  /// only the bytes after the offset are read. The unterminated tail (a torn
  /// append, or a whole record whose newline was lost) is folded in like
  /// any line, so the state is exactly what a line-by-line pass over the
  /// whole file concludes. False on a read error (the complete lines folded
  /// so far stay consistent).
  bool scan(int fd);

  /// One silent scan of the whole file at `path`; false with errno set when
  /// it cannot be opened or read.
  bool scan(const std::string& path);

  /// Scans `path` as the loaders read it: transient failures — the
  /// "cache.load" fault site included — are retried with backoff, a missing
  /// file is an empty cache, and corrupt lines are quarantined with a
  /// one-line stderr reason each (capped). False, with a loud warning, once
  /// the retries are exhausted.
  bool load(const std::string& path);

  /// The point's state as of the last scan.
  const PointState& state(const std::string& workload, Design design,
                          uint64_t config_hash) const;

  /// Every point as of the last scan; one-shot readers may move records out.
  const std::map<Key, PointState>& points() const { return points_; }
  std::map<Key, PointState>& points() { return points_; }
  const FileStats& file() const { return file_; }

  std::mutex& mutex() { return mu_; }

 private:
  void fold(const std::string& line);

  std::mutex mu_;
  dev_t dev_ = 0;
  ino_t ino_ = 0;        // 0 until the first scan: no file has inode 0
  uint64_t offset_ = 0;  // just past the last '\n' folded
  bool torn_ = false;    // the last scan folded an unterminated tail
  std::map<Key, PointState> points_;
  FileStats file_;
};

/// Every valid result record, read through CacheScan::load (so a missing or
/// unreadable file yields an empty map). When `config_filter` is set,
/// records whose config_hash differs are skipped — a runner only warms from
/// points simulated under its own configuration. Unfiltered, a (workload,
/// design) recorded under several configs keeps the record on the later
/// line.
std::map<ResultKey, ExperimentResult> load_result_cache(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// The *governing* claim per point — the last claim record in file order
/// for each (workload, design) key — config-filtered like load_result_cache
/// but silent (the result loader owns the quarantine warnings). Points that
/// already have a result are still listed if claimed — callers decide
/// whether a claim is moot (result exists), live, or expired.
std::map<ResultKey, ClaimRecord> load_claims(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// Atomically stakes a claim for (want.workload, want.design) under
/// want.config_hash: holding the cache flock, brings `cursor` up to date
/// with the file (no cursor: scans the whole file) and
///   - returns kDone if a result for the point already exists,
///   - returns kBusy if another owner's claim is live at wall-clock second
///     `now` (a live claim by want.owner itself returns kClaimed without
///     appending a duplicate),
///   - otherwise appends `want` (stamped claimed_at = now) and returns
///     kClaimed — or kReclaimed when it superseded an expired foreign claim.
/// kError means the cache file could not be opened/read/written even after
/// the bounded lock-acquire retries; callers back off and retry, then
/// degrade to uncoordinated simulation (sweep.cc) rather than abort.
ClaimOutcome try_claim_point(const std::string& path, const ClaimRecord& want,
                             uint64_t now, CacheScan* cursor = nullptr);

}  // namespace avr
