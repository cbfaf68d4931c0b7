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
//     A ClaimScanCursor lets the read part classify only the lines appended
//     since the process's previous claim;
//   - readers take no lock: load_result_cache() *quarantines* corrupt,
//     truncated or checksum-failing lines — each skipped with a one-line
//     stderr reason (capped per load) — skips claims and foreign versions,
//     and tolerates duplicate records (points are deterministic, so
//     duplicates carry identical values; the last one wins). Merging
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

/// Loads every valid result record; missing file yields an empty map.
/// Corrupt lines are quarantined with a one-line stderr reason each
/// (capped); transient read errors are retried with backoff, after which
/// the load degrades to an empty (in-memory-only) cache with a loud
/// warning rather than failing the sweep. When `config_filter` is set,
/// records whose config_hash differs are skipped — a runner only warms
/// from points simulated under its own configuration.
std::map<ResultKey, ExperimentResult> load_result_cache(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// Loads the *governing* claim per point: the last claim record in file
/// order for each (workload, design) key, config-filtered like
/// load_result_cache (but silent — the result loader owns the quarantine
/// warnings). Points that already have a result are still listed if
/// claimed — callers decide whether a claim is moot (result exists), live,
/// or expired.
std::map<ResultKey, ClaimRecord> load_claims(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// What try_claim_point has learned from one cache file so far: the byte
/// offset just past the last complete line it classified, and per point the
/// `done` flag and governing claim those lines add up to. Each scan then
/// classifies only the bytes appended since, so a sweep reads its cache
/// once instead of once per claim. One cursor per process and cache file;
/// try_claim_point holds mutex() for as long as it holds the flock.
class ClaimScanCursor {
 public:
  /// A point as a full scan of the file sees it.
  struct PointState {
    bool done = false;                     // some result exists
    std::optional<ClaimRecord> governing;  // the last claim in file order
  };

  /// Brings the cursor up to date with the cache file open on `fd`, whose
  /// flock the caller holds. A different file (device or inode changed —
  /// `--fsck --repair` renames a rewrite into place) or one shorter than
  /// the offset is rescanned from byte 0; otherwise only the bytes after
  /// the offset are read. Complete lines are committed; an unterminated
  /// tail is classified on every scan but never committed, so a torn line
  /// later completed by an append counts as the full line it becomes.
  /// False on a read error (the committed state stays consistent).
  bool scan(int fd);

  /// The point's state as of the last scan: exactly what a getline pass
  /// over the whole file would conclude, the unterminated tail included.
  PointState state(const std::string& workload, Design design,
                   uint64_t config_hash) const;

  std::mutex& mutex() { return mu_; }

 private:
  using Key = std::tuple<std::string, Design, uint64_t>;

  std::mutex mu_;
  dev_t dev_ = 0;
  ino_t ino_ = 0;  // 0 until the first scan: no file has inode 0
  uint64_t offset_ = 0;  // just past the last committed '\n'
  std::map<Key, PointState> points_;
  std::optional<std::pair<Key, PointState>> tail_;  // unterminated last line
};

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
                             uint64_t now, ClaimScanCursor* cursor = nullptr);

}  // namespace avr
