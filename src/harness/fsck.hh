// Offline audit and repair for result-cache files (`avr_sweep --fsck
// [--repair]`, incident-response runbook in docs/OPERATIONS.md).
//
// The loaders warn about a capped number of quarantined lines; fsck is the
// full accounting, a view of the same CacheScan: every line of a cache —
// checksum failures, torn tails, unparseable payloads, duplicate and
// *conflicting* duplicate results, superseded/moot/dangling claims,
// foreign (pre-v5 or future) versions — and repair_cache() rewrites the
// file as a clean current-version cache via tmp + rename under the cache
// flock.
//
// Repair policy (waste nothing that is still meaningful):
//   - keep the LAST valid result per (workload, design, config_hash) key —
//     the same record a load would have used — re-encoded (doubles
//     round-trip bit-exactly, so values are preserved);
//   - keep governing claims that are dangling and still LIVE (their owner
//     may be mid-simulation); drop moot, superseded and expired claims
//     (an expired dangling claim is a crashed worker: dropping it lets the
//     next --claim run stake the point fresh);
//   - drop corrupt, foreign and blank lines.
#pragma once

#include <cstdio>
#include <string>

#include "harness/result_cache.hh"

namespace avr {

/// The file accounting of one CacheScan, plus what its points add up to.
struct FsckReport : CacheScan::FileStats {
  std::string io_error;            // non-empty: the file could not be read at all
  size_t superseded_claims = 0;    // replaced by a later claim on the same key
  size_t moot_claims = 0;          // governing claim, but the point has a result
  size_t dangling_live = 0;        // governing claim, no result, lease live
  size_t dangling_expired = 0;     // same, lease run out: a crashed worker
  size_t duplicate_results = 0;    // re-records with identical metric values
  size_t conflicting_results = 0;  // duplicates whose metric values DIFFER

  /// The cache needs attention: unreadable, corrupt or value-conflicting
  /// lines, or expired dangling claims (a crashed worker's leftovers).
  /// Live dangling claims are NOT an issue — that is what a healthy
  /// mid-sweep cache looks like.
  bool has_issues() const {
    return !io_error.empty() || !corrupt.empty() || conflicting_results > 0 ||
           dangling_expired > 0;
  }

  /// A repair would change the file: any issue, or mere clutter
  /// (duplicates, superseded/moot/expired claims).
  bool needs_repair() const {
    return has_issues() || duplicate_results > 0 || superseded_claims > 0 ||
           moot_claims > 0;
  }
};

/// Audits `path` without taking the cache lock (readers never do). `now`
/// (wall-clock epoch seconds) decides live vs expired for claims.
FsckReport fsck_cache(const std::string& path, uint64_t now);

/// Human-readable multi-line report.
void print_fsck_report(std::FILE* out, const std::string& path,
                       const FsckReport& r);

/// Rewrites `path` per the repair policy above, atomically (tmp + rename)
/// and under the cache flock so no concurrent writer's append is lost.
/// False + *error on failure; the original file is untouched then.
bool repair_cache(const std::string& path, uint64_t now, std::string* error);

}  // namespace avr
