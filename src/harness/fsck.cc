#include "harness/fsck.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

#include "common/file_lock.hh"

namespace avr {
namespace {

// Full point identity: fsck audits whole files, never config-filtered, so
// the key must carry the fingerprint the loaders filter on.
using PointId = std::tuple<std::string, int, uint64_t>;

PointId id_of(const std::string& wl, Design d, uint64_t cfg) {
  return {wl, static_cast<int>(d), cfg};
}

struct ScanState {
  FsckReport report;
  std::map<PointId, ExperimentResult> last_result;  // load semantics: last wins
  std::map<PointId, ClaimRecord> governing;
};

bool scan(const std::string& path, ScanState* st) {
  errno = 0;
  std::ifstream in(path);
  if (!in) {
    st->report.io_error = std::strerror(errno ? errno : EIO);
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ++st->report.total_lines;
    ExperimentResult r;
    ClaimRecord c;
    std::string reason;
    switch (classify_cache_line(line, &r, &c, &reason)) {
      case CacheLineKind::kBlank:
        ++st->report.blank_lines;
        break;
      case CacheLineKind::kForeign:
        ++st->report.foreign_lines;
        break;
      case CacheLineKind::kCorrupt:
        st->report.corrupt.push_back({line_no, std::move(reason)});
        break;
      case CacheLineKind::kResult: {
        ++st->report.results;
        const PointId id = id_of(r.workload, r.design, r.config_hash);
        const auto [it, first] = st->last_result.try_emplace(id, r);
        if (!first) {
          if (same_metrics(it->second, r))
            ++st->report.duplicate_results;
          else
            ++st->report.conflicting_results;
          it->second = std::move(r);
        }
        break;
      }
      case CacheLineKind::kClaim: {
        ++st->report.claims;
        const PointId id = id_of(c.workload, c.design, c.config_hash);
        if (st->governing.count(id)) ++st->report.superseded_claims;
        st->governing[id] = std::move(c);
        break;
      }
    }
  }
  return true;
}

void finalize(ScanState* st, uint64_t now) {
  for (const auto& [id, c] : st->governing) {
    if (st->last_result.count(id))
      ++st->report.moot_claims;
    else if (c.expired(now))
      ++st->report.dangling_expired;
    else
      ++st->report.dangling_live;
  }
}

}  // namespace

FsckReport fsck_cache(const std::string& path, uint64_t now) {
  ScanState st;
  if (scan(path, &st)) finalize(&st, now);
  return std::move(st.report);
}

void print_fsck_report(std::FILE* out, const std::string& path,
                       const FsckReport& r) {
  std::fprintf(out, "== fsck %s ==\n", path.c_str());
  if (!r.io_error.empty()) {
    std::fprintf(out, "  UNREADABLE: %s\n", r.io_error.c_str());
    return;
  }
  std::fprintf(out, "  lines: %zu total (%zu blank, %zu foreign)\n",
               r.total_lines, r.blank_lines, r.foreign_lines);
  std::fprintf(out, "  results: %zu valid; %zu duplicate, %zu CONFLICTING\n",
               r.results, r.duplicate_results, r.conflicting_results);
  std::fprintf(out,
               "  claims: %zu (%zu superseded, %zu moot, %zu live dangling, "
               "%zu EXPIRED dangling)\n",
               r.claims, r.superseded_claims, r.moot_claims, r.dangling_live,
               r.dangling_expired);
  constexpr size_t kMaxListed = 20;
  std::fprintf(out, "  corrupt: %zu quarantined line(s)\n", r.corrupt.size());
  for (size_t i = 0; i < r.corrupt.size() && i < kMaxListed; ++i)
    std::fprintf(out, "    line %zu: %s\n", r.corrupt[i].line_no,
                 r.corrupt[i].reason.c_str());
  if (r.corrupt.size() > kMaxListed)
    std::fprintf(out, "    ... and %zu more\n", r.corrupt.size() - kMaxListed);
  if (r.has_issues())
    std::fprintf(out, "  verdict: NEEDS ATTENTION (run --fsck --repair)\n");
  else if (r.needs_repair())
    std::fprintf(out,
                 "  verdict: clean (a --repair would tidy duplicate/"
                 "stale-claim clutter)\n");
  else
    std::fprintf(out, "  verdict: clean\n");
}

bool repair_cache(const std::string& path, uint64_t now, std::string* error) {
  // Under the cache flock: writers are serialized out while we read and
  // swap the file, so no concurrent append can fall between scan and
  // rename. (Writers re-open per append, so they pick up the new inode.)
  FileLock lock = FileLock::acquire_with_retry(path, O_RDWR);
  if (!lock.ok()) {
    *error = "cannot lock " + path + ": " + lock.error_detail();
    return false;
  }
  ScanState st;
  if (!scan(path, &st)) {
    *error = "cannot read " + path + ": " + st.report.io_error;
    return false;
  }
  finalize(&st, now);

  std::string out;
  for (const auto& [id, r] : st.last_result) {
    out += encode_result_line(r);
    out += '\n';
  }
  for (const auto& [id, c] : st.governing) {
    // Keep only live dangling claims: their owner may be mid-simulation.
    if (st.last_result.count(id) || c.expired(now)) continue;
    out += encode_claim_line(c);
    out += '\n';
  }

  const std::string tmp =
      path + ".repair." + std::to_string(static_cast<long>(::getpid())) +
      ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    *error = "cannot create " + tmp + ": " + std::strerror(errno);
    return false;
  }
  const bool written = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  // The repaired cache replaces good-enough data: make sure it is durably
  // on disk before the rename makes it the only copy.
  const bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !flushed || !closed) {
    *error = "short write to " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace avr
