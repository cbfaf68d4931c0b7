#include "harness/fsck.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/file_lock.hh"

namespace avr {

FsckReport fsck_cache(const std::string& path, uint64_t now) {
  FsckReport r;
  CacheScan scan;
  if (!scan.scan(path)) {
    r.io_error = std::strerror(errno ? errno : EIO);
    return r;
  }
  static_cast<CacheScan::FileStats&>(r) = scan.file();
  for (const auto& [key, p] : scan.points()) {
    r.duplicate_results += p.duplicate_results;
    r.conflicting_results += p.conflicting_results;
    r.superseded_claims += p.superseded_claims;
    if (!p.governing) continue;
    if (p.done)
      ++r.moot_claims;
    else if (p.governing->expired(now))
      ++r.dangling_expired;
    else
      ++r.dangling_live;
  }
  return r;
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
  CacheScan scan;
  if (!scan.scan(lock.fd())) {
    *error = "cannot read " + path + ": " + std::strerror(errno ? errno : EIO);
    return false;
  }

  std::string out;
  for (const auto& [key, p] : scan.points()) {
    if (!p.result) continue;
    out += encode_result_line(*p.result);
    out += '\n';
  }
  for (const auto& [key, p] : scan.points()) {
    // Keep only live dangling claims: their owner may be mid-simulation.
    if (!p.governing || p.done || p.governing->expired(now)) continue;
    out += encode_claim_line(*p.governing);
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
