#include "harness/result_cache.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/backoff.hh"
#include "common/fault_inject.hh"
#include "common/file_lock.hh"
#include "common/profile.hh"
#include "common/simd.hh"

namespace avr {
namespace {

// Result-payload fixed fields (workload through wall_seconds, before the
// variable detail pairs).
constexpr size_t kResultPayloadFixed = 24;

// A v5 claim line has exactly 11 fields: version, L<len>, C<crc>, claim#,
// workload, design, config_hash, owner, claimed_at, lease_seconds, end#.
constexpr size_t kClaimFieldsV5 = 11;

// Every record ends with this sentinel field. A line torn mid-append —
// even one cut inside the final numeric token, which would otherwise parse
// as a shorter valid number — loses it and is rejected wholesale. The '#'
// keeps it disjoint from detail-counter key names.
constexpr const char* kRecordEnd = "end#";

// Kind marker in the workload slot of a claim payload; the '#' keeps it
// disjoint from workload names (identifiers / "trace:<path>" specs).
constexpr const char* kClaimKind = "claim#";

// Quarantine chatter cap per load: enough to diagnose, not enough to drown
// a terminal when a whole cache went bad (fsck gives the full accounting).
constexpr size_t kMaxQuarantineWarnings = 8;

void put(std::string& s, uint64_t v) { s += std::to_string(v); }

void put(std::string& s, double v) {
  char buf[64];
  // max_digits10 for binary64: decode round-trips the exact bit pattern.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  s += buf;
}

// Strict numeric parses: the whole field must be consumed and there is no
// leading whitespace/sign, so corrupt fields like "12garbage" or "-1" (which
// stoull would happily wrap to 2^64-1) are rejected, not misread. Every
// numeric metric in a record is non-negative by construction.
uint64_t to_u64(const std::string& f) {
  if (f.empty() || !std::isdigit(static_cast<unsigned char>(f[0])))
    throw std::invalid_argument("not a non-negative integer: " + f);
  size_t pos = 0;
  const uint64_t v = std::stoull(f, &pos);
  if (pos != f.size()) throw std::invalid_argument("trailing junk: " + f);
  return v;
}

int to_int(const std::string& f) {
  const uint64_t v = to_u64(f);
  if (v > static_cast<uint64_t>(std::numeric_limits<int>::max()))
    throw std::out_of_range("int overflow: " + f);
  return static_cast<int>(v);
}

double to_dbl(const std::string& f) {
  if (f.empty() || std::isspace(static_cast<unsigned char>(f[0])) || f[0] == '-')
    throw std::invalid_argument("not a non-negative number: " + f);
  size_t pos = 0;
  const double v = std::stod(f, &pos);
  if (pos != f.size()) throw std::invalid_argument("trailing junk: " + f);
  return v;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::istringstream ls(line);
  std::string field;
  std::vector<std::string> f;
  while (std::getline(ls, field, ',')) f.push_back(field);
  return f;
}

// Shared record-closing check: the sentinel must be the final field and the
// line must not end in ',' (getline would silently drop an empty last
// field, letting "…,end#," pass as closed).
bool record_closed(const std::vector<std::string>& f, const std::string& line) {
  return !f.empty() && f.back() == kRecordEnd && line.back() != ',';
}

// CRC-32C of the payload bytes with the standard pre/post conditioning,
// through the dispatched kernel table (hardware crc32 at the AVX2 level).
uint32_t record_crc(const char* data, size_t n) {
  return ~simd::kernels().crc32c_update(
      0xFFFFFFFFu, reinterpret_cast<const uint8_t*>(data), n);
}

// "5,L<len>,C<crc8hex>," prepended to an already-built payload.
std::string frame_v5(const std::string& payload) {
  char head[48];
  std::snprintf(head, sizeof(head), "%d,L%zu,C%08x,", kResultCacheVersion,
                payload.size(), record_crc(payload.data(), payload.size()));
  return head + payload;
}

// Parses the 8-lower-case-hex-digit CRC field body ("C" stripped).
bool parse_crc_hex(const std::string& f, uint32_t* out) {
  if (f.size() != 8) return false;
  uint32_t v = 0;
  for (char ch : f) {
    uint32_t d;
    if (ch >= '0' && ch <= '9')
      d = static_cast<uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      d = static_cast<uint32_t>(ch - 'a') + 10;
    else
      return false;
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

// Fixed fields + detail pairs of a result payload; f[start] is the
// workload field and f.back() the already-verified sentinel.
bool parse_result_payload(const std::vector<std::string>& f, size_t start,
                          ExperimentResult* out) {
  if (f.size() < start + kResultPayloadFixed + 1) return false;
  try {
    ExperimentResult r;
    size_t i = start;
    r.workload = f[i++];
    if (r.workload.empty()) return false;
    r.design = static_cast<Design>(to_int(f[i++]));
    r.config_hash = to_u64(f[i++]);
    RunMetrics& m = r.m;
    m.cycles = to_u64(f[i++]);
    m.instructions = to_u64(f[i++]);
    m.ipc = to_dbl(f[i++]);
    m.amat = to_dbl(f[i++]);
    m.llc_requests = to_u64(f[i++]);
    m.llc_misses = to_u64(f[i++]);
    m.llc_mpki = to_dbl(f[i++]);
    m.dram_bytes = to_u64(f[i++]);
    m.dram_bytes_approx = to_u64(f[i++]);
    m.dram_bytes_other = to_u64(f[i++]);
    m.metadata_bytes = to_u64(f[i++]);
    m.energy.core = to_dbl(f[i++]);
    m.energy.l1l2 = to_dbl(f[i++]);
    m.energy.llc = to_dbl(f[i++]);
    m.energy.dram = to_dbl(f[i++]);
    m.energy.compressor = to_dbl(f[i++]);
    m.compression_ratio = to_dbl(f[i++]);
    m.footprint_bytes = to_u64(f[i++]);
    m.approx_bytes = to_u64(f[i++]);
    m.output_error = to_dbl(f[i++]);
    r.wall_seconds = to_dbl(f[i++]);
    // A record cut inside the detail pairs would leave a dangling key; the
    // sentinel already rejects it, but keep the parity check as defense.
    if ((f.size() - 1 - i) % 2 != 0) return false;
    while (i + 2 < f.size()) {
      m.detail[f[i]] = to_u64(f[i + 1]);
      i += 2;
    }
    *out = std::move(r);
    return true;
  } catch (const std::exception&) {
    return false;  // stoi/stoull/stod rejected a corrupt field
  }
}

// Claim payload; f[start] is the "claim#" marker.
bool parse_claim_payload(const std::vector<std::string>& f, size_t start,
                         ClaimRecord* out) {
  if (f.size() != start + 8) return false;
  if (f[start + 1].empty() || f[start + 4].empty()) return false;  // wl/owner
  try {
    ClaimRecord c;
    c.workload = f[start + 1];
    c.design = static_cast<Design>(to_int(f[start + 2]));
    c.config_hash = to_u64(f[start + 3]);
    c.owner = f[start + 4];
    c.claimed_at = to_u64(f[start + 5]);
    c.lease_seconds = to_u64(f[start + 6]);
    *out = std::move(c);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

CacheLineKind corrupt(std::string* reason, std::string why) {
  if (reason) *reason = std::move(why);
  return CacheLineKind::kCorrupt;
}

// Appends `line` (newline included by the caller) through an already-held
// lock, starting on a fresh line if a previous writer died mid-record.
// Rolls the file back on a failed write so a partial record of ours cannot
// corrupt the next writer's. `site` (when set) is consulted per write
// round: injected eintr re-enters the loop, short_write/eio/enospc fail the
// round (exercising the rollback), kill tears the record mid-write and
// dies — the crash the v5 framing exists to catch.
bool append_line_locked(const FileLock& lock, std::string line,
                        std::optional<fault::Site> site) {
  struct stat st;
  if (::fstat(lock.fd(), &st) != 0) return false;
  if (st.st_size > 0) {
    char last = '\n';
    if (::pread(lock.fd(), &last, 1, st.st_size - 1) == 1 && last != '\n')
      line.insert(line.begin(), '\n');
  }
  // One write() per record: with O_APPEND the kernel picks the offset
  // atomically, and the flock guarantees no interleaving even for short
  // writes — retry only ever continues our own record.
  size_t off = 0;
  while (off < line.size()) {
    const size_t want = line.size() - off;
    ssize_t n = -1;
    const fault::Kind fk =
        site ? fault::fire(*site) : fault::Kind::kNone;
    switch (fk) {
      case fault::Kind::kEintr:
        continue;  // one injected EINTR round
      case fault::Kind::kKill: {
        // Maximum damage: half the remaining bytes land, then SIGKILL —
        // a genuinely torn line with no rollback possible.
        ssize_t torn = ::write(lock.fd(), line.data() + off, want / 2);
        (void)torn;
        fault::kill_now(*site);
      }
      case fault::Kind::kShortWrite: {
        // A real partial write lands, then the device errors: the rollback
        // below must undo the landed bytes.
        n = ::write(lock.fd(), line.data() + off, want > 1 ? want / 2 : 1);
        if (n > 0) off += static_cast<size_t>(n);
        errno = EIO;
        n = -1;
        break;
      }
      case fault::Kind::kEio:
        errno = EIO;
        n = -1;
        break;
      case fault::Kind::kEnospc:
        errno = ENOSPC;
        n = -1;
        break;
      case fault::Kind::kTimeout:
        errno = ETIMEDOUT;
        n = -1;
        break;
      case fault::Kind::kNone:
        n = ::write(lock.fd(), line.data() + off, want);
        break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // Roll the file back to the pre-append size (the flock is still
      // held), so our partial record cannot corrupt the next writer's.
      if (::ftruncate(lock.fd(), st.st_size) != 0) {
        // Rollback failed; leave the partial record on its own line for
        // decode to reject (and fsck to report).
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

CacheLineKind classify_cache_line(const std::string& line,
                                  ExperimentResult* result, ClaimRecord* claim,
                                  std::string* reason) {
  if (line.empty()) return CacheLineKind::kBlank;
  const std::vector<std::string> f = split_fields(line);
  if (f.empty()) return CacheLineKind::kBlank;
  const std::string& v = f[0];

  if (v == "5") {
    if (f.size() < 4 || f[1].size() < 2 || f[1][0] != 'L' || f[2].size() != 9 ||
        f[2][0] != 'C')
      return corrupt(reason, "bad v5 framing (want 5,L<len>,C<crc8hex>,...)");
    uint64_t framed_len;
    try {
      framed_len = to_u64(f[1].substr(1));
    } catch (const std::exception&) {
      return corrupt(reason, "bad length field '" + f[1] + "'");
    }
    uint32_t framed_crc;
    if (!parse_crc_hex(f[2].substr(1), &framed_crc))
      return corrupt(reason, "bad crc field '" + f[2] + "'");
    // Payload = everything after the third comma. Fields carry no commas
    // (split_fields round-trips), so the offset arithmetic is exact. Check
    // the length before the sentinel: a torn tail fails both, and the byte
    // counts are the more useful diagnostic.
    const size_t off = f[0].size() + f[1].size() + f[2].size() + 3;
    const size_t payload_len = line.size() - off;
    if (payload_len != framed_len) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "length mismatch: framed %llu bytes, found %zu "
                    "(short write?)",
                    static_cast<unsigned long long>(framed_len), payload_len);
      return corrupt(reason, buf);
    }
    if (!record_closed(f, line))
      return corrupt(reason, "missing end# sentinel (torn append?)");
    const uint32_t actual_crc = record_crc(line.data() + off, payload_len);
    if (actual_crc != framed_crc) {
      char buf[80];
      std::snprintf(buf, sizeof(buf),
                    "crc mismatch: recorded %08x, computed %08x", framed_crc,
                    actual_crc);
      return corrupt(reason, buf);
    }
    if (f[3] == kClaimKind) {
      if (f.size() != kClaimFieldsV5 || !parse_claim_payload(f, 3, claim))
        return corrupt(reason, "corrupt claim payload (crc-valid framing)");
      return CacheLineKind::kClaim;
    }
    if (!parse_result_payload(f, 3, result))
      return corrupt(reason, "corrupt result payload (crc-valid framing)");
    return CacheLineKind::kResult;
  }

  // Any other decimal version — a pre-v5 record (2, 3, 4) or a future
  // format — is foreign, not corrupt: caches are regenerable memos, so an
  // old line's point simply re-simulates. Anything else is garbage.
  bool numeric = !v.empty();
  for (char ch : v)
    if (ch < '0' || ch > '9') numeric = false;
  if (numeric) return CacheLineKind::kForeign;
  return corrupt(reason, "unrecognized record (no version field)");
}

std::string encode_result_line(const ExperimentResult& r) {
  const RunMetrics& m = r.m;
  std::string s = r.workload;  // workload names are identifiers: no commas
  s += ',';
  put(s, static_cast<uint64_t>(r.design));
  s += ',';
  put(s, r.config_hash);
  auto field = [&s](auto v) {
    s += ',';
    put(s, v);
  };
  field(m.cycles);
  field(m.instructions);
  field(m.ipc);
  field(m.amat);
  field(m.llc_requests);
  field(m.llc_misses);
  field(m.llc_mpki);
  field(m.dram_bytes);
  field(m.dram_bytes_approx);
  field(m.dram_bytes_other);
  field(m.metadata_bytes);
  field(m.energy.core);
  field(m.energy.l1l2);
  field(m.energy.llc);
  field(m.energy.dram);
  field(m.energy.compressor);
  field(m.compression_ratio);
  field(m.footprint_bytes);
  field(m.approx_bytes);
  field(m.output_error);
  field(r.wall_seconds);
  for (const auto& [k, v] : m.detail) {
    s += ',';
    s += k;
    s += ',';
    put(s, v);
  }
  s += ',';
  s += kRecordEnd;
  return frame_v5(s);
}

bool decode_result_line(const std::string& line, ExperimentResult* out) {
  ExperimentResult r;
  ClaimRecord c;
  if (classify_cache_line(line, &r, &c) != CacheLineKind::kResult) return false;
  *out = std::move(r);
  return true;
}

std::string encode_claim_line(const ClaimRecord& c) {
  std::string s = kClaimKind;
  s += ',';
  s += c.workload;
  s += ',';
  put(s, static_cast<uint64_t>(c.design));
  s += ',';
  put(s, c.config_hash);
  s += ',';
  s += c.owner;  // comma-free token (prof::default_owner sanitizes)
  s += ',';
  put(s, c.claimed_at);
  s += ',';
  put(s, c.lease_seconds);
  s += ',';
  s += kRecordEnd;
  return frame_v5(s);
}

bool decode_claim_line(const std::string& line, ClaimRecord* out) {
  ExperimentResult r;
  ClaimRecord c;
  if (classify_cache_line(line, &r, &c) != CacheLineKind::kClaim) return false;
  *out = std::move(c);
  return true;
}

bool append_result_line(const std::string& path, const ExperimentResult& r) {
  AVR_PROF_SCOPE(prof::Phase::kCacheIo);
  const std::string line = encode_result_line(r) + '\n';
  FileLock lock =
      FileLock::acquire_with_retry(path, O_RDWR | O_CREAT | O_APPEND);
  if (!lock.ok()) {
    std::fprintf(stderr, "[cache] append to %s: %s\n", path.c_str(),
                 lock.error_detail().c_str());
    return false;
  }
  for (int attempt = 0; attempt < kIoRetryAttempts; ++attempt) {
    if (attempt > 0)
      backoff_sleep(attempt - 1, static_cast<uint64_t>(::getpid()) ^
                                     (uint64_t{0xA99} << 32) ^
                                     static_cast<uint64_t>(attempt));
    if (append_line_locked(lock, line, fault::Site::kCacheAppend)) {
      prof::count(prof::Counter::kCacheAppends);
      return true;
    }
    std::fprintf(stderr,
                 "[cache] transient append failure on %s (%s), attempt "
                 "%d/%d\n",
                 path.c_str(), std::strerror(errno), attempt + 1,
                 kIoRetryAttempts);
  }
  return false;
}

std::map<ResultKey, ExperimentResult> load_result_cache(
    const std::string& path, std::optional<uint64_t> config_filter) {
  AVR_PROF_SCOPE(prof::Phase::kCacheIo);
  std::map<ResultKey, ExperimentResult> out;
  for (int attempt = 0; attempt < kIoRetryAttempts; ++attempt) {
    if (attempt > 0)
      backoff_sleep(attempt - 1, static_cast<uint64_t>(::getpid()) ^
                                     (uint64_t{0x10AD} << 32) ^
                                     static_cast<uint64_t>(attempt));
    const fault::Kind fk = fault::fire(fault::Site::kCacheLoad);
    if (fk == fault::Kind::kKill) fault::kill_now(fault::Site::kCacheLoad);
    if (fk != fault::Kind::kNone && fk != fault::Kind::kEintr) {
      std::fprintf(stderr,
                   "[cache] transient read failure on %s (injected %s), "
                   "attempt %d/%d\n",
                   path.c_str(), fault::kind_name(fk), attempt + 1,
                   kIoRetryAttempts);
      continue;
    }
    errno = 0;
    std::ifstream in(path);
    if (!in) {
      if (errno == ENOENT) return out;  // no cache yet: a cold start
      std::fprintf(stderr,
                   "[cache] transient open failure on %s (%s), attempt "
                   "%d/%d\n",
                   path.c_str(), std::strerror(errno), attempt + 1,
                   kIoRetryAttempts);
      continue;
    }
    std::string line;
    size_t line_no = 0;
    size_t quarantined = 0;
    while (std::getline(in, line)) {
      ++line_no;
      ExperimentResult r;
      ClaimRecord c;
      std::string reason;
      switch (classify_cache_line(line, &r, &c, &reason)) {
        case CacheLineKind::kResult:
          if (config_filter && r.config_hash != *config_filter) break;
          out[ResultKey{r.workload, r.design}] = std::move(r);
          break;
        case CacheLineKind::kCorrupt:
          if (++quarantined <= kMaxQuarantineWarnings)
            std::fprintf(stderr, "[cache] quarantined %s:%zu: %s\n",
                         path.c_str(), line_no, reason.c_str());
          break;
        default:  // blank / claim / foreign: not result material
          break;
      }
    }
    if (quarantined > kMaxQuarantineWarnings)
      std::fprintf(stderr,
                   "[cache] ... and %zu more quarantined lines in %s (run "
                   "avr_sweep --fsck for the full audit)\n",
                   quarantined - kMaxQuarantineWarnings, path.c_str());
    return out;
  }
  std::fprintf(stderr,
               "[cache] WARNING: could not read %s after %d attempts; "
               "degrading to an empty in-memory cache\n",
               path.c_str(), kIoRetryAttempts);
  return out;
}

std::map<ResultKey, ClaimRecord> load_claims(
    const std::string& path, std::optional<uint64_t> config_filter) {
  AVR_PROF_SCOPE(prof::Phase::kCacheIo);
  std::map<ResultKey, ClaimRecord> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    ClaimRecord c;
    if (!decode_claim_line(line, &c)) continue;
    if (config_filter && c.config_hash != *config_filter) continue;
    ResultKey key{c.workload, c.design};
    out[key] = std::move(c);  // later records supersede earlier ones
  }
  return out;
}

ClaimOutcome try_claim_point(const std::string& path, const ClaimRecord& want,
                             uint64_t now) {
  AVR_PROF_SCOPE(prof::Phase::kCacheIo);
  // Read-modify-append under the same exclusive flock the writers use: no
  // other process can append a result or claim between our scan and our
  // claim line, so exactly one owner wins a fresh claim on a point.
  FileLock lock =
      FileLock::acquire_with_retry(path, O_RDWR | O_CREAT | O_APPEND);
  if (!lock.ok()) {
    std::fprintf(stderr, "[cache] claim lock on %s: %s\n", path.c_str(),
                 lock.error_detail().c_str());
    return ClaimOutcome::kError;
  }

  bool done = false;
  bool have_claim = false;
  ClaimRecord governing;
  {
    std::ifstream in(path);
    if (!in) return ClaimOutcome::kError;
    std::string line;
    while (std::getline(in, line)) {
      ExperimentResult r;
      ClaimRecord c;
      switch (classify_cache_line(line, &r, &c)) {
        case CacheLineKind::kResult:
          if (r.workload == want.workload && r.design == want.design &&
              r.config_hash == want.config_hash)
            done = true;
          break;
        case CacheLineKind::kClaim:
          if (c.workload == want.workload && c.design == want.design &&
              c.config_hash == want.config_hash) {
            governing = std::move(c);  // last claim in file order governs
            have_claim = true;
          }
          break;
        default:
          break;
      }
    }
  }
  if (done) return ClaimOutcome::kDone;
  if (have_claim && !governing.expired(now)) {
    if (governing.owner == want.owner) return ClaimOutcome::kClaimed;
    prof::count(prof::Counter::kClaimsLost);
    return ClaimOutcome::kBusy;
  }

  // "claim.stake" fires only when a stake is really about to land, so the
  // k-th hit is the k-th stake this process wins — deterministic chaos
  // choreography. Error kinds fail the attempt before anything is written;
  // kill dies with the stake durably on disk (the dangling-claim crash).
  const fault::Kind fk = fault::fire(fault::Site::kClaimStake);
  if (fk != fault::Kind::kNone && fk != fault::Kind::kKill &&
      fk != fault::Kind::kEintr)
    return ClaimOutcome::kError;

  ClaimRecord stake = want;
  stake.claimed_at = now;
  if (!append_line_locked(lock, encode_claim_line(stake) + '\n', std::nullopt))
    return ClaimOutcome::kError;
  if (fk == fault::Kind::kKill) fault::kill_now(fault::Site::kClaimStake);
  const bool reclaimed = have_claim && governing.owner != want.owner;
  prof::count(reclaimed ? prof::Counter::kClaimsReclaimed
                        : prof::Counter::kClaimsWon);
  return reclaimed ? ClaimOutcome::kReclaimed : ClaimOutcome::kClaimed;
}

}  // namespace avr
