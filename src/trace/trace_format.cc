#include "trace/trace_format.hh"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace avr {
namespace trace {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

// ---- little-endian field codec ---------------------------------------------
// Byte-by-byte shifts: endian-portable and free of alignment/padding UB. The
// shifts are unrolled at compile time so the compiler merges each field into
// one load or store on a little-endian host.

template <typename T, size_t... I>
T load_le(const unsigned char* p, std::index_sequence<I...>) {
  return static_cast<T>(((uint64_t{p[I]} << (8 * I)) | ...));
}

template <typename T>
T load_le(const unsigned char* p) {
  return load_le<T>(p, std::make_index_sequence<sizeof(T)>{});
}

template <typename T, size_t... I>
void store_le(unsigned char* p, T v, std::index_sequence<I...>) {
  ((p[I] = static_cast<unsigned char>(uint64_t{v} >> (8 * I))), ...);
}

template <typename T>
void store_le(unsigned char* p, T v) {
  store_le(p, v, std::make_index_sequence<sizeof(T)>{});
}

/// Bounds-checked read cursor over the loaded file bytes. Every get is
/// total: a read past the end returns 0, consumes the rest and latches
/// `torn` instead of reading out of bounds (callers check sizes up front,
/// this is the defense line).
struct Cursor {
  const unsigned char* p;
  size_t size;
  size_t at = 0;
  bool torn = false;

  template <typename T>
  T get() {
    if (size - at < sizeof(T)) {
      at = size;
      torn = true;
      return 0;
    }
    const T v = load_le<T>(p + at);
    at += sizeof(T);
    return v;
  }
};

bool valid_region_name(const std::string& name) {
  if (name.empty() || name.size() >= kRegionNameBytes) return false;
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    // Printable ASCII, no commas (region names may end up in CSV artifacts)
    // and no embedded NUL (the on-disk padding byte).
    if (u < 0x20 || u > 0x7E || c == ',') return false;
  }
  return true;
}

bool validate_regions(const std::vector<TraceRegion>& regions, std::string* error) {
  if (regions.empty()) return fail(error, "zero regions");
  if (regions.size() > kMaxRegions)
    return fail(error, "region count " + std::to_string(regions.size()) +
                           " exceeds limit " + std::to_string(kMaxRegions));
  uint64_t footprint = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    const TraceRegion& r = regions[i];
    if (!valid_region_name(r.name))
      return fail(error, "region " + std::to_string(i) +
                             ": name must be 1..23 printable non-comma chars");
    if (r.bytes == 0 || r.bytes > kMaxRegionBytes)
      return fail(error, "region " + r.name + ": bad size " +
                             std::to_string(r.bytes));
    // Replay resolves handles by name; a duplicate would silently alias two
    // table entries onto one allocation.
    for (size_t j = 0; j < i; ++j)
      if (regions[j].name == r.name)
        return fail(error, "duplicate region name '" + r.name + "'");
    footprint += r.bytes;
  }
  if (footprint > kMaxTraceFootprint)
    return fail(error, "total footprint " + std::to_string(footprint) +
                           " exceeds limit " + std::to_string(kMaxTraceFootprint));
  return true;
}

/// The per-record checks, in reporting order.
enum class RecordFault { kNone, kOp, kRegion, kSize, kUnaligned, kPastEnd };

RecordFault record_fault(const TraceRecord& rec,
                         const std::vector<TraceRegion>& regions) {
  if (rec.op != Op::kLoad && rec.op != Op::kStore) return RecordFault::kOp;
  if (rec.region >= regions.size()) return RecordFault::kRegion;
  if (rec.size < 4 || rec.size % 4 != 0 || rec.size > kMaxRecordSize)
    return RecordFault::kSize;
  if (rec.offset % 4 != 0) return RecordFault::kUnaligned;
  const uint64_t region_bytes = regions[rec.region].bytes;
  // Overflow-safe: size <= kMaxRecordSize and offset is checked first.
  if (rec.offset > region_bytes || region_bytes - rec.offset < rec.size)
    return RecordFault::kPastEnd;
  return RecordFault::kNone;
}

/// The one-line reason for a record that failed. Kept apart from the checks
/// so that a valid record, the per-record common case, builds no string.
bool explain_fault(RecordFault fault, const TraceRecord& rec, uint64_t index,
                   const std::vector<TraceRegion>& regions, std::string* error) {
  std::string why;
  switch (fault) {
    case RecordFault::kNone:
      return true;
    case RecordFault::kOp:
      why = "bad op " + std::to_string(static_cast<unsigned>(rec.op));
      break;
    case RecordFault::kRegion:
      why = "region index " + std::to_string(rec.region) + " out of range (have " +
            std::to_string(regions.size()) + ")";
      break;
    case RecordFault::kSize:
      why = "bad size " + std::to_string(rec.size);
      break;
    case RecordFault::kUnaligned:
      why = "unaligned offset " + std::to_string(rec.offset);
      break;
    case RecordFault::kPastEnd:
      why = "offset " + std::to_string(rec.offset) + "+" + std::to_string(rec.size) +
            " past region '" + regions[rec.region].name + "' end (" +
            std::to_string(regions[rec.region].bytes) + ")";
      break;
  }
  return fail(error, "record " + std::to_string(index) + ": " + why);
}

bool validate_record(const TraceRecord& rec, uint64_t index,
                     const std::vector<TraceRegion>& regions, std::string* error) {
  const RecordFault fault = record_fault(rec, regions);
  return fault == RecordFault::kNone || explain_fault(fault, rec, index, regions, error);
}

/// Header + region table from the front of the file, which `cur` spans
/// whole. On success, `cur` is left positioned at the first record and
/// *record_count is filled.
bool parse_prefix(Cursor& cur, std::vector<TraceRegion>* regions, uint64_t* record_count,
                  std::string* error) {
  const size_t file_size = cur.size;
  if (file_size < kHeaderBytes)
    return fail(error, "truncated header: " + std::to_string(file_size) +
                           " bytes, need " + std::to_string(kHeaderBytes));
  if (std::memcmp(cur.p, kTraceMagic, sizeof(kTraceMagic)) != 0)
    return fail(error, "bad magic (not an AVR trace file)");
  cur.at = sizeof(kTraceMagic);
  const uint32_t version = cur.get<uint32_t>();
  if (version != kTraceVersion)
    return fail(error, "unsupported trace version " + std::to_string(version) +
                           " (reader speaks v" + std::to_string(kTraceVersion) +
                           ")");
  const uint32_t region_count = cur.get<uint32_t>();
  *record_count = cur.get<uint64_t>();
  if (region_count == 0) return fail(error, "zero regions");
  if (region_count > kMaxRegions)
    return fail(error, "region count " + std::to_string(region_count) +
                           " exceeds limit " + std::to_string(kMaxRegions));
  // The exact length the header promises. Anything shorter is torn, anything
  // longer carries trailing garbage; both are rejected before records parse.
  // A count whose byte length wraps 64 bits could otherwise promise a small
  // file and then drive the record loop far past it.
  const uint64_t prefix = kHeaderBytes + uint64_t{region_count} * kRegionEntryBytes;
  if (*record_count > (UINT64_MAX - prefix) / kRecordBytes)
    return fail(error, "record count " + std::to_string(*record_count) +
                           " overflows the file length");
  const uint64_t expect = prefix + *record_count * kRecordBytes;
  if (file_size != expect)
    return fail(error, "file is " + std::to_string(file_size) +
                           " bytes but header promises " + std::to_string(expect) +
                           " (truncated or torn trace)");

  regions->clear();
  regions->reserve(region_count);
  for (uint32_t i = 0; i < region_count; ++i) {
    char name[kRegionNameBytes];
    for (size_t b = 0; b < kRegionNameBytes; ++b)
      name[b] = static_cast<char>(cur.get<uint8_t>());
    if (name[kRegionNameBytes - 1] != '\0')
      return fail(error, "region " + std::to_string(i) + ": unterminated name");
    TraceRegion r;
    r.name = name;  // up to the first NUL
    // The padding after the NUL must be zero so every v1 file has exactly
    // one canonical byte representation.
    for (size_t b = r.name.size(); b < kRegionNameBytes; ++b)
      if (name[b] != '\0')
        return fail(error,
                    "region " + std::to_string(i) + ": nonzero name padding");
    r.bytes = cur.get<uint64_t>();
    const uint32_t flags = cur.get<uint32_t>();
    if (flags > 1)
      return fail(error, "region " + r.name + ": unknown flags " +
                             std::to_string(flags));
    r.approx = flags & 1;
    if (cur.get<uint32_t>() != 0)
      return fail(error, "region " + r.name + ": nonzero reserved field");
    regions->push_back(std::move(r));
  }
  if (cur.torn) return fail(error, "truncated region table");
  return validate_regions(*regions, error);
}

bool read_file_bytes(const std::string& path, std::string* bytes, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return fail(error, "cannot stat " + path);
  in.seekg(0);
  bytes->resize(static_cast<size_t>(size));
  if (size > 0 && !in.read(bytes->data(), size))
    return fail(error, "cannot read " + path);
  return true;
}

}  // namespace

bool validate_trace(const Trace& t, std::string* error) {
  if (!validate_regions(t.regions, error)) return false;
  for (uint64_t i = 0; i < t.records.size(); ++i)
    if (!validate_record(t.records[i], i, t.regions, error)) return false;
  return true;
}

bool write_trace_file(const std::string& path, const Trace& t, std::string* error) {
  if (!validate_trace(t, error)) return false;
  // Sized once; every field lands in its fixed slot and the zero fill
  // supplies the name padding and reserved fields.
  const size_t size = kHeaderBytes + t.regions.size() * kRegionEntryBytes +
                      t.records.size() * kRecordBytes;
  std::string s(size, '\0');
  unsigned char* p = reinterpret_cast<unsigned char*>(s.data());
  std::memcpy(p, kTraceMagic, sizeof(kTraceMagic));
  store_le<uint32_t>(p + 8, kTraceVersion);
  store_le<uint32_t>(p + 12, static_cast<uint32_t>(t.regions.size()));
  store_le<uint64_t>(p + 16, t.records.size());
  p += kHeaderBytes;
  for (const TraceRegion& r : t.regions) {
    std::memcpy(p, r.name.data(), r.name.size());
    store_le<uint64_t>(p + kRegionNameBytes, r.bytes);
    store_le<uint32_t>(p + kRegionNameBytes + 8, r.approx ? 1u : 0u);
    p += kRegionEntryBytes;
  }
  for (const TraceRecord& rec : t.records) {
    p[0] = static_cast<unsigned char>(rec.op);
    store_le<uint16_t>(p + 2, rec.region);
    store_le<uint32_t>(p + 4, rec.size);
    store_le<uint64_t>(p + 8, rec.offset);
    p += kRecordBytes;
  }
  // Write to a sibling temp file and rename into place: a crashed or
  // disk-full writer must never leave a torn file under the final name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail(error, "cannot create " + tmp);
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return fail(error, "short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, "cannot rename " + tmp + " to " + path);
  }
  return true;
}

bool read_trace_file(const std::string& path, Trace* out, std::string* error) {
  std::string bytes;
  // The exact-length check below bounds record parsing to what was read.
  if (!read_file_bytes(path, &bytes, error)) return false;
  Cursor cur{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};

  Trace t;
  uint64_t record_count = 0;
  if (!parse_prefix(cur, &t.regions, &record_count, error))
    return false;
  // parse_prefix proved the file is exactly header + regions + count
  // records long, so each record decodes from its fixed 16-byte slot with
  // no per-byte bounds check; this re-check keeps that proof next to the
  // unchecked reads.
  if (bytes.size() - cur.at != record_count * kRecordBytes)
    return fail(error, "truncated record stream");
  const unsigned char* slot = cur.p + cur.at;
  t.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i, slot += kRecordBytes) {
    TraceRecord rec;
    rec.op = static_cast<Op>(slot[0]);
    rec.region = load_le<uint16_t>(slot + 2);
    rec.size = load_le<uint32_t>(slot + 4);
    rec.offset = load_le<uint64_t>(slot + 8);
    if (slot[1] != 0)
      return fail(error, "record " + std::to_string(i) + ": nonzero reserved byte");
    if (!validate_record(rec, i, t.regions, error)) return false;
    t.records.push_back(rec);
  }
  *out = std::move(t);
  return true;
}

}  // namespace trace
}  // namespace avr
