// Trace-replay workload. Unlike the kernels, the "program" here is data
// read from disk: construction validates it in full (the tolerant reader
// runs every validate_trace check), so by the time run() executes, every
// record is known to be in bounds and replay needs no per-access checks
// beyond the Debug asserts every workload gets.
//
// A sweep builds the same trace workload many times over — parse_workload_list,
// cost_estimate per design, the golden run, run() per design — so the
// process keeps two memos:
//
// - TraceMemo: parsed files, one full read + validation per file version,
//   shared read-only by every workload built from it. A parse costs under a
//   millisecond per 32768-record trace on a 4-vCPU Xeon VM, most of it first
//   touch of the record array, so parse_workload_list loads a sweep's traces
//   serially and reports the first bad one in list order.
// - RegionImageMemo: the initial contents of each replay region. They
//   depend only on the region's seed (its index) and padded size, so the
//   traces of a sweep share a few images, which a run copies instead of
//   regenerating. An image is kept from its third request on: a one-point
//   process (golden run, then the point) asks for each image twice, so it
//   never holds a copy beside its own regions and its peak RSS is that of
//   the point alone.
#include "workloads/trace.hh"

#include <sys/stat.h>

#include <atomic>
#include <cstring>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/system.hh"
#include "trace/trace_replay.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// A validated trace plus its record-stream word count, computed once.
struct LoadedTrace {
  std::shared_ptr<const trace::Trace> trace;
  uint64_t accesses = 0;
};

LoadedTrace share(trace::Trace t) {
  LoadedTrace lt;
  lt.accesses = t.access_count();
  lt.trace = std::make_shared<const trace::Trace>(std::move(t));
  return lt;
}

class TraceWorkload final : public Workload {
 public:
  TraceWorkload(std::string name, LoadedTrace t)
      : name_(std::move(name)), trace_(std::move(t.trace)), accesses_(t.accesses) {}

  std::string name() const override { return name_; }
  uint64_t access_estimate() const override { return accesses_; }

  void run(System& sys) override {
    handles_.clear();
    handles_.reserve(trace_->regions.size());
    for (size_t i = 0; i < trace_->regions.size(); ++i) {
      const trace::TraceRegion& r = trace_->regions[i];
      handles_.push_back(sys.alloc_region(r.name, r.bytes, r.approx));
      // Recorded contents act like pre-existing memory: poked (functional
      // only), so the replayed stream is exactly the recorded one.
      fill_trace_region(sys, handles_.back(), 0x517EC0DE + i);
    }
    cursor_ = trace::ReplayCursor(trace_->regions.size());
    trace::replay(sys, *trace_, handles_, cursor_);
  }

  std::vector<double> output(const System& sys) const override {
    // Two checksum-style values per region: what the replayed loads
    // observed (value degradation seen by the "program") and what the
    // region holds afterwards (degradation persisted by stores/evictions),
    // one sample per cacheline.
    std::vector<double> out;
    out.reserve(2 * handles_.size());
    for (double s : cursor_.load_sum) out.push_back(s);
    for (const RegionHandle& h : handles_) {
      double sum = 0;
      for (uint64_t off = 0; off + 4 <= h.bytes; off += kCachelineBytes)
        sum += sys.peek_f32(h, off);
      out.push_back(sum);
    }
    return out;
  }

 private:
  std::string name_;
  std::shared_ptr<const trace::Trace> trace_;  // shared with the memo
  uint64_t accesses_;
  std::vector<RegionHandle> handles_;
  trace::ReplayCursor cursor_{0};
};

constexpr const char* kTracePrefix = "trace:";

/// Record storage the memo keeps parsed traces for, beyond which the least
/// recently used are dropped (workloads still holding one keep it alive).
/// A sweep over more trace data than this re-parses, as it would without
/// the memo, rather than holding every trace at once.
constexpr uint64_t kTraceMemoBudgetBytes = 256ull << 20;

/// What identifies one version of a trace file: a rewrite lands by rename
/// (new inode), a truncation or append changes the size, an in-place edit
/// the mtime — unless it keeps the size and lands within one mtime tick.
struct FileVersion {
  dev_t dev = 0;
  ino_t ino = 0;
  off_t size = 0;
  timespec mtim{};

  bool operator==(const FileVersion& o) const {
    return dev == o.dev && ino == o.ino && size == o.size &&
           mtim.tv_sec == o.mtim.tv_sec && mtim.tv_nsec == o.mtim.tv_nsec;
  }
};

bool stat_version(const std::string& path, FileVersion* v) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  *v = {st.st_dev, st.st_ino, st.st_size, st.st_mtim};
  return true;
}

/// Heap bytes a parsed trace holds (its memo charge).
uint64_t trace_bytes(const trace::Trace& t) {
  uint64_t b = t.records.capacity() * sizeof(trace::TraceRecord) +
               t.regions.capacity() * sizeof(trace::TraceRegion);
  for (const trace::TraceRegion& r : t.regions) b += r.name.capacity();
  return b;
}

/// Per-process memo of parsed, validated trace files, keyed by path and
/// file version, least recently used evicted beyond kTraceMemoBudgetBytes.
/// Failures (stat or parse) are never cached. Parsing runs outside the
/// lock, so threads loading different traces do not serialize; two threads
/// missing on the same file may both parse it, and the last insert wins.
class TraceMemo {
 public:
  static TraceMemo& instance() {
    static TraceMemo memo;
    return memo;
  }

  LoadedTrace get(const std::string& name, const std::string& path) {
    FileVersion before;
    const bool have_version = stat_version(path, &before);
    if (have_version) {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = by_path_.find(path);
      if (it != by_path_.end()) {
        if (it->second->version == before) {
          lru_.splice(lru_.begin(), lru_, it->second);  // most recent first
          return it->second->loaded;
        }
        erase(it);  // a stale version: the file changed since
      }
    }
    LoadedTrace fresh = parse(name, path);
    // Cache only a version that held still across the read: a file changed
    // mid-read could otherwise pin the new contents under the old version.
    FileVersion after;
    if (!have_version || !stat_version(path, &after) || !(after == before))
      return fresh;
    const uint64_t bytes = trace_bytes(*fresh.trace);
    if (bytes > kTraceMemoBudgetBytes) return fresh;
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = by_path_.find(path); it != by_path_.end()) erase(it);
    lru_.push_front({path, before, fresh, bytes});
    by_path_[path] = lru_.begin();
    bytes_ += bytes;
    while (bytes_ > kTraceMemoBudgetBytes) erase(by_path_.find(lru_.back().path));
    return fresh;
  }

  uint64_t parses() const { return parses_.load(); }

 private:
  struct Entry {
    std::string path;
    FileVersion version;
    LoadedTrace loaded;
    uint64_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  LoadedTrace parse(const std::string& name, const std::string& path) {
    parses_.fetch_add(1);
    trace::Trace t;
    std::string err;
    // The reader runs every validate_trace check itself.
    if (!trace::read_trace_file(path, &t, &err))
      throw std::invalid_argument("trace workload '" + name + "': " + err);
    return share(std::move(t));
  }

  void erase(std::unordered_map<std::string, Lru::iterator>::iterator it) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    by_path_.erase(it);
  }

  std::atomic<uint64_t> parses_{0};
  std::mutex mu_;  // guards lru_, by_path_ and bytes_
  Lru lru_;        // most recently used first
  std::unordered_map<std::string, Lru::iterator> by_path_;
  uint64_t bytes_ = 0;
};

/// Per-process memo of replay region images, keyed by (seed, padded bytes),
/// within kTraceImageMemoBudgetBytes. trace::init_region stays the generator:
/// a request the memo cannot serve runs it on the region itself, and the
/// third and later requests for a key copy the result into the memo. Images
/// are never dropped, so a pointer read under the lock stays valid for the
/// copy made outside it. Two threads racing to keep one key generate the
/// same bytes; the first insert wins.
class RegionImageMemo {
 public:
  static RegionImageMemo& instance() {
    static RegionImageMemo memo;
    return memo;
  }

  void fill(System& sys, const RegionHandle& h, uint64_t seed) {
    std::unique_lock<std::mutex> lk(mu_);
    Entry& e = entries_[{seed, h.bytes}];
    if (e.image) {
      const std::byte* image = e.image.get();
      lk.unlock();
      std::memcpy(h.host, image, h.bytes);
      return;
    }
    const bool keep = ++e.requests >= kKeepFromRequest && fits(h.bytes);
    lk.unlock();
    trace::init_region(sys, h, seed);
    if (!keep) return;
    auto image = std::make_unique_for_overwrite<std::byte[]>(h.bytes);
    std::memcpy(image.get(), h.host, h.bytes);
    lk.lock();
    if (e.image || !fits(h.bytes)) return;
    e.image = std::move(image);
    bytes_ += h.bytes;
  }

  uint64_t bytes() {
    std::lock_guard<std::mutex> lk(mu_);
    return bytes_;
  }

 private:
  /// A one-point process asks for each image twice, the golden run and the
  /// point: keeping it then would only add its size to the peak RSS.
  static constexpr uint32_t kKeepFromRequest = 3;

  bool fits(uint64_t n) const { return n <= kTraceImageMemoBudgetBytes - bytes_; }

  using Key = std::pair<uint64_t, uint64_t>;  // (seed, padded bytes)
  struct Entry {
    uint32_t requests = 0;
    std::unique_ptr<const std::byte[]> image;  // null until kept
  };

  std::mutex mu_;                 // guards entries_ and bytes_
  std::map<Key, Entry> entries_;  // never erased: an Entry& stays valid
  uint64_t bytes_ = 0;            // sum of the kept images' sizes
};

}  // namespace

void fill_trace_region(System& sys, const RegionHandle& h, uint64_t seed) {
  RegionImageMemo::instance().fill(sys, h, seed);
}

uint64_t trace_image_memo_bytes() { return RegionImageMemo::instance().bytes(); }

bool is_trace_workload_name(const std::string& name) {
  return name.rfind(kTracePrefix, 0) == 0;
}

std::unique_ptr<Workload> make_trace_workload(std::string name, trace::Trace t) {
  std::string err;
  if (!trace::validate_trace(t, &err))
    throw std::invalid_argument("trace workload '" + name + "': " + err);
  return std::make_unique<TraceWorkload>(std::move(name), share(std::move(t)));
}

std::unique_ptr<Workload> make_trace_workload_from_spec(const std::string& name) {
  const std::string path = name.substr(std::string(kTracePrefix).size());
  if (path.empty())
    throw std::invalid_argument(
        "trace workload needs a file: trace:<path/to/file.trace>");
  // The name is the result-cache key, and cache records are comma-separated
  // single lines.
  if (path.find(',') != std::string::npos ||
      path.find('\n') != std::string::npos)
    throw std::invalid_argument("trace workload '" + name +
                                "': path may not contain ',' or newlines");
  return std::make_unique<TraceWorkload>(name, TraceMemo::instance().get(name, path));
}

uint64_t trace_file_parses() { return TraceMemo::instance().parses(); }

}  // namespace avr
