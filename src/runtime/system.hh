// Full simulated system for one design point: region registry + interval
// core + private caches + design-specific LLC subsystem + DRAM + energy.
//
// This is also the *runtime API* workloads program against:
//   alloc()          — the paper's wrapped malloc + approximation annotation
//   load/store       — instrumented accesses (functional + timing)
//   ops()            — surrounding non-memory instructions
//   finish()         — drain dirty state, close the books
// Running the same workload against Design::kBaseline..kAvr reproduces the
// paper's design-point comparison; `timing=false` gives the golden
// (exact, un-instrumented) run used as the error reference.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/types.hh"
#include "cpu/hierarchy.hh"
#include "cpu/interval_core.hh"
#include "energy/energy_model.hh"
#include "mem/llc_system.hh"
#include "runtime/region.hh"

namespace avr {

/// Everything the paper reports for one (workload, design) run.
struct RunMetrics {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  double ipc = 0;
  double amat = 0;
  uint64_t llc_requests = 0;
  uint64_t llc_misses = 0;
  double llc_mpki = 0;
  uint64_t dram_bytes = 0;
  uint64_t dram_bytes_approx = 0;
  uint64_t dram_bytes_other = 0;
  uint64_t metadata_bytes = 0;
  EnergyBreakdown energy;
  double compression_ratio = 1.0;  // AVR only; 1.0 otherwise
  uint64_t footprint_bytes = 0;
  uint64_t approx_bytes = 0;
  double output_error = 0.0;  // filled by the harness (vs golden run)
  std::map<std::string, uint64_t> detail;  // design-specific counters
};

class System {
 public:
  /// Throws std::invalid_argument naming the knob or cache if `cfg` fails
  /// validate_config (common/config_table.hh). The simulator models one
  /// core, so `num_cores` must be 1; any other value throws too.
  System(Design design, SimConfig cfg, uint32_t num_cores = 1,
         bool timing = true);
  ~System();

  // ---- runtime API for workloads -------------------------------------------
  /// Block-aligned allocation; `approx` marks the region compressible
  /// (ignored — forced false — under ZeroAVR, which is the point of ZeroAVR).
  uint64_t alloc(const std::string& name, uint64_t bytes, bool approx,
                 DType dtype = DType::kFloat32);

  /// alloc() returning a resolved RegionHandle — the fast-path API the
  /// workloads program against: functional access through a handle is one
  /// pointer add instead of a registry search per load/store.
  RegionHandle alloc_region(const std::string& name, uint64_t bytes, bool approx,
                            DType dtype = DType::kFloat32) {
    alloc(name, bytes, approx, dtype);
    return regions_.handle(name);
  }
  /// Handle for an already-allocated region (invalid handle if unknown).
  RegionHandle region(const std::string& name) { return regions_.handle(name); }

  // Address-based accessors (kept for tests and generic tooling): resolve
  // the host pointer through the region registry on every access.
  float load_f32(uint64_t addr) {
    touch(addr, /*write=*/false);
    return regions_.load<float>(addr);
  }
  void store_f32(uint64_t addr, float v) {
    touch(addr, /*write=*/true);
    regions_.store(addr, v);
  }
  /// Functional peek/poke without timing (for output collection / init that
  /// must bypass the hierarchy — use sparingly).
  float peek_f32(uint64_t addr) const { return regions_.load<float>(addr); }
  void poke_f32(uint64_t addr, float v) { regions_.store(addr, v); }

  // Handle-based accessors: identical simulated behaviour to the address
  // forms (same touch() on h.sim_base + off), functional part collapsed to
  // host + off. Offsets are bounds-checked in Debug builds only.
  float load_f32(const RegionHandle& h, uint64_t off) {
    assert(h.bytes >= sizeof(float) && off <= h.bytes - sizeof(float) &&
           "handle load out of range");
    touch(h.sim_base + off, /*write=*/false);
    float v;
    __builtin_memcpy(&v, h.host + off, sizeof(float));
    return v;
  }
  void store_f32(const RegionHandle& h, uint64_t off, float v) {
    assert(h.bytes >= sizeof(float) && off <= h.bytes - sizeof(float) &&
           "handle store out of range");
    touch(h.sim_base + off, /*write=*/true);
    __builtin_memcpy(h.host + off, &v, sizeof(float));
  }
  float peek_f32(const RegionHandle& h, uint64_t off) const {
    assert(h.bytes >= sizeof(float) && off <= h.bytes - sizeof(float) &&
           "handle peek out of range");
    float v;
    __builtin_memcpy(&v, h.host + off, sizeof(float));
    return v;
  }
  void poke_f32(const RegionHandle& h, uint64_t off, float v) {
    assert(h.bytes >= sizeof(float) && off <= h.bytes - sizeof(float) &&
           "handle poke out of range");
    __builtin_memcpy(h.host + off, &v, sizeof(float));
  }

  /// Non-memory instructions surrounding the accesses.
  void ops(uint64_t n) {
    if (core_) core_->ops(n);
  }

  void finish();
  RunMetrics metrics() const;

  /// Capture hook: observes every instrumented access (simulated address +
  /// direction) before it is charged — how avr_trace_gen re-records an
  /// existing workload into a replayable trace. Fires on functional
  /// (timing=false) runs too, so capture can skip the simulation machinery
  /// entirely. Null (the default) costs the hot path one never-taken
  /// branch; pass nullptr to detach.
  using AccessHook = std::function<void(uint64_t addr, bool write)>;
  void set_access_hook(AccessHook h) {
    hook_fn_ = std::move(h);
    hook_ = hook_fn_ ? &hook_fn_ : nullptr;
  }

  // ---- component access (tests, benches) ----------------------------------
  RegionRegistry& regions() { return regions_; }
  const RegionRegistry& regions() const { return regions_; }
  LlcSystem& llc_system() { return *llc_; }
  MemoryHierarchy& hierarchy() { return *hier_; }
  Design design() const { return design_; }
  const SimConfig& config() const { return cfg_; }

 private:
  void touch(uint64_t addr, bool write) {
    if (hook_) (*hook_)(addr, write);
    if (core_) core_->access(addr, write, ops_per_access_);
  }

  Design design_;
  SimConfig cfg_;
  bool finished_ = false;
  uint64_t ops_per_access_ = 0;        // hoisted from cfg_ for touch()
  AccessHook hook_fn_;                 // capture storage (set_access_hook)
  const AccessHook* hook_ = nullptr;   // non-null iff capture is attached
  RegionRegistry regions_;
  std::unique_ptr<LlcSystem> llc_;
  std::unique_ptr<MemoryHierarchy> hier_;
  // Null exactly when timing is off: a functional run builds no machinery.
  std::unique_ptr<IntervalCore> core_;
};

}  // namespace avr
