// Benchmark applications (Table 2 of the paper).
//
// Each workload programs against the System runtime API: it allocates its
// data structures (annotating the approximable ones), performs every
// algorithmically relevant load/store through the instrumented accessors,
// and exposes its output values for the error metric ("mean of the relative
// errors for each output value", Sec. 4.1).
//
// Inputs are synthesized deterministically (the comment atop each workload's
// .cc names its substitute for the paper's input); sizes are scaled down
// together with the cache hierarchy so the footprint-to-LLC ratios of
// Table 2 are preserved.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/system.hh"

namespace avr {

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Allocate, initialize and execute. All value-relevant traffic goes
  /// through `sys`'s instrumented accessors.
  virtual void run(System& sys) = 0;
  /// Output values (functional read; call after run()).
  virtual std::vector<double> output(const System& sys) const = 0;

  /// Private-cache scale divisor (default 16: L1 = 4 kB, L2 = 16 kB).
  virtual uint32_t cache_scale() const { return 16; }

  /// Per-application error threshold knob (Sec. 3.1: "the programmer may
  /// further indicate an upper error threshold"; thresholds are common for
  /// all approximations *in a program*). N = mantissa MSbit index:
  /// T1 = 1/2^N. Iterative solvers that round-trip their state many times
  /// (the LBM codes) ask for tighter thresholds than single-pass kernels.
  virtual uint32_t t1_msbit() const { return 4; }  // 6.25 %

  /// LLC capacity for this workload. The paper's 8 MB LLC is shared by
  /// 8 cores (~1 MB effective per core); each workload picks the LLC size
  /// that preserves its paper footprint-to-LLC-share ratio (Table 2), so
  /// capacity pressure — and therefore memory traffic — matches in shape.
  virtual uint64_t llc_bytes() const { return 64 * 1024; }

  /// Instrumented accesses a run will issue, when knowable up front (trace
  /// replay: the record stream IS the access count). 0 = unknown; the
  /// scheduler then falls back to the footprint heuristic. Simulation cost
  /// scales with this, not with footprint, for replayed workloads.
  virtual uint64_t access_estimate() const { return 0; }
};

/// Factory. Known names: heat, lattice, lbm, orbit, kmeans, bscholes, wrf —
/// plus "trace:<path>" for any trace file (see workloads/trace.hh). Throws
/// std::invalid_argument, with a diagnosable message, for unknown names and
/// for trace specs whose file is missing or fails validation: callers that
/// enumerate points (avr_sweep --list, startup parsing) surface bad points
/// before any simulation starts.
std::unique_ptr<Workload> make_workload(const std::string& name);
/// The seven built-in kernels, in the paper's order (trace points are
/// enumerated by the caller, not listed here).
std::vector<std::string> workload_names();

/// Mean relative error between two output vectors (the paper's quality
/// metric). Sizes must match.
double mean_relative_error(const std::vector<double>& approx,
                           const std::vector<double>& exact);

}  // namespace avr
