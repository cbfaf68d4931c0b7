// heat — 2D thermodynamics (Quinn, "Parallel Programming in C with MPI and
// OpenMP"): Jacobi iteration propagating heat across a grid from fixed
// sources. Approximated data: the temperature grids (ping-pong pair).
// Output: the final temperatures. Paper: 8.2 MB/core footprint, 10.5x
// compression — temperatures vary smoothly, ideal for downsampling.
#include <cmath>

#include "common/prng.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class HeatWorkload final : public Workload {
 public:
  static constexpr uint32_t kN = 256;    // grid side
  static constexpr uint32_t kIters = 40;

  std::string name() const override { return "heat"; }
  uint64_t llc_bytes() const override { return 64 * 1024; }

  void run(System& sys) override {
    const uint64_t bytes = uint64_t{kN} * kN * sizeof(float);
    a_ = sys.alloc_region("heat.t0", bytes, /*approx=*/true);
    b_ = sys.alloc_region("heat.t1", bytes, /*approx=*/true);

    // Initial field: ambient temperature with a few hot sources along one
    // edge and a cold sink, all smooth after the first iterations.
    for (uint32_t r = 0; r < kN; ++r)
      for (uint32_t c = 0; c < kN; ++c) {
        float t = 20.0f;
        if (r == 0) t = 90.0f + 10.0f * std::sin(c * 0.05f);
        if (r == kN - 1) t = 5.0f;
        sys.store_f32(a_, at(r, c), t);
      }

    RegionHandle cur = a_, nxt = b_;
    for (uint32_t it = 0; it < kIters; ++it) {
      for (uint32_t r = 0; r < kN; ++r)
        for (uint32_t c = 0; c < kN; ++c) {
          if (r == 0 || r == kN - 1 || c == 0 || c == kN - 1) {
            sys.store_f32(nxt, at(r, c), sys.load_f32(cur, at(r, c)));
            continue;
          }
          const float up = sys.load_f32(cur, at(r - 1, c));
          const float dn = sys.load_f32(cur, at(r + 1, c));
          const float lf = sys.load_f32(cur, at(r, c - 1));
          const float rt = sys.load_f32(cur, at(r, c + 1));
          sys.store_f32(nxt, at(r, c), 0.25f * (up + dn + lf + rt));
        }
      std::swap(cur, nxt);
    }
    final_ = cur;
  }

  std::vector<double> output(const System& sys) const override {
    std::vector<double> out;
    out.reserve(uint64_t{kN} * kN);
    for (uint32_t r = 0; r < kN; ++r)
      for (uint32_t c = 0; c < kN; ++c)
        out.push_back(sys.peek_f32(final_, at(r, c)));
    return out;
  }

 private:
  uint64_t at(uint32_t r, uint32_t c) const {
    return (uint64_t{r} * kN + c) * sizeof(float);
  }
  RegionHandle a_, b_, final_;
};

}  // namespace

void link_heat_workload() {
  static const bool registered = register_workload("heat", [] {
    return std::unique_ptr<Workload>(new HeatWorkload());
  });
  (void)registered;
}

}  // namespace avr
