// lattice — 2D Lattice-Boltzmann (D2Q9, Ansumali et al. entropic-kinetic
// flavor simplified to BGK): air flow over a solid object. The paper uses a
// car silhouette as the obstacle; we synthesize an equivalent silhouette
// mask (a blocky car profile). Approximated data: the two distribution
// arrays (P and M in Table 2). Output: velocities and pressure (density).
// Paper: 5 MB/core, 9.6x compression.
#include <array>
#include <cmath>

#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class LatticeWorkload final : public Workload {
 public:
  static constexpr uint32_t kNx = 96;
  static constexpr uint32_t kNy = 64;
  static constexpr uint32_t kQ = 9;
  static constexpr uint32_t kIters = 24;

  std::string name() const override { return "lattice"; }
  uint64_t llc_bytes() const override { return 128 * 1024; }
  uint32_t t1_msbit() const override { return 7; }  // 0.78 %: iterative state

  void run(System& sys) override {
    const uint64_t dist_bytes = uint64_t{kNx} * kNy * kQ * sizeof(float);
    f_ = sys.alloc_region("lattice.P", dist_bytes, /*approx=*/true);
    g_ = sys.alloc_region("lattice.M", dist_bytes, /*approx=*/true);
    // Macroscopic output buffers are exact (they are the program output).
    rho_ = sys.alloc_region("lattice.rho", uint64_t{kNx} * kNy * sizeof(float), false);
    ux_ = sys.alloc_region("lattice.ux", uint64_t{kNx} * kNy * sizeof(float), false);
    uy_ = sys.alloc_region("lattice.uy", uint64_t{kNx} * kNy * sizeof(float), false);

    build_obstacle();

    // Equilibrium initialization with a uniform inflow velocity.
    for (uint32_t y = 0; y < kNy; ++y)
      for (uint32_t x = 0; x < kNx; ++x)
        for (uint32_t q = 0; q < kQ; ++q)
          sys.store_f32(f_, at(x, y, q), feq(q, 1.0f, kInflow, 0.0f));

    RegionHandle cur = f_, nxt = g_;
    for (uint32_t it = 0; it < kIters; ++it) {
      step(sys, cur, nxt);
      std::swap(cur, nxt);
    }

    // Final macroscopic fields = program output.
    for (uint32_t y = 0; y < kNy; ++y)
      for (uint32_t x = 0; x < kNx; ++x) {
        float rho = 0, mx = 0, my = 0;
        for (uint32_t q = 0; q < kQ; ++q) {
          const float fv = sys.load_f32(cur, at(x, y, q));
          rho += fv;
          mx += fv * kCx[q];
          my += fv * kCy[q];
        }
        sys.ops(8);
        const uint64_t idx = (uint64_t{y} * kNx + x) * sizeof(float);
        sys.store_f32(rho_, idx, rho);
        sys.store_f32(ux_, idx, rho > 1e-6f ? mx / rho : 0.0f);
        sys.store_f32(uy_, idx, rho > 1e-6f ? my / rho : 0.0f);
      }
  }

  std::vector<double> output(const System& sys) const override {
    // Output: pressure (density) and velocity magnitude per cell ("Vel.+Pr."
    // in Table 2); magnitude avoids the near-zero-component metric artifact.
    std::vector<double> out;
    out.reserve(2ull * kNx * kNy);
    for (uint64_t i = 0; i < uint64_t{kNx} * kNy; ++i) {
      out.push_back(sys.peek_f32(rho_, i * sizeof(float)));
      const double vx = sys.peek_f32(ux_, i * sizeof(float));
      const double vy = sys.peek_f32(uy_, i * sizeof(float));
      out.push_back(std::sqrt(vx * vx + vy * vy));
    }
    return out;
  }

 private:
  static constexpr float kInflow = 0.08f;
  static constexpr std::array<int, kQ> kCx = {0, 1, 0, -1, 0, 1, -1, -1, 1};
  static constexpr std::array<int, kQ> kCy = {0, 0, 1, 0, -1, 1, 1, -1, -1};
  static constexpr std::array<float, kQ> kW = {4.f / 9,  1.f / 9,  1.f / 9,
                                               1.f / 9,  1.f / 9,  1.f / 36,
                                               1.f / 36, 1.f / 36, 1.f / 36};
  static constexpr std::array<uint32_t, kQ> kOpp = {0, 3, 4, 1, 2, 7, 8, 5, 6};
  static constexpr float kOmega = 1.0f;  // BGK relaxation (stable)

  uint64_t at(uint32_t x, uint32_t y, uint32_t q) const {
    return ((uint64_t{q} * kNy + y) * kNx + x) * sizeof(float);
  }

  static float feq(uint32_t q, float rho, float ux, float uy) {
    const float cu = 3.0f * (kCx[q] * ux + kCy[q] * uy);
    const float usq = 1.5f * (ux * ux + uy * uy);
    return kW[q] * rho * (1.0f + cu + 0.5f * cu * cu - usq);
  }

  /// Blocky "car silhouette": cabin + hood + wheels, mirroring the paper's
  /// input of a car profile.
  void build_obstacle() {
    obstacle_.assign(uint64_t{kNx} * kNy, 0);
    auto solid = [&](uint32_t x0, uint32_t x1, uint32_t y0, uint32_t y1) {
      for (uint32_t y = y0; y < y1 && y < kNy; ++y)
        for (uint32_t x = x0; x < x1 && x < kNx; ++x)
          obstacle_[uint64_t{y} * kNx + x] = 1;
    };
    solid(30, 62, 10, 18);  // body
    solid(38, 54, 18, 25);  // cabin
    solid(32, 37, 6, 10);   // front wheel
    solid(55, 60, 6, 10);   // rear wheel
  }
  bool is_solid(uint32_t x, uint32_t y) const {
    return obstacle_[uint64_t{y} * kNx + x] != 0;
  }

  void step(System& sys, const RegionHandle& cur, const RegionHandle& nxt) {
    for (uint32_t y = 0; y < kNy; ++y)
      for (uint32_t x = 0; x < kNx; ++x) {
        if (is_solid(x, y)) {
          // Bounce-back: reflect distributions in place.
          for (uint32_t q = 0; q < kQ; ++q)
            sys.store_f32(nxt, at(x, y, q), sys.load_f32(cur, at(x, y, kOpp[q])));
          continue;
        }
        // Collide.
        float rho = 0, mx = 0, my = 0;
        std::array<float, kQ> fv;
        for (uint32_t q = 0; q < kQ; ++q) {
          fv[q] = sys.load_f32(cur, at(x, y, q));
          rho += fv[q];
          mx += fv[q] * kCx[q];
          my += fv[q] * kCy[q];
        }
        float ux = rho > 1e-6f ? mx / rho : 0.0f;
        float uy = rho > 1e-6f ? my / rho : 0.0f;
        if (x == 0) {  // inflow boundary drives the flow
          ux = kInflow;
          uy = 0.0f;
          rho = 1.0f;
        }
        sys.ops(20);
        // Stream into the neighbour cells (periodic wrap).
        for (uint32_t q = 0; q < kQ; ++q) {
          const float post = fv[q] + kOmega * (feq(q, rho, ux, uy) - fv[q]);
          const uint32_t xx = (x + kNx + kCx[q]) % kNx;
          const uint32_t yy = (y + kNy + kCy[q]) % kNy;
          sys.store_f32(nxt, at(xx, yy, q), post);
        }
      }
  }

  RegionHandle f_, g_, rho_, ux_, uy_;
  std::vector<uint8_t> obstacle_;
};

}  // namespace

void link_lattice_workload() {
  static const bool registered = register_workload("lattice", [] {
    return std::unique_ptr<Workload>(new LatticeWorkload());
  });
  (void)registered;
}

}  // namespace avr
