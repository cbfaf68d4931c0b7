// lbm — 3D Lattice-Boltzmann (SPEC CPU2006 470.lbm character): fluid flow
// around a sphere, D3Q7 stencil scaled to simulator size. ~98 % of the
// footprint (the two distribution arrays) is approximable; the flow field is
// very smooth, giving the paper's highest compression (15.6x).
// Output: the velocity field.
#include <array>
#include <cmath>

#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class Lbm3dWorkload final : public Workload {
 public:
  static constexpr uint32_t kN = 40;  // cubic grid side
  static constexpr uint32_t kQ = 7;   // D3Q7
  static constexpr uint32_t kIters = 8;

  std::string name() const override { return "lbm"; }
  uint64_t llc_bytes() const override { return 64 * 1024; }
  uint32_t t1_msbit() const override { return 7; }  // 0.78 %: iterative state

  void run(System& sys) override {
    const uint64_t cells = uint64_t{kN} * kN * kN;
    const uint64_t dist_bytes = cells * kQ * sizeof(float);
    f_ = sys.alloc_region("lbm.f", dist_bytes, /*approx=*/true);
    g_ = sys.alloc_region("lbm.g", dist_bytes, /*approx=*/true);
    out_ = sys.alloc_region("lbm.vel", cells * 3 * sizeof(float), /*approx=*/false);

    // Sphere obstacle in the middle of the duct.
    obstacle_.assign(cells, 0);
    const float cx = kN / 2.0f, cy = kN / 2.0f, cz = kN / 2.0f, r = kN / 6.0f;
    for (uint32_t z = 0; z < kN; ++z)
      for (uint32_t y = 0; y < kN; ++y)
        for (uint32_t x = 0; x < kN; ++x) {
          const float dx = x - cx, dy = y - cy, dz = z - cz;
          if (dx * dx + dy * dy + dz * dz < r * r)
            obstacle_[cell(x, y, z)] = 1;
        }

    for (uint64_t c = 0; c < cells; ++c)
      for (uint32_t q = 0; q < kQ; ++q)
        sys.store_f32(f_, (q * cells + c) * sizeof(float),
                      feq(q, 1.0f, kInflow, 0.0f, 0.0f));

    RegionHandle cur = f_, nxt = g_;
    for (uint32_t it = 0; it < kIters; ++it) {
      step(sys, cur, nxt, cells);
      std::swap(cur, nxt);
    }

    for (uint64_t c = 0; c < cells; ++c) {
      float rho = 0, mx = 0, my = 0, mz = 0;
      for (uint32_t q = 0; q < kQ; ++q) {
        const float fv = sys.load_f32(cur, (q * cells + c) * sizeof(float));
        rho += fv;
        mx += fv * kCx[q];
        my += fv * kCy[q];
        mz += fv * kCz[q];
      }
      sys.ops(10);
      const float inv = rho > 1e-6f ? 1.0f / rho : 0.0f;
      sys.store_f32(out_, (c * 3 + 0) * sizeof(float), mx * inv);
      sys.store_f32(out_, (c * 3 + 1) * sizeof(float), my * inv);
      sys.store_f32(out_, (c * 3 + 2) * sizeof(float), mz * inv);
    }
  }

  std::vector<double> output(const System& sys) const override {
    // Output metric: per-cell velocity magnitude (the "velocities" output of
    // Table 2). Components near zero would make a per-value relative metric
    // meaningless; magnitude is the physically reported quantity.
    const uint64_t cells = uint64_t{kN} * kN * kN;
    std::vector<double> out;
    out.reserve(cells);
    for (uint64_t c = 0; c < cells; ++c) {
      const double vx = sys.peek_f32(out_, (c * 3 + 0) * sizeof(float));
      const double vy = sys.peek_f32(out_, (c * 3 + 1) * sizeof(float));
      const double vz = sys.peek_f32(out_, (c * 3 + 2) * sizeof(float));
      out.push_back(std::sqrt(vx * vx + vy * vy + vz * vz));
    }
    return out;
  }

 private:
  static constexpr float kInflow = 0.05f;
  static constexpr std::array<int, kQ> kCx = {0, 1, -1, 0, 0, 0, 0};
  static constexpr std::array<int, kQ> kCy = {0, 0, 0, 1, -1, 0, 0};
  static constexpr std::array<int, kQ> kCz = {0, 0, 0, 0, 0, 1, -1};
  static constexpr std::array<uint32_t, kQ> kOpp = {0, 2, 1, 4, 3, 6, 5};
  static constexpr float kW0 = 1.0f / 4.0f, kWi = 1.0f / 8.0f;
  static constexpr float kOmega = 1.0f;

  static uint64_t cell(uint32_t x, uint32_t y, uint32_t z) {
    return (uint64_t{z} * kN + y) * kN + x;
  }
  static float feq(uint32_t q, float rho, float ux, float uy, float uz) {
    const float w = q == 0 ? kW0 : kWi;
    const float cu = 4.0f * (kCx[q] * ux + kCy[q] * uy + kCz[q] * uz);
    const float usq = 2.0f * (ux * ux + uy * uy + uz * uz);
    return w * rho * (1.0f + cu + 0.5f * cu * cu - usq);
  }

  void step(System& sys, const RegionHandle& cur, const RegionHandle& nxt,
            uint64_t cells) {
    for (uint32_t z = 0; z < kN; ++z)
      for (uint32_t y = 0; y < kN; ++y)
        for (uint32_t x = 0; x < kN; ++x) {
          const uint64_t c = cell(x, y, z);
          if (obstacle_[c]) {
            for (uint32_t q = 0; q < kQ; ++q)
              sys.store_f32(nxt, (q * cells + c) * sizeof(float),
                            sys.load_f32(cur, (kOpp[q] * cells + c) * sizeof(float)));
            continue;
          }
          float rho = 0, mx = 0, my = 0, mz = 0;
          std::array<float, kQ> fv;
          for (uint32_t q = 0; q < kQ; ++q) {
            fv[q] = sys.load_f32(cur, (q * cells + c) * sizeof(float));
            rho += fv[q];
            mx += fv[q] * kCx[q];
            my += fv[q] * kCy[q];
            mz += fv[q] * kCz[q];
          }
          float ux = rho > 1e-6f ? mx / rho : 0, uy = rho > 1e-6f ? my / rho : 0,
                uz = rho > 1e-6f ? mz / rho : 0;
          if (x == 0) {
            ux = kInflow;
            uy = uz = 0;
            rho = 1.0f;
          }
          sys.ops(24);
          for (uint32_t q = 0; q < kQ; ++q) {
            const float post = fv[q] + kOmega * (feq(q, rho, ux, uy, uz) - fv[q]);
            const uint32_t xx = (x + kN + kCx[q]) % kN;
            const uint32_t yy = (y + kN + kCy[q]) % kN;
            const uint32_t zz = (z + kN + kCz[q]) % kN;
            sys.store_f32(nxt, (q * cells + cell(xx, yy, zz)) * sizeof(float), post);
          }
        }
  }

  RegionHandle f_, g_, out_;
  std::vector<uint8_t> obstacle_;
};

}  // namespace

void link_lbm_workload() {
  static const bool registered = register_workload("lbm", [] {
    return std::unique_ptr<Workload>(new Lbm3dWorkload());
  });
  (void)registered;
}

}  // namespace avr
