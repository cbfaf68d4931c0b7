// orbit — the FLASH two-particle orbit problem: integrate two gravitating
// bodies and record their trajectory history. Roughly half the footprint
// (the position/velocity history, laid out SoA so each coordinate series is
// smooth) is approximable and compresses almost perfectly (16x, Table 4);
// the other half (analysis scratch) is exact.
// Output: sampled physical data (separation, energy, momentum over time).
//
// This is the benchmark where Doppelganger's span artefacts blow up
// (>100 % error): coordinate series swing across +/-R, and lines at the
// extremes of the span alias onto each other.
#include <cmath>

#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class OrbitWorkload final : public Workload {
 public:
  static constexpr uint32_t kSteps = 192 * 1024;
  static constexpr uint32_t kSample = 64;  // output every kSample steps

  std::string name() const override { return "orbit"; }
  uint64_t llc_bytes() const override { return 64 * 1024; }

  void run(System& sys) override {
    const uint64_t n = uint64_t{kSteps} * sizeof(float);
    // Trajectory history, one series per coordinate (SoA): approximable.
    for (int c = 0; c < 6; ++c)
      pos_[c] = sys.alloc_region("orbit.pos" + std::to_string(c), n, /*approx=*/true);
    for (int c = 0; c < 6; ++c)
      vel_[c] = sys.alloc_region("orbit.vel" + std::to_string(c), n, /*approx=*/true);
    // Analysis buffers: exact (program output).
    const uint64_t samples = kSteps / kSample;
    sep_ = sys.alloc_region("orbit.sep", samples * sizeof(float), false);
    energy_ = sys.alloc_region("orbit.energy", samples * sizeof(float), false);
    angmom_ = sys.alloc_region("orbit.angmom", samples * sizeof(float), false);

    // Leapfrog integration of a mildly eccentric orbit (G*m = 1).
    double p1[3] = {1.0, 0.0, 0.05}, p2[3] = {-1.0, 0.0, -0.05};
    double v1[3] = {0.0, 0.45, 0.0}, v2[3] = {0.0, -0.45, 0.0};
    for (uint32_t s = 0; s < kSteps; ++s) {
      integrate(p1, p2, v1, v2);
      sys.ops(60);
      for (int c = 0; c < 3; ++c) {
        sys.store_f32(pos_[c], s * 4ull, static_cast<float>(p1[c]));
        sys.store_f32(pos_[c + 3], s * 4ull, static_cast<float>(p2[c]));
        sys.store_f32(vel_[c], s * 4ull, static_cast<float>(v1[c]));
        sys.store_f32(vel_[c + 3], s * 4ull, static_cast<float>(v2[c]));
      }
    }

    // Analysis pass reads the recorded (possibly approximated) history.
    for (uint32_t s = 0; s < kSteps; s += kSample) {
      float q1[3], q2[3], w1[3], w2[3];
      for (int c = 0; c < 3; ++c) {
        q1[c] = sys.load_f32(pos_[c], s * 4ull);
        q2[c] = sys.load_f32(pos_[c + 3], s * 4ull);
        w1[c] = sys.load_f32(vel_[c], s * 4ull);
        w2[c] = sys.load_f32(vel_[c + 3], s * 4ull);
      }
      const float dx = q1[0] - q2[0], dy = q1[1] - q2[1], dz = q1[2] - q2[2];
      const float r = std::sqrt(dx * dx + dy * dy + dz * dz);
      const float ke = 0.5f * (dot(w1, w1) + dot(w2, w2));
      const float pe = r > 1e-6f ? -1.0f / r : 0.0f;
      const float lz = q1[0] * w1[1] - q1[1] * w1[0] + q2[0] * w2[1] - q2[1] * w2[0];
      sys.ops(40);
      const uint64_t i = s / kSample;
      sys.store_f32(sep_, i * 4ull, r);
      sys.store_f32(energy_, i * 4ull, ke + pe);
      sys.store_f32(angmom_, i * 4ull, lz);
    }
  }

  std::vector<double> output(const System& sys) const override {
    const uint64_t samples = kSteps / kSample;
    std::vector<double> out;
    out.reserve(samples * 3);
    for (uint64_t i = 0; i < samples; ++i) {
      out.push_back(sys.peek_f32(sep_, i * 4ull));
      out.push_back(sys.peek_f32(energy_, i * 4ull));
      out.push_back(sys.peek_f32(angmom_, i * 4ull));
    }
    return out;
  }

 private:
  static float dot(const float a[3], const float b[3]) {
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
  }
  static void integrate(double p1[3], double p2[3], double v1[3], double v2[3]) {
    constexpr double dt = 1e-3;
    double d[3] = {p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]};
    const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    const double inv_r3 = 1.0 / (std::sqrt(r2) * r2);
    for (int c = 0; c < 3; ++c) {
      const double a = d[c] * inv_r3;  // G*m = 1 for both bodies
      v1[c] += a * dt;
      v2[c] -= a * dt;
    }
    for (int c = 0; c < 3; ++c) {
      p1[c] += v1[c] * dt;
      p2[c] += v2[c] * dt;
    }
  }

  RegionHandle pos_[6], vel_[6];
  RegionHandle sep_, energy_, angmom_;
};

}  // namespace

void link_orbit_workload() {
  static const bool registered = register_workload("orbit", [] {
    return std::unique_ptr<Workload>(new OrbitWorkload());
  });
  (void)registered;
}

}  // namespace avr
