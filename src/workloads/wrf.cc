// wrf — weather-forecast proxy (SPEC CPU2006 481.wrf character): a
// multi-field atmospheric stencil over geographically ordered data. Only the
// geo-ordered weather metrics (~15 % of the footprint) are approximable;
// the prognostic state is exact. Terrain-driven fields are rough, so
// compression is modest (3.4x, Table 4) and AVR's impact small — the
// paper's "low benefit, low overhead" case.
// Output: the forecast temperature field.
#include <cmath>

#include "common/prng.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class WrfWorkload final : public Workload {
 public:
  static constexpr uint32_t kNx = 448;
  static constexpr uint32_t kNy = 448;
  static constexpr uint32_t kSteps = 3;

  std::string name() const override { return "wrf"; }
  uint64_t llc_bytes() const override { return 128 * 1024; }

  void run(System& sys) override {
    const uint64_t n = uint64_t{kNx} * kNy * sizeof(float);
    // Approximable geo metrics: surface temperature + humidity (2 of 7
    // fields ~ 15 % once scratch is counted, matching Table 2).
    temp_ = sys.alloc_region("wrf.temp", n, /*approx=*/true);
    humid_ = sys.alloc_region("wrf.humid", n, /*approx=*/true);
    // Exact prognostic/auxiliary state.
    press_ = sys.alloc_region("wrf.press", n, false);
    wind_u_ = sys.alloc_region("wrf.wind_u", n, false);
    wind_v_ = sys.alloc_region("wrf.wind_v", n, false);
    terrain_ = sys.alloc_region("wrf.terrain", n, false);
    scratch_ = sys.alloc_region("wrf.scratch", 5 * n, false);  // model working set

    init_fields(sys);

    for (uint32_t s = 0; s < kSteps; ++s) step(sys);
  }

  std::vector<double> output(const System& sys) const override {
    std::vector<double> out;
    out.reserve(uint64_t{kNx} * kNy);
    for (uint64_t i = 0; i < uint64_t{kNx} * kNy; ++i)
      out.push_back(sys.peek_f32(temp_, i * sizeof(float)));
    return out;
  }

 private:
  uint64_t at(uint32_t x, uint32_t y) const {
    return (uint64_t{y} * kNx + x) * sizeof(float);
  }

  /// Terrain: 2D value-noise fBm (rough). Temperature/humidity follow the
  /// terrain with lapse-rate structure, i.e. geographically ordered but with
  /// high-frequency content that limits downsampling.
  void init_fields(System& sys) {
    Xoshiro256 rng(1234);
    const uint32_t gs = 32;  // noise lattice
    std::vector<float> lattice[3];
    for (auto& l : lattice) {
      l.resize((gs + 1) * (gs + 1));
      for (auto& v : l) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    auto noise = [&](const std::vector<float>& l, float fx, float fy) {
      // Periodic lattice: wrap coordinates so any octave frequency is valid.
      const uint32_t ix = static_cast<uint32_t>(fx), iy = static_cast<uint32_t>(fy);
      const float tx = fx - ix, ty = fy - iy;
      const uint32_t x0 = ix % gs, y0 = iy % gs;
      const float a = l[y0 * (gs + 1) + x0], b = l[y0 * (gs + 1) + x0 + 1];
      const float c = l[(y0 + 1) * (gs + 1) + x0], d = l[(y0 + 1) * (gs + 1) + x0 + 1];
      return (a * (1 - tx) + b * tx) * (1 - ty) + (c * (1 - tx) + d * tx) * ty;
    };
    for (uint32_t y = 0; y < kNy; ++y)
      for (uint32_t x = 0; x < kNx; ++x) {
        float h = 0, amp = 800.0f, freq = 4.0f;
        for (int oct = 0; oct < 3; ++oct) {
          h += amp * noise(lattice[oct], freq * x / kNx * (gs / 8.0f),
                           freq * y / kNy * (gs / 8.0f));
          amp *= 0.45f;
          freq *= 2.7f;
        }
        const float elev = std::max(0.0f, 500.0f + h);
        sys.store_f32(terrain_, at(x, y), elev);
        // Temperature in Celsius: 6.5 K/km lapse rate + synoptic gradient +
        // strong local roughness (surface heterogeneity). This value scale
        // is what limits wrf to the paper's modest 3.4x compression.
        const float t =
            18.0f - 0.0065f * elev + 4.0f * std::sin(0.013f * x) +
            0.8f * static_cast<float>(rng.uniform(-1.0, 1.0));
        sys.store_f32(temp_, at(x, y), t);
        sys.store_f32(humid_, at(x, y),
                      std::clamp(0.7f - elev / 4000.0f +
                                     0.04f * static_cast<float>(rng.uniform(-1.0, 1.0)),
                                 0.05f, 1.0f));
        sys.store_f32(press_, at(x, y), 1013.0f * std::exp(-elev / 8400.0f));
        sys.store_f32(wind_u_, at(x, y), 3.0f + 0.5f * std::sin(0.02f * y));
        sys.store_f32(wind_v_, at(x, y), 1.0f);
      }
  }

  void step(System& sys) {
    // Semi-Lagrangian-ish advection + diffusion of temperature/humidity by
    // the wind field, with pressure coupling; interior points only.
    for (uint32_t y = 1; y + 1 < kNy; ++y)
      for (uint32_t x = 1; x + 1 < kNx; ++x) {
        const float u = sys.load_f32(wind_u_, at(x, y));
        const float v = sys.load_f32(wind_v_, at(x, y));
        const float t = sys.load_f32(temp_, at(x, y));
        const float tl = sys.load_f32(temp_, at(x - 1, y));
        const float tr = sys.load_f32(temp_, at(x + 1, y));
        const float tu = sys.load_f32(temp_, at(x, y - 1));
        const float td = sys.load_f32(temp_, at(x, y + 1));
        const float h = sys.load_f32(humid_, at(x, y));
        const float p = sys.load_f32(press_, at(x, y));
        const float adv = -0.02f * (u * (tr - tl) + v * (td - tu));
        const float diff = 0.05f * (tl + tr + tu + td - 4 * t);
        const float latent = 0.3f * h * std::max(0.0f, t - 10.0f) * 0.01f;
        sys.ops(30);
        sys.store_f32(temp_, at(x, y), t + adv + diff + latent * (p / 1013.0f));
        sys.store_f32(humid_, at(x, y),
                      std::clamp(h - 0.002f * latent + 0.0005f * diff, 0.0f, 1.0f));
      }
  }

  RegionHandle temp_, humid_, press_, wind_u_, wind_v_, terrain_, scratch_;
};

}  // namespace

void link_wrf_workload() {
  static const bool registered = register_workload("wrf", [] {
    return std::unique_ptr<Workload>(new WrfWorkload());
  });
  (void)registered;
}

}  // namespace avr
