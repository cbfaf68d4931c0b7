// kmeans — 1D k-means clustering over a geographic elevation map (the paper
// uses the Swedish Topological Survey HDB 50+ tile; we synthesize fractal
// terrain with the same character: long-range trends plus rough local
// detail, which is why the paper sees only 2.3x compression here).
// Approximated data: the elevation samples. Output: the cluster centroids.
//
// Note (Sec. 4.3): kmeans is the one benchmark whose *work* depends on the
// approximation quality — degraded values change how many iterations
// convergence takes, which the paper calls out for AVR.
#include <cmath>

#include "common/prng.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class KmeansWorkload final : public Workload {
 public:
  static constexpr uint32_t kPoints = 96 * 1024;
  static constexpr uint32_t kK = 12;
  static constexpr uint32_t kMaxIters = 30;  // Lloyd iteration cap (sklearn-style)

  std::string name() const override { return "kmeans"; }
  uint64_t llc_bytes() const override { return 64 * 1024; }

  void run(System& sys) override {
    data_ = sys.alloc_region("kmeans.elevation", kPoints * sizeof(float),
                             /*approx=*/true);
    cent_ = sys.alloc_region("kmeans.centroids", kK * sizeof(float),
                             /*approx=*/false);

    synthesize_terrain(sys);

    // Initial centroids spread over the elevation range.
    for (uint32_t k = 0; k < kK; ++k)
      sys.store_f32(cent_, k * sizeof(float),
                    100.0f + 900.0f * static_cast<float>(k) / (kK - 1));

    std::vector<double> sums(kK);
    std::vector<uint64_t> counts(kK);
    float prev_shift = 1e30f;
    for (uint32_t it = 0; it < kMaxIters; ++it) {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      // Assignment pass (streams the whole elevation array).
      for (uint32_t i = 0; i < kPoints; ++i) {
        const float v = sys.load_f32(data_, uint64_t{i} * sizeof(float));
        uint32_t best = 0;
        float best_d = 1e30f;
        for (uint32_t k = 0; k < kK; ++k) {
          const float c = sys.load_f32(cent_, k * sizeof(float));
          const float d = std::abs(v - c);
          if (d < best_d) {
            best_d = d;
            best = k;
          }
        }
        sys.ops(2 * kK);
        sums[best] += v;
        counts[best] += 1;
      }
      // Update pass.
      float shift = 0;
      for (uint32_t k = 0; k < kK; ++k) {
        if (counts[k] == 0) continue;
        const float nc = static_cast<float>(sums[k] / counts[k]);
        shift += std::abs(nc - sys.load_f32(cent_, k * sizeof(float)));
        sys.store_f32(cent_, k * sizeof(float), nc);
      }
      sys.ops(8 * kK);
      iterations_ = it + 1;
      // Converged when total centroid motion is well below the cluster
      // spacing (robust to approximation-level jitter in the data).
      if (shift < 2.0f && prev_shift < 2.0f) break;
      prev_shift = shift;
    }
  }

  std::vector<double> output(const System& sys) const override {
    std::vector<double> out;
    out.reserve(kK);
    for (uint32_t k = 0; k < kK; ++k)
      out.push_back(sys.peek_f32(cent_, k * sizeof(float)));
    return out;
  }

  uint32_t iterations() const { return iterations_; }

 private:
  /// Midpoint-displacement fractal terrain in [0, 1200] m: smooth at long
  /// range, rough locally (elevation data character).
  void synthesize_terrain(System& sys) {
    std::vector<float> h(kPoints);
    Xoshiro256 rng(42);
    h[0] = 400.0f;
    h[kPoints - 1] = 600.0f;
    struct Seg {
      uint32_t lo, hi;
      float amp;
    };
    std::vector<Seg> stack{{0, kPoints - 1, 350.0f}};
    while (!stack.empty()) {
      const Seg s = stack.back();
      stack.pop_back();
      if (s.hi - s.lo < 2) continue;
      const uint32_t mid = (s.lo + s.hi) / 2;
      h[mid] = 0.5f * (h[s.lo] + h[s.hi]) +
               s.amp * static_cast<float>(rng.uniform(-1.0, 1.0));
      stack.push_back({s.lo, mid, s.amp * 0.62f});
      stack.push_back({mid, s.hi, s.amp * 0.62f});
    }
    // Survey-grade elevation is bimodal: small measurement noise everywhere
    // plus frequent large spikes (tree canopy, buildings, ridges). The
    // spikes become AVR outliers, which is what limits the paper's kmeans
    // compression to 2.3x while the block-average error stays within T2.
    for (uint32_t i = 0; i < kPoints; ++i) {
      const float v = std::clamp(h[i], 0.0f, 1200.0f);
      float rough =
          0.012f * (v + 150.0f) * static_cast<float>(rng.uniform(-1.0, 1.0));
      if (rng.uniform() < 0.33)  // canopy/building spike -> outlier
        rough += 0.25f * (v + 150.0f) * static_cast<float>(rng.uniform(-1.0, 1.0));
      sys.store_f32(data_, uint64_t{i} * sizeof(float),
                    std::max(0.0f, v + rough));
    }
  }

  RegionHandle data_, cent_;
  uint32_t iterations_ = 0;
};

}  // namespace

void link_kmeans_workload() {
  static const bool registered = register_workload("kmeans", [] {
    return std::unique_ptr<Workload>(new KmeansWorkload());
  });
  (void)registered;
}

}  // namespace avr
