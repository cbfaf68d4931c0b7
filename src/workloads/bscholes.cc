// bscholes — Black-Scholes option pricing (AxBench flavor). Predicts option
// prices from per-option parameters. The input data has fields that repeat
// across many entries (noted in Sec. 4.3 as what Doppelganger exploits).
// Approximated data: the input parameter arrays (~30 % of the footprint).
// Output: the option prices. Compute-bound: each option carries substantial
// arithmetic, so memory designs have limited impact (as in the paper).
#include <cmath>

#include "common/prng.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

class BscholesWorkload final : public Workload {
 public:
  static constexpr uint32_t kOptions = 24 * 1024;
  static constexpr uint32_t kRounds = 4;  // re-priced per "trading day"

  std::string name() const override { return "bscholes"; }
  uint64_t llc_bytes() const override { return 128 * 1024; }
  uint32_t t1_msbit() const override { return 6; }  // 1.56 %: price inputs

  void run(System& sys) override {
    const uint64_t n = kOptions * sizeof(float);
    // ~30 % of the footprint approximable: spot/strike/vol inputs.
    spot_ = sys.alloc_region("bs.spot", n, /*approx=*/true);
    strike_ = sys.alloc_region("bs.strike", n, /*approx=*/true);
    vol_ = sys.alloc_region("bs.vol", n, /*approx=*/true);
    rate_ = sys.alloc_region("bs.rate", n, /*approx=*/false);
    time_ = sys.alloc_region("bs.time", n, /*approx=*/false);
    price_ = sys.alloc_region("bs.price", n, /*approx=*/false);
    put_ = sys.alloc_region("bs.put", n, /*approx=*/false);

    // Inputs are laid out as option *chains*: consecutive entries belong to
    // the same underlying, so the spot field repeats for a whole chain, the
    // strikes form an ascending ladder and the implied-vol smile varies
    // smoothly across it — the repeated-field structure the paper notes in
    // the AxBench dataset (and what Doppelganger deduplicates).
    Xoshiro256 rng(7);
    constexpr uint32_t kChain = 128;  // options per underlying
    for (uint32_t u = 0; u < kOptions / kChain; ++u) {
      const float spot = 80.0f + 0.5f * static_cast<float>(rng.below(120));
      const float base_vol = 0.12f + 0.02f * static_cast<float>(rng.below(8));
      const float rate = 0.01f * static_cast<float>(1 + rng.below(5));
      const float tte = 0.25f * static_cast<float>(1 + rng.below(8));
      for (uint32_t j = 0; j < kChain; ++j) {
        const uint32_t i = u * kChain + j;
        const float moneyness = 0.5f + static_cast<float>(j) / kChain;  // 0.5..1.5
        const float strike = spot * moneyness;
        // Volatility smile: quadratic in log-moneyness.
        const float lm = std::log(moneyness);
        const float vol = base_vol + 0.25f * lm * lm;
        sys.store_f32(spot_, i * 4ull, spot);
        sys.store_f32(strike_, i * 4ull, strike);
        sys.store_f32(vol_, i * 4ull, vol);
        sys.store_f32(rate_, i * 4ull, rate);
        sys.store_f32(time_, i * 4ull, tte);
      }
    }

    for (uint32_t round = 0; round < kRounds; ++round) {
      for (uint32_t i = 0; i < kOptions; ++i) {
        const float s = sys.load_f32(spot_, i * 4ull);
        const float k = sys.load_f32(strike_, i * 4ull);
        const float v = sys.load_f32(vol_, i * 4ull);
        const float r = sys.load_f32(rate_, i * 4ull);
        const float t = sys.load_f32(time_, i * 4ull);
        const auto [call, put] = black_scholes(s, k, v, r, t);
        sys.ops(320);  // exp/log/sqrt/CNDF pipeline per option
        sys.store_f32(price_, i * 4ull, call);
        sys.store_f32(put_, i * 4ull, put);
      }
    }
  }

  std::vector<double> output(const System& sys) const override {
    std::vector<double> out;
    out.reserve(2ull * kOptions);
    for (uint32_t i = 0; i < kOptions; ++i) {
      out.push_back(sys.peek_f32(price_, i * 4ull));
      out.push_back(sys.peek_f32(put_, i * 4ull));
    }
    return out;
  }

 private:
  static float cndf(float x) {
    return 0.5f * std::erfc(-x * 0.70710678f);
  }
  static std::pair<float, float> black_scholes(float s, float k, float v, float r,
                                               float t) {
    const float sq = v * std::sqrt(t);
    const float d1 = (std::log(s / k) + (r + 0.5f * v * v) * t) / sq;
    const float d2 = d1 - sq;
    const float disc = std::exp(-r * t);
    const float call = s * cndf(d1) - k * disc * cndf(d2);
    const float put = k * disc * cndf(-d2) - s * cndf(-d1);
    return {call, put};
  }

  RegionHandle spot_, strike_, vol_, rate_, time_, price_, put_;
};

}  // namespace

void link_bscholes_workload() {
  static const bool registered = register_workload("bscholes", [] {
    return std::unique_ptr<Workload>(new BscholesWorkload());
  });
  (void)registered;
}

}  // namespace avr
