#include "runtime/system.hh"

#include <stdexcept>
#include <string>

#include "avr/avr_system.hh"
#include "baselines/baseline_system.hh"
#include "baselines/doppelganger_system.hh"
#include "baselines/truncate_system.hh"
#include "common/config_table.hh"

namespace avr {

System::System(Design design, SimConfig cfg, uint32_t num_cores, bool timing)
    : design_(design), cfg_(cfg) {
  if (num_cores != 1)
    throw std::invalid_argument("System: num_cores must be 1, got " +
                                std::to_string(num_cores));
  // A bad config fails here, naming the knob, instead of dividing by zero
  // or shifting out of range somewhere in the model.
  validate_config(cfg_);
  if (!timing) return;  // golden/functional run: no machinery at all
  MemoryHierarchy::LlcRequestFn request_fn = nullptr;
  switch (design) {
    case Design::kBaseline:
      llc_ = std::make_unique<BaselineSystem>(cfg_, regions_);
      request_fn = &llc_request_thunk<BaselineSystem>;
      break;
    case Design::kTruncate:
      llc_ = std::make_unique<TruncateSystem>(cfg_, regions_);
      request_fn = &llc_request_thunk<TruncateSystem>;
      break;
    case Design::kDoppelganger:
      llc_ = std::make_unique<DoppelgangerSystem>(cfg_, regions_);
      request_fn = &llc_request_thunk<DoppelgangerSystem>;
      break;
    case Design::kZeroAvr:
    case Design::kAvr:
      llc_ = std::make_unique<AvrSystem>(cfg_, regions_);
      request_fn = &llc_request_thunk<AvrSystem>;
      break;
  }
  hier_ = std::make_unique<MemoryHierarchy>(cfg_, *llc_, 1, request_fn);
  core_ = std::make_unique<IntervalCore>(cfg_.core, *hier_, 0);
  ops_per_access_ = cfg_.ops_per_access;
}

System::~System() = default;

uint64_t System::alloc(const std::string& name, uint64_t bytes, bool approx,
                       DType dtype) {
  // ZeroAVR measures the AVR hardware with *nothing* marked approximate.
  const bool effective_approx = design_ == Design::kZeroAvr ? false : approx;
  return regions_.allocate(name, bytes, effective_approx, dtype);
}

void System::finish() {
  if (finished_ || !core_) return;
  finished_ = true;
  hier_->drain(core_->cycles());
}

RunMetrics System::metrics() const {
  RunMetrics m;
  m.footprint_bytes = regions_.total_bytes();
  m.approx_bytes = regions_.approx_bytes();
  if (!core_) return m;

  m.cycles = core_->cycles();
  m.instructions = core_->instructions();
  m.ipc = core_->ipc();
  m.amat = hier_->amat();
  m.llc_requests = hier_->llc_requests();
  m.llc_misses = hier_->llc_misses();
  m.llc_mpki = m.instructions
                   ? 1000.0 * static_cast<double>(m.llc_misses) / m.instructions
                   : 0;

  const Dram& dram = llc_->dram();
  m.dram_bytes = dram.total_bytes();
  m.dram_bytes_approx = dram.approx_bytes();
  m.dram_bytes_other = dram.other_bytes();
  m.detail = llc_->stats().counters();

  EnergyEvents e;
  const bool is_avr = design_ == Design::kAvr || design_ == Design::kZeroAvr;
  if (is_avr) {
    const auto& avr = static_cast<const AvrSystem&>(*llc_);
    m.metadata_bytes = avr.cmt().metadata_traffic_bytes();
    m.compression_ratio = avr.mean_compression_ratio();
    e.compressions = avr.counters().compress_attempts;
    e.decompressions = avr.counters().decompressions;
  }

  e.instructions = m.instructions;
  e.cycles = m.cycles;
  e.l1_accesses = hier_->l1_accesses();
  e.l2_accesses = hier_->l2_accesses();
  e.llc_accesses = m.llc_requests;
  e.dram_bytes = m.dram_bytes + m.metadata_bytes;
  e.dram_activations = dram.activations();
  e.has_compressor = is_avr;
  m.energy = compute_energy(e);
  return m;
}

}  // namespace avr
