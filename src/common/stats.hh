// The record snapshot of a design's counters.
//
// Components count in plain fields on their hot paths; a StatGroup is built
// from them on demand, never per access. LlcSystem::stats() builds the one
// that becomes the `detail` map of a run's record.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace avr {

class StatGroup {
 public:
  void add(const std::string& key, uint64_t delta = 1) { counters_[key] += delta; }
  /// Snapshot-builder helper: record `value` only when nonzero, so a flat
  /// counter that was never bumped stays absent — exactly as a never-added
  /// map key would be. Every component's stats() builder relies on this for
  /// byte-identical reporting versus the old map-backed counters.
  void add_nonzero(const std::string& key, uint64_t value) {
    if (value) counters_[key] += value;
  }

  uint64_t get(const std::string& key) const {
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
  }

  const std::map<std::string, uint64_t>& counters() const { return counters_; }

 private:
  std::map<std::string, uint64_t> counters_;
};

}  // namespace avr
