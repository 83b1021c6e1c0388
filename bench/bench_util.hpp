// Shared output helpers for the bench harnesses. The stream, the pretrained
// detectors and the per-strategy runners come from fleet/testbed.hpp.
#pragma once

#include <cstdint>
#include <iostream>

#include <sys/resource.h>

#include "sim/harness.hpp"

namespace shog::benchutil {

/// Peak resident set size of this process in MiB (getrusage ru_maxrss,
/// kilobytes on Linux). Process-wide high-water mark: it only ever grows,
/// so benches sampling it per row must run rows in ascending memory order
/// (the fleet_scale sweep runs N ascending for exactly this reason).
inline double peak_rss_mb() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return -1.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The harness the paper benches run every strategy under: the defaults,
/// with the RNG seed derived from the bench seed.
inline sim::Harness_config paper_harness(std::uint64_t seed) {
    sim::Harness_config harness;
    harness.seed = seed ^ 0x8888;
    return harness;
}

inline void print_result_line(const char* dataset, const sim::Run_result& r) {
    std::cout << "  [" << dataset << "] " << r.strategy << ": mAP@0.5=" << r.map * 100.0
              << "% up=" << r.up_kbps << "Kbps down=" << r.down_kbps
              << "Kbps fps=" << r.average_fps << " sessions=" << r.training_sessions
              << " cloudGPU=" << r.cloud_gpu_seconds << "s\n";
}

} // namespace shog::benchutil
