// Bit images for exact comparisons: EXPECT_EQ on them compares every double
// bit for bit, so -0.0 differs from 0.0 and a NaN equals itself, which
// EXPECT_DOUBLE_EQ and vector<double>::operator== do not give.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/replay_memory.hpp"

namespace shog::testing {

[[nodiscard]] inline std::vector<std::uint64_t> bits(const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    out.reserve(values.size());
    for (const double v : values) {
        out.push_back(std::bit_cast<std::uint64_t>(v));
    }
    return out;
}

/// A replay memory's training-run count, then every sample's activation,
/// label, box target and weight.
[[nodiscard]] inline std::vector<std::uint64_t> memory_bits(const core::Replay_memory& memory) {
    std::vector<std::uint64_t> out{memory.training_runs()};
    for (const core::Replay_sample& s : memory.samples()) {
        const std::vector<std::uint64_t> activation = bits(s.activation);
        out.insert(out.end(), activation.begin(), activation.end());
        out.push_back(s.class_label);
        for (const double v : s.box_target) {
            out.push_back(std::bit_cast<std::uint64_t>(v));
        }
        out.push_back(std::bit_cast<std::uint64_t>(s.weight));
    }
    return out;
}

} // namespace shog::testing
