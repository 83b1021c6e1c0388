// Suite-wide pretrained state for gtest fixtures: one fleet::Testbed (the
// preset's camera streams plus the student/teacher pair pretrained on its
// world from one seed). Pretraining dominates suite set-up, so it runs once
// per test suite (SetUpTestSuite) rather than once per test; tests clone
// the student when they train it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fleet/testbed.hpp"

namespace shog {

/// CRTP base: each `Suite` gets its own testbed. The derived fixture calls
/// load(preset, seed[, cameras]) from its SetUpTestSuite();
/// TearDownTestSuite() releases it after the suite's last test.
template <typename Suite>
struct Pretrained_fixture : public ::testing::Test {
    static void load(const video::Dataset_preset& preset, std::uint64_t seed,
                     std::size_t cameras = 1) {
        testbed = std::make_unique<fleet::Testbed>(fleet::make_testbed(preset, cameras, seed));
    }
    static void TearDownTestSuite() { testbed.reset(); }

    /// Camera 0 and the pretrained pair.
    static const video::Video_stream& stream() { return *testbed->streams.front(); }
    static models::Detector& student() { return *testbed->pristine; }
    static models::Detector& teacher() { return *testbed->teacher; }

    static inline std::unique_ptr<fleet::Testbed> testbed;
};

} // namespace shog
