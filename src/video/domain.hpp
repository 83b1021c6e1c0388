// Scene domains and their evolution over time.
//
// The paper's data-drift setting (Fig. 1) is a video whose *domain* —
// illumination, weather, crowd density — changes over minutes-to-hours,
// shifting the feature distribution of the same object classes. This module
// models a domain as a small continuous state and a schedule as piecewise
// holds with linear ramp transitions, optionally cycling (so earlier domains
// recur, which is what makes catastrophic forgetting observable).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace shog::video {

enum class Weather { sunny, cloudy, rainy };

[[nodiscard]] const char* to_string(Weather w) noexcept;

struct Domain {
    double illumination = 1.0; ///< 0 = pitch night, 1 = bright day
    Weather weather = Weather::sunny;
    double density = 0.5; ///< traffic density scale in [0, 1]
    double clutter = 0.3; ///< background clutter level in [0, 1]

    bool operator==(const Domain&) const = default;
};

/// A perceptual distance between domains; drives drift-rate measurement and
/// the synthetic H.264 motion estimate during transitions.
[[nodiscard]] double domain_distance(const Domain& a, const Domain& b) noexcept;

/// Piecewise-constant segments joined by linear ramps.
class Domain_schedule {
public:
    struct Segment {
        Domain domain;
        double hold; ///< time spent inside the domain (excluding ramps)
    };

    /// `ramp` is the transition duration inserted between consecutive
    /// segments. If `cycle` is true the schedule repeats indefinitely.
    Domain_schedule(std::vector<Segment> segments, double ramp, bool cycle);

    /// Domain at absolute stream time t (>= 0).
    [[nodiscard]] Domain at(double t) const;

    /// One full pass through all segments + ramps.
    [[nodiscard]] double period() const noexcept { return period_; }

    [[nodiscard]] bool cycles() const noexcept { return cycle_; }
    [[nodiscard]] std::size_t segment_count() const noexcept { return segments_.size(); }
    [[nodiscard]] const Segment& segment(std::size_t i) const;

    /// Finite-difference drift speed (domain distance per second) at t.
    [[nodiscard]] double drift_rate(double t, double dt = 1.0) const;

private:
    std::vector<Segment> segments_;
    double ramp_;
    bool cycle_;
    double period_ = 0.0;

    /// Start time of segment i's hold within one period.
    [[nodiscard]] double hold_start(std::size_t i) const noexcept;
};

/// Convenience builders for common day cycles.
[[nodiscard]] Domain day_sunny(double density = 0.5);
[[nodiscard]] Domain day_cloudy(double density = 0.5);
[[nodiscard]] Domain day_rainy(double density = 0.5);
[[nodiscard]] Domain dusk(double density = 0.5);
[[nodiscard]] Domain night(double density = 0.5);

} // namespace shog::video
