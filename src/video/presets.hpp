// Dataset presets mimicking the paper's three evaluation streams.
//
// The real UA-DETRAC / KITTI / Waymo videos are not shippable, so each
// preset reproduces the *statistical profile* the paper leans on: class mix,
// traffic density, camera type (static surveillance vs ego-motion dashcam),
// resolution (bandwidth model input), and — most importantly — how harsh and
// fast the domain drift is, which is what separates the three Edge-Only
// baselines in Table I.
#pragma once

#include <array>
#include <cstdint>

#include "video/stream.hpp"

namespace shog::video {

struct Dataset_preset {
    const char* name;
    Stream_config stream;
    World_config world;
    Domain_schedule schedule;
};

/// UA-DETRAC-like: static traffic-surveillance camera, 4 vehicle classes
/// with car/van confusion, heavy density swings and harsh day->night->rain
/// cycling. The hardest drift of the three (paper Edge-Only mAP 34.2).
[[nodiscard]] Dataset_preset ua_detrac_like(std::uint64_t seed, double duration = 600.0);

/// KITTI-like (Car only): ego-motion dashcam, single class, mild mostly-day
/// drift (paper Edge-Only mAP 56.8 — the easiest stream).
[[nodiscard]] Dataset_preset kitti_like(std::uint64_t seed, double duration = 600.0);

/// Waymo-Open-like: multi-class with pedestrians/cyclists, mixed day/night
/// suburban driving, intermediate drift (paper Edge-Only mAP 47.5).
[[nodiscard]] Dataset_preset waymo_like(std::uint64_t seed, double duration = 600.0);

/// Every name preset_by_name accepts, in Table I order.
inline constexpr std::array<const char*, 3> preset_names{"ua_detrac", "kitti", "waymo"};

/// Look up by name (one of preset_names); throws on unknown names.
[[nodiscard]] Dataset_preset preset_by_name(const char* name, std::uint64_t seed,
                                            double duration = 600.0);

} // namespace shog::video
