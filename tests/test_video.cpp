// Unit tests for the synthetic video world: domain schedules, the appearance
// physics (illumination/weather/night transforms, robustness attenuation),
// and the deterministic stream generator.
#include <gtest/gtest.h>

#include <cmath>

#include "video/domain.hpp"
#include "video/presets.hpp"
#include "video/stream.hpp"
#include "video/world.hpp"

namespace shog::video {
namespace {

double vec_distance(const std::vector<double>& a, const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        d += (a[i] - b[i]) * (a[i] - b[i]);
    }
    return std::sqrt(d);
}

// --------------------------------------------------------------- Domain ----

TEST(Domain, DistanceProperties) {
    const Domain a = day_sunny(0.5);
    const Domain b = night(0.5);
    EXPECT_DOUBLE_EQ(domain_distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(domain_distance(a, b), domain_distance(b, a));
    EXPECT_GT(domain_distance(a, b), 0.5); // day vs night is a big shift
}

TEST(DomainSchedule, HoldsAndRamps) {
    Domain_schedule sched{{{day_sunny(0.5), 100.0}, {night(0.5), 100.0}}, 20.0, false};
    EXPECT_DOUBLE_EQ(sched.at(50.0).illumination, 1.0);
    EXPECT_DOUBLE_EQ(sched.at(130.0).illumination, night(0.5).illumination);
    // Mid-ramp is interpolated.
    const Domain mid = sched.at(110.0);
    EXPECT_GT(mid.illumination, night(0.5).illumination);
    EXPECT_LT(mid.illumination, 1.0);
}

TEST(DomainSchedule, RampWeatherSwitchesAtMidpoint) {
    Domain_schedule sched{{{day_sunny(0.5), 10.0}, {day_rainy(0.5), 10.0}}, 10.0, false};
    EXPECT_EQ(sched.at(12.0).weather, Weather::sunny);  // 20% into ramp
    EXPECT_EQ(sched.at(18.0).weather, Weather::rainy);  // 80% into ramp
}

TEST(DomainSchedule, NonCyclingSticksAtEnd) {
    Domain_schedule sched{{{day_sunny(0.5), 10.0}, {night(0.5), 10.0}}, 5.0, false};
    EXPECT_DOUBLE_EQ(sched.at(1000.0).illumination, night(0.5).illumination);
}

TEST(DomainSchedule, CyclingWraps) {
    Domain_schedule sched{{{day_sunny(0.5), 10.0}, {night(0.5), 10.0}}, 5.0, true};
    EXPECT_DOUBLE_EQ(sched.period(), 30.0);
    EXPECT_DOUBLE_EQ(sched.at(5.0).illumination, sched.at(35.0).illumination);
    EXPECT_DOUBLE_EQ(sched.at(22.0).illumination, sched.at(52.0).illumination);
}

TEST(DomainSchedule, DriftRateZeroInsideHold) {
    Domain_schedule sched{{{day_sunny(0.5), 100.0}, {night(0.5), 100.0}}, 10.0, false};
    EXPECT_DOUBLE_EQ(sched.drift_rate(20.0), 0.0);
    EXPECT_GT(sched.drift_rate(102.0), 0.0); // inside the ramp
}

TEST(DomainSchedule, Validation) {
    EXPECT_THROW((Domain_schedule{{}, 5.0, false}), std::invalid_argument);
    Domain bad = day_sunny(0.5);
    bad.illumination = 1.5;
    EXPECT_THROW((Domain_schedule{{{bad, 10.0}}, 5.0, false}), std::invalid_argument);
}

// ---------------------------------------------------------------- World ----

World_config small_world() {
    World_config cfg;
    cfg.feature_dim = 16;
    cfg.num_classes = 3;
    cfg.seed = 99;
    return cfg;
}

TEST(World, PrototypesSeparated) {
    World_model world{small_world()};
    for (std::size_t a = 1; a <= 3; ++a) {
        for (std::size_t b = a + 1; b <= 3; ++b) {
            EXPECT_GT(vec_distance(world.prototype(a), world.prototype(b)), 1.0);
        }
    }
    EXPECT_THROW((void)world.prototype(0), std::invalid_argument);
    EXPECT_THROW((void)world.prototype(4), std::invalid_argument);
}

TEST(World, ConfusablePairPullsPrototypes) {
    World_config cfg = small_world();
    World_model plain{cfg};
    const double base = vec_distance(plain.prototype(1), plain.prototype(2));
    cfg.confusable_pairs = {{1, 2}};
    World_model confused{cfg};
    EXPECT_LT(vec_distance(confused.prototype(1), confused.prototype(2)), base);
}

TEST(World, IlluminationGainMonotone) {
    World_model world{small_world()};
    double prev = 0.0;
    for (double il = 0.0; il <= 1.0; il += 0.1) {
        const double g = world.illumination_gain(il);
        EXPECT_GE(g, world.config().illumination_floor - 1e-12);
        EXPECT_LE(g, 1.0 + 1e-12);
        EXPECT_GE(g, prev);
        prev = g;
    }
}

TEST(World, NoiseRisesAtNightAndRain) {
    World_model world{small_world()};
    const double day = world.noise_sigma(day_sunny(0.5), 0.1);
    const double dark = world.noise_sigma(night(0.5), 0.1);
    const double rain = world.noise_sigma(day_rainy(0.5), 0.1);
    EXPECT_GT(dark, day);
    EXPECT_GT(rain, world.noise_sigma(day_cloudy(0.5), 0.1));
}

TEST(World, RobustnessAttenuatesNoise) {
    World_model world{small_world()};
    EXPECT_LT(world.noise_sigma(night(0.5), 0.1, 0.7), world.noise_sigma(night(0.5), 0.1, 0.0));
}

TEST(World, NightDisplacesObservations) {
    World_model world{small_world()};
    Rng rng{1};
    const auto appearance = world.sample_appearance(1, rng);
    // Noise-free world to isolate the transform.
    World_config quiet = small_world();
    quiet.base_noise = 1e-6;
    World_model silent{quiet};
    Rng r1{5};
    Rng r2{5};
    const auto day_obs = silent.observe(appearance, day_sunny(0.5), 0.0, 0.0, r1);
    const auto night_obs = silent.observe(appearance, night(0.5), 0.0, 0.0, r2);
    EXPECT_GT(vec_distance(day_obs, night_obs), 1.0);
}

TEST(World, RobustnessRecoversNightObservation) {
    World_config quiet = small_world();
    quiet.base_noise = 1e-6;
    World_model world{quiet};
    Rng rng{2};
    const auto appearance = world.sample_appearance(2, rng);
    Rng r1{7};
    Rng r2{7};
    Rng r3{7};
    const auto day_obs = world.observe(appearance, day_sunny(0.5), 0.0, 0.0, r1, 0.0);
    const auto night_raw = world.observe(appearance, night(0.5), 0.0, 0.0, r2, 0.0);
    const auto night_robust = world.observe(appearance, night(0.5), 0.0, 0.0, r3, 0.8);
    EXPECT_LT(vec_distance(day_obs, night_robust), vec_distance(day_obs, night_raw));
}

TEST(World, OcclusionDampsDimensions) {
    World_config quiet = small_world();
    quiet.base_noise = 1e-6;
    World_model world{quiet};
    Rng rng{3};
    const auto appearance = world.sample_appearance(1, rng);
    Rng r1{9};
    Rng r2{9};
    const auto clear_obs = world.observe(appearance, day_sunny(0.5), 0.0, 0.0, r1);
    const auto occluded = world.observe(appearance, day_sunny(0.5), 0.0, 0.8, r2);
    double clear_norm = 0.0;
    double occ_norm = 0.0;
    for (std::size_t i = 0; i < clear_obs.size(); ++i) {
        clear_norm += clear_obs[i] * clear_obs[i];
        occ_norm += occluded[i] * occluded[i];
    }
    EXPECT_LT(occ_norm, clear_norm);
}

TEST(World, SampleAppearanceNearPrototype) {
    World_model world{small_world()};
    Rng rng{4};
    const auto a = world.sample_appearance(1, rng);
    EXPECT_LT(vec_distance(a, world.prototype(1)),
              vec_distance(a, world.prototype(3)));
}

// --------------------------------------------------------------- Stream ----

Stream_config small_stream(std::uint64_t seed) {
    Stream_config cfg;
    cfg.seed = seed;
    cfg.duration = 60.0;
    cfg.fps = 10.0;
    cfg.spawn_rate = 1.0;
    return cfg;
}

Domain_schedule flat_schedule() {
    return Domain_schedule{{{day_sunny(0.7), 60.0}}, 5.0, false};
}

TEST(Stream, FrameCountMatchesDuration) {
    Video_stream s{small_stream(1), small_world(), flat_schedule()};
    EXPECT_EQ(s.frame_count(), 600u);
    EXPECT_DOUBLE_EQ(s.fps(), 10.0);
}

TEST(Stream, DeterministicFrames) {
    Video_stream s1{small_stream(5), small_world(), flat_schedule()};
    Video_stream s2{small_stream(5), small_world(), flat_schedule()};
    for (std::size_t i : {0u, 57u, 311u, 599u}) {
        const Frame a = s1.frame_at(i);
        const Frame b = s2.frame_at(i);
        ASSERT_EQ(a.objects.size(), b.objects.size());
        for (std::size_t k = 0; k < a.objects.size(); ++k) {
            EXPECT_EQ(a.objects[k].object_id, b.objects[k].object_id);
            EXPECT_DOUBLE_EQ(a.objects[k].box.x1, b.objects[k].box.x1);
            EXPECT_DOUBLE_EQ(a.objects[k].occlusion, b.objects[k].occlusion);
        }
    }
}

TEST(Stream, DifferentSeedsDiffer) {
    Video_stream s1{small_stream(1), small_world(), flat_schedule()};
    Video_stream s2{small_stream(2), small_world(), flat_schedule()};
    EXPECT_NE(s1.track_count(), 0u);
    // Not a hard guarantee per-frame, but track populations should differ.
    std::size_t diff = (s1.track_count() != s2.track_count()) ? 1 : 0;
    const Frame a = s1.frame_at(300);
    const Frame b = s2.frame_at(300);
    diff += (a.objects.size() != b.objects.size()) ? 1 : 0;
    EXPECT_GE(diff, 1u);
}

TEST(Stream, BoxesInsideImage) {
    Video_stream s{small_stream(3), small_world(), flat_schedule()};
    for (std::size_t i = 0; i < s.frame_count(); i += 37) {
        const Frame f = s.frame_at(i);
        for (const Rendered_object& obj : f.objects) {
            EXPECT_GE(obj.box.x1, 0.0);
            EXPECT_GE(obj.box.y1, 0.0);
            EXPECT_LE(obj.box.x2, s.config().image_width);
            EXPECT_LE(obj.box.y2, s.config().image_height);
            EXPECT_TRUE(obj.box.valid());
            EXPECT_GE(obj.class_id, 1u);
            EXPECT_LE(obj.class_id, s.num_classes());
            EXPECT_NE(obj.appearance, nullptr);
            EXPECT_GE(obj.occlusion, 0.0);
            EXPECT_LE(obj.occlusion, 0.9);
        }
        EXPECT_GE(f.motion_level, 0.0);
        EXPECT_LE(f.motion_level, 1.0);
        EXPECT_GE(f.complexity, 0.0);
        EXPECT_LE(f.complexity, 1.0);
    }
}

TEST(Stream, DensityControlsPopulation) {
    Stream_config cfg = small_stream(4);
    Domain_schedule dense{{{day_sunny(1.0), 60.0}}, 5.0, false};
    Domain_schedule sparse{{{day_sunny(0.1), 60.0}}, 5.0, false};
    Video_stream s_dense{cfg, small_world(), dense};
    Video_stream s_sparse{cfg, small_world(), sparse};
    EXPECT_GT(s_dense.track_count(), 2 * s_sparse.track_count());
}

TEST(Stream, GroundTruthMatchesObjects) {
    Video_stream s{small_stream(6), small_world(), flat_schedule()};
    const Frame f = s.frame_at(200);
    const auto gt = Video_stream::ground_truth(f);
    ASSERT_EQ(gt.size(), f.objects.size());
    for (std::size_t i = 0; i < gt.size(); ++i) {
        EXPECT_EQ(gt[i].class_id, f.objects[i].class_id);
        EXPECT_DOUBLE_EQ(gt[i].box.x1, f.objects[i].box.x1);
    }
}

TEST(Stream, IndexAtClamps) {
    Video_stream s{small_stream(7), small_world(), flat_schedule()};
    EXPECT_EQ(s.index_at(0.0), 0u);
    EXPECT_EQ(s.index_at(1.0), 10u);
    EXPECT_EQ(s.index_at(1e9), s.frame_count() - 1);
}

TEST(Stream, EgoMotionRaisesMotionLevel) {
    Stream_config still = small_stream(8);
    Stream_config moving = small_stream(8);
    moving.ego_motion = 0.5;
    Video_stream s1{still, small_world(), flat_schedule()};
    Video_stream s2{moving, small_world(), flat_schedule()};
    EXPECT_GT(s2.frame_at(100).motion_level, s1.frame_at(100).motion_level);
}

// -------------------------------------------------------------- presets ----

TEST(Presets, AllThreeConstruct) {
    ASSERT_EQ(preset_names.size(), 3u);
    for (const char* name : preset_names) {
        const Dataset_preset p = preset_by_name(name, 42, 120.0);
        EXPECT_STREQ(p.name, name); // the listed name is the preset's own
        Video_stream stream{p.stream, p.world, p.schedule};
        EXPECT_GT(stream.frame_count(), 0u);
        EXPECT_GT(stream.track_count(), 0u);
        EXPECT_EQ(stream.config().class_frequency.size(), stream.num_classes());
        EXPECT_EQ(stream.config().class_names.size(), stream.num_classes());
    }
    EXPECT_THROW((void)preset_by_name("nope", 42), std::invalid_argument);
}

TEST(Presets, KittiIsCarOnly) {
    const Dataset_preset p = kitti_like(1, 60.0);
    EXPECT_EQ(p.world.num_classes, 1u);
    EXPECT_GT(p.stream.ego_motion, 0.0);
}

TEST(Presets, DetracCyclesThroughNight) {
    const Dataset_preset p = ua_detrac_like(1, 600.0);
    bool saw_night = false;
    bool saw_day = false;
    for (double t = 0.0; t < p.schedule.period(); t += 2.0) {
        const Domain d = p.schedule.at(t);
        saw_night = saw_night || d.illumination < 0.2;
        saw_day = saw_day || d.illumination > 0.9;
    }
    EXPECT_TRUE(saw_night);
    EXPECT_TRUE(saw_day);
    EXPECT_TRUE(p.schedule.cycles());
}

TEST(Presets, WaymoHasPedestrians) {
    const Dataset_preset p = waymo_like(1, 60.0);
    bool found = false;
    for (const auto& n : p.stream.class_names) {
        found = found || n == "pedestrian";
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace shog::video
