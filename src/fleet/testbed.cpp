#include "fleet/testbed.hpp"

#include <algorithm>
#include <utility>

#include "baselines/cloud_only.hpp"
#include "baselines/edge_only.hpp"
#include "models/pretrain.hpp"
#include "sim/shard.hpp"

namespace shog::fleet {

Testbed make_testbed(const video::Dataset_preset& preset, std::size_t cameras,
                     std::uint64_t seed) {
    SHOG_REQUIRE(cameras >= 1, "fleet testbed needs at least one camera");
    Testbed testbed;
    for (std::size_t i = 0; i < cameras; ++i) {
        video::Stream_config stream_config = preset.stream;
        stream_config.seed = preset.stream.seed + i;
        testbed.streams.push_back(std::make_unique<video::Video_stream>(
            stream_config, preset.world, preset.schedule));
    }
    testbed.pristine = models::make_student(testbed.streams.front()->world(), seed);
    testbed.teacher = models::make_teacher(testbed.streams.front()->world(), seed);
    return testbed;
}

Testbed make_testbed(const char* preset_name, std::size_t cameras, std::uint64_t seed,
                     double duration) {
    return make_testbed(video::preset_by_name(preset_name, seed, duration), cameras, seed);
}

Testbed make_correlated_drift_testbed(const char* preset_name, std::size_t cameras,
                                      std::uint64_t seed, double duration) {
    video::Dataset_preset preset = video::preset_by_name(preset_name, seed, duration);
    // One synchronized day/night square wave with sharp ramps, shared by
    // every camera: at each break the whole fleet's alpha collapses at once,
    // every controller spikes its sampling rate, and the cloud sees the
    // correlated upload burst (the fleet-level stress the per-camera cycled
    // schedules of the stock presets smear out). Segment lengths scale with
    // the stream so even a short smoke run crosses at least one break.
    const double hold = 0.3 * duration;
    const double ramp = std::max(1.0, 0.03 * duration);
    preset.schedule = video::Domain_schedule{{
                                                 {video::day_sunny(0.6), hold},
                                                 {video::night(0.45), hold},
                                             },
                                             ramp,
                                             /*cycle=*/true};
    return make_testbed(preset, cameras, seed);
}

sim::Run_result run_edge_only(const Testbed& testbed, const sim::Harness_config& harness) {
    const auto student = testbed.pristine->clone();
    baselines::Edge_only_strategy strategy{*student};
    return sim::run_strategy(strategy, *testbed.streams.front(), harness);
}

sim::Run_result run_cloud_only(const Testbed& testbed, const sim::Harness_config& harness) {
    baselines::Cloud_only_strategy strategy{*testbed.teacher, device::v100()};
    return sim::run_strategy(strategy, *testbed.streams.front(), harness);
}

sim::Run_result run_shoggoth(const Testbed& testbed, const sim::Harness_config& harness,
                             core::Shoggoth_config config) {
    const auto student = testbed.pristine->clone();
    core::Shoggoth_strategy strategy{*student, *testbed.teacher, std::move(config),
                                     device::jetson_tx2(), device::v100()};
    return sim::run_strategy(strategy, *testbed.streams.front(), harness);
}

sim::Run_result run_ams(const Testbed& testbed, const sim::Harness_config& harness,
                        baselines::Ams_config config) {
    const auto student = testbed.pristine->clone();
    baselines::Ams_strategy strategy{*student, *testbed.teacher, std::move(config),
                                     device::v100()};
    return sim::run_strategy(strategy, *testbed.streams.front(), harness);
}

std::vector<Edge_class> default_edge_classes() {
    // idle fps on the 5.2-GFLOP student: ~30 (tx2) / ~20 (mid) / ~11
    // (straggler), so the mix spans real-time down to clearly degraded.
    return {
        Edge_class{"tx2", device::jetson_tx2(),
                   netsim::Link_config{12.0, 40.0, Sim_duration{0.025}}, 5.2},
        Edge_class{"mid", device::Compute_model{"mid_tier", 0.11},
                   netsim::Link_config{8.0, 24.0, Sim_duration{0.035}}, 5.2},
        Edge_class{"straggler", device::Compute_model{"straggler", 0.06},
                   netsim::Link_config{3.0, 10.0, Sim_duration{0.08}}, 5.2},
    };
}

sim::Device_hardware hardware_of(const Edge_class& edge_class) {
    return sim::Device_hardware{edge_class.link, edge_class.device,
                                device::Edge_contention_config{},
                                edge_class.inference_gflops};
}

void assign_heterogeneous_hardware(Fleet& fleet, const std::vector<Edge_class>& classes) {
    SHOG_REQUIRE(!classes.empty(), "heterogeneous fleet needs at least one edge class");
    for (std::size_t i = 0; i < fleet.specs.size(); ++i) {
        fleet.specs[i].hardware = hardware_of(classes[i % classes.size()]);
    }
}

namespace {

/// `factory(student, device_index)` builds one device's strategy around its
/// cloned student (the index lets heterogeneous fleets pick per-device
/// hardware at construction time). Device i watches stream i mod cameras:
/// the city-scale fleets reuse a camera pool far smaller than the fleet so
/// stream construction stays O(cameras), not O(devices).
template <typename Factory>
void grow_fleet(Fleet& fleet, const Testbed& testbed, std::size_t devices,
                Factory&& factory) {
    for (std::size_t i = 0; i < devices; ++i) {
        const std::size_t device = fleet.specs.size();
        const std::size_t camera = device % testbed.streams.size();
        fleet.students.push_back(testbed.pristine->clone());
        // The factory keys off the device position (not the camera) so the
        // per-device edge-class cycle stays aligned with
        // assign_heterogeneous_hardware even when cameras wrap.
        fleet.strategies.push_back(factory(*fleet.students.back(), device));
        fleet.specs.push_back(sim::Device_spec{fleet.strategies.back().get(),
                                               testbed.streams[camera].get(),
                                               {}});
    }
}

/// Start a fleet with its own teacher copy (see the Fleet doc: parallel
/// sweep cells must not share the testbed's mutable teacher).
Fleet seed_fleet(const Testbed& testbed) {
    Fleet fleet;
    fleet.teacher = testbed.teacher->clone();
    return fleet;
}

auto shoggoth_factory(models::Detector& teacher, core::Shoggoth_config config,
                      device::Compute_model cloud_device,
                      std::vector<Edge_class> classes = {}) {
    // With edge classes, device i trains on its own accelerator (the trainer
    // prices session wall time from it); without, every device is a TX2.
    return [&teacher, config = std::move(config), cloud_device = std::move(cloud_device),
            classes = std::move(classes)](models::Detector& student, std::size_t i) {
        const device::Compute_model edge =
            classes.empty() ? device::jetson_tx2() : classes[i % classes.size()].device;
        return std::make_unique<core::Shoggoth_strategy>(student, teacher, config, edge,
                                                         cloud_device);
    };
}

auto ams_factory(models::Detector& teacher, baselines::Ams_config config,
                 device::Compute_model cloud_device) {
    return [&teacher, config = std::move(config),
            cloud_device = std::move(cloud_device)](models::Detector& student,
                                                    std::size_t) {
        return std::make_unique<baselines::Ams_strategy>(student, teacher, config,
                                                         cloud_device);
    };
}

/// A cloud of `gpus` servers under `placement` and `policy`; every knob
/// not named keeps its Cloud_config default.
sim::Cloud_config cloud_of(std::size_t gpus, sim::Placement_kind placement,
                           sim::Policy_kind policy, Sim_duration preempt_label_wait = {},
                           std::size_t max_batch = 1, std::size_t label_reserved_gpus = 0) {
    sim::Cloud_config cloud;
    cloud.gpu_count = gpus;
    cloud.placement = placement;
    cloud.policy = policy;
    cloud.preempt_label_wait = preempt_label_wait;
    cloud.max_batch = max_batch;
    cloud.label_reserved_gpus = label_reserved_gpus;
    return cloud;
}

/// `cloud` on make_straggler_profiles servers (MTTR 10 s) with the
/// straggler re-queue bound `requeue_factor` (0 = off).
sim::Cloud_config unreliable(sim::Cloud_config cloud, double straggler_speed,
                             Sim_duration mtbf, double requeue_factor = 0.0) {
    cloud.gpu_profiles = make_straggler_profiles(cloud.gpu_count, straggler_speed, mtbf);
    cloud.straggler_requeue_factor = requeue_factor;
    return cloud;
}

} // namespace

Fleet make_mixed_fleet(const Testbed& testbed, std::size_t shoggoth_devices,
                       std::size_t ams_devices, core::Shoggoth_config shoggoth_config,
                       baselines::Ams_config ams_config,
                       device::Compute_model cloud_device) {
    SHOG_REQUIRE(shoggoth_devices + ams_devices >= 1, "fleet needs at least one device");
    Fleet fleet = seed_fleet(testbed);
    grow_fleet(fleet, testbed, shoggoth_devices,
               shoggoth_factory(*fleet.teacher, std::move(shoggoth_config), cloud_device));
    grow_fleet(fleet, testbed, ams_devices,
               ams_factory(*fleet.teacher, std::move(ams_config), std::move(cloud_device)));
    return fleet;
}

Fleet make_scale_fleet(const Testbed& testbed, std::size_t devices, bool heterogeneous) {
    SHOG_REQUIRE(devices >= 1, "fleet needs at least one device");
    // Policies only differ under contention: a fleet of 8 leaves a full
    // V100 mostly idle, so the sweep runs on a proportionally scaled-down
    // cloud share instead of simulating hundreds of devices. Device i
    // watches stream i mod cameras; devices sharing a camera still diverge
    // (distinct harness RNG substreams, edge classes and cloud contention
    // histories).
    const device::Compute_model cloud_share{"v100_share", 1.5};
    // Halve the fine-tune trigger so AMS train jobs land in the mix well
    // within short sweeps (under heavy FIFO queueing the default 60-frame
    // cadence can push the first fine-tune past the end of the stream).
    baselines::Ams_config ams_config;
    ams_config.frames_per_session = 30;
    const std::size_t ams_devices = devices / 2;
    const std::size_t shoggoth_devices = devices - ams_devices;
    Fleet fleet = seed_fleet(testbed);
    grow_fleet(fleet, testbed, shoggoth_devices,
               shoggoth_factory(*fleet.teacher, {}, cloud_share,
                                heterogeneous ? default_edge_classes()
                                              : std::vector<Edge_class>{}));
    grow_fleet(fleet, testbed, ams_devices, ams_factory(*fleet.teacher, ams_config, cloud_share));
    if (heterogeneous) {
        assign_heterogeneous_hardware(fleet);
    }
    return fleet;
}

sim::Cluster_result run_fleet(const Fleet& fleet, const sim::Cluster_config& config,
                              std::size_t shards) {
    if (shards == 0) {
        return sim::run_cluster(fleet.specs, config);
    }
    return sim::run_cluster_sharded(fleet.specs, config, sim::Shard_options{shards});
}

std::vector<Cloud_cell> default_policy_cells() {
    using sim::Placement_kind;
    using sim::Policy_kind;
    return {
        Cloud_cell{"fifo", cloud_of(1, Placement_kind::any_free, Policy_kind::fifo)},
        Cloud_cell{"priority", cloud_of(1, Placement_kind::any_free, Policy_kind::priority)},
        Cloud_cell{"fair_share",
                   cloud_of(1, Placement_kind::any_free, Policy_kind::fair_share)},
        Cloud_cell{"fifo_preempt", cloud_of(1, Placement_kind::any_free, Policy_kind::fifo,
                                            Sim_duration{2.0})},
    };
}

std::vector<Cloud_cell> default_sharding_cells() {
    using sim::Placement_kind;
    using sim::Policy_kind;
    return {
        // PR 2 reference points on the undifferentiated pool.
        Cloud_cell{"gpu1_any_priority",
                   cloud_of(1, Placement_kind::any_free, Policy_kind::priority)},
        Cloud_cell{"gpu1_any_fifo_preempt", cloud_of(1, Placement_kind::any_free,
                                                     Policy_kind::fifo, Sim_duration{2.0})},
        // Single-GPU variants of the new knobs (affinity still wins warm
        // starts whenever consecutive dispatches come from one device).
        Cloud_cell{"gpu1_affinity_priority",
                   cloud_of(1, Placement_kind::device_affinity, Policy_kind::priority)},
        Cloud_cell{"gpu1_any_staleness",
                   cloud_of(1, Placement_kind::any_free, Policy_kind::staleness)},
        // Sharded: a second server of the same share (the devices-per-GPU
        // axis: N devices now contend on 2 GPUs worth of teacher).
        Cloud_cell{"gpu2_any_priority",
                   cloud_of(2, Placement_kind::any_free, Policy_kind::priority)},
        Cloud_cell{"gpu2_affinity_staleness",
                   cloud_of(2, Placement_kind::device_affinity, Policy_kind::staleness)},
        Cloud_cell{"gpu2_partition1_priority",
                   cloud_of(2, Placement_kind::kind_partition, Policy_kind::priority,
                            Sim_duration{}, 1, 1)},
        Cloud_cell{"gpu2_affinity_staleness_b4",
                   cloud_of(2, Placement_kind::device_affinity, Policy_kind::staleness,
                            Sim_duration{}, 4)},
    };
}

std::vector<sim::Gpu_profile> make_straggler_profiles(std::size_t gpu_count,
                                                      double straggler_speed,
                                                      Sim_duration mtbf,
                                                      Sim_duration mttr) {
    SHOG_REQUIRE(gpu_count >= 1, "profiles need at least one GPU");
    std::vector<sim::Gpu_profile> profiles(gpu_count);
    for (sim::Gpu_profile& profile : profiles) {
        profile.mtbf = mtbf;
        profile.mttr = mttr;
    }
    profiles.front().speed = straggler_speed;
    return profiles;
}

std::vector<Cloud_cell> default_reliability_cells() {
    using sim::Placement_kind;
    using sim::Policy_kind;
    constexpr Sim_duration never{std::numeric_limits<double>::infinity()};
    const sim::Cloud_config any_free =
        cloud_of(2, Placement_kind::any_free, Policy_kind::priority);
    const sim::Cloud_config speed_aware =
        cloud_of(2, Placement_kind::speed_aware, Policy_kind::priority);
    return {
        // Healthy 2-GPU reference (identical to the sharded gpu2 cell).
        Cloud_cell{"gpu2_any_healthy", unreliable(any_free, 1.0, never)},
        // One 4x straggler: index-blind placement keeps feeding it labels.
        Cloud_cell{"gpu2_any_straggler4x", unreliable(any_free, 0.25, never)},
        // speed_aware sends work to the fast server first...
        Cloud_cell{"gpu2_speed_straggler4x", unreliable(speed_aware, 0.25, never)},
        // ...and re-queueing rescues labels the straggler still caught.
        Cloud_cell{"gpu2_speed_straggler4x_rq2", unreliable(speed_aware, 0.25, never, 2.0)},
        // Failing fleet: every server cycles MTBF 60 s / MTTR 10 s.
        Cloud_cell{"gpu2_speed_failures", unreliable(speed_aware, 1.0, Sim_duration{60.0})},
        // A failing reserved label server must not deadlock labels.
        Cloud_cell{"gpu2_partition1_failures",
                   unreliable(cloud_of(2, Placement_kind::kind_partition,
                                       Policy_kind::priority, Sim_duration{}, 1, 1),
                              1.0, Sim_duration{60.0})},
    };
}

sim::Cluster_result run_cell(const Testbed& testbed, std::size_t devices, bool heterogeneous,
                             sim::Cloud_config cloud, std::uint64_t seed, std::size_t shards,
                             sim::Obs_options obs) {
    const Fleet fleet = make_scale_fleet(testbed, devices, heterogeneous);
    sim::Cluster_config config;
    config.harness.seed = seed ^ 0x8888;
    config.cloud = std::move(cloud);
    config.cloud.reliability_seed = seed ^ 0xf417;
    config.obs = obs;
    return run_fleet(fleet, config, shards);
}

} // namespace shog::fleet
