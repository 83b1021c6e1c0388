// Tests for the multi-edge cluster engine: the shared-clock / shared-cloud
// semantics of run_cluster, the GPU scheduler's contention behavior, and
// the paper's fleet-scalability claim (Shoggoth << AMS cloud GPU seconds
// per device at equal fleet size).
#include <gtest/gtest.h>

#include "pretrained_fixture.hpp"

namespace shog::sim {
namespace {

// ---------------------------------------------------------------------------
// Cloud_runtime unit tests (no video, no models — just the scheduler).
// ---------------------------------------------------------------------------

TEST(CloudRuntime, FifoOrderAndLatency) {
    Event_queue queue;
    Cloud_runtime cloud{queue, Cloud_config{}};
    std::vector<int> completions;
    // Two jobs submitted back-to-back at t=0: the second waits for the first.
    cloud.submit(0, Sim_duration{2.0}, [&] { completions.push_back(0); });
    cloud.submit(1, Sim_duration{3.0}, [&] { completions.push_back(1); });
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], 0);
    EXPECT_EQ(completions[1], 1);
    ASSERT_EQ(cloud.job_latencies().size(), 2u);
    EXPECT_EQ(cloud.job_latencies()[0], Sim_duration{2.0}); // no wait
    EXPECT_EQ(cloud.job_latencies()[1], Sim_duration{5.0}); // waited 2 s, served 3 s
    EXPECT_EQ(cloud.job_waits()[1], Sim_duration{2.0});
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{5.0});
    EXPECT_EQ(cloud.device_gpu_seconds(0), Gpu_seconds{2.0});
    EXPECT_EQ(cloud.device_gpu_seconds(1), Gpu_seconds{3.0});
    EXPECT_DOUBLE_EQ(cloud.utilization(Sim_time{10.0}), 0.5);
}

TEST(CloudRuntime, MultipleGpusServeInParallel) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    Cloud_runtime cloud{queue, config};
    cloud.submit(0, Sim_duration{2.0}, {});
    cloud.submit(1, Sim_duration{2.0}, {});
    cloud.submit(2, Sim_duration{2.0}, {});
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(cloud.job_latencies().size(), 3u);
    // First two run immediately on separate GPUs; third waits for a slot.
    EXPECT_EQ(cloud.job_latencies()[0], Sim_duration{2.0});
    EXPECT_EQ(cloud.job_latencies()[1], Sim_duration{2.0});
    EXPECT_EQ(cloud.job_latencies()[2], Sim_duration{4.0});
}

TEST(CloudRuntime, BatchedDispatchDiscountsCoalescedJobs) {
    Event_queue queue;
    Cloud_config config;
    config.max_batch = 4;
    config.batch_efficiency = 0.5;
    Cloud_runtime cloud{queue, config};
    // First job occupies the GPU; three more queue behind it and coalesce.
    cloud.submit(0, Sim_duration{1.0}, {});
    cloud.submit(0, Sim_duration{2.0}, {});
    cloud.submit(0, Sim_duration{2.0}, {});
    cloud.submit(0, Sim_duration{2.0}, {});
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(cloud.jobs_completed(), 4u);
    // Dispatch 1: job A alone (1 s). Dispatch 2: three jobs coalesced:
    // 2 + 0.5*2 + 0.5*2 = 4 s of service after 1 s of waiting, so all three
    // complete at t=5 with latency 5.
    EXPECT_EQ(cloud.job_latencies()[0], Sim_duration{1.0});
    EXPECT_EQ(cloud.job_latencies()[1], Sim_duration{5.0});
    EXPECT_EQ(cloud.job_latencies()[2], Sim_duration{5.0});
    EXPECT_EQ(cloud.job_latencies()[3], Sim_duration{5.0});
    EXPECT_DOUBLE_EQ(cloud.busy_seconds().value(), 5.0); // raw seconds: discount sum carries ulp residue
}

TEST(CloudRuntime, BatchingNeverStarvesIdleServers) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.max_batch = 8;
    Cloud_runtime cloud{queue, config};
    // Two simultaneous jobs with idle capacity for both: each takes its own
    // GPU; coalescing only happens on the last idle server.
    cloud.submit(0, Sim_duration{2.0}, {});
    cloud.submit(1, Sim_duration{2.0}, {});
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(cloud.jobs_completed(), 2u);
    EXPECT_EQ(cloud.job_latencies()[0], Sim_duration{2.0});
    EXPECT_EQ(cloud.job_latencies()[1], Sim_duration{2.0});
    EXPECT_EQ(cloud.peak_queue_depth(), 0u);
}

TEST(CloudRuntime, CompletionMaySubmitFollowUpWork) {
    Event_queue queue;
    Cloud_runtime cloud{queue, Cloud_config{}};
    bool chained = false;
    cloud.submit(0, Sim_duration{1.0}, [&] {
        cloud.submit(0, Sim_duration{1.0}, [&] { chained = true; });
    });
    (void)queue.run_until(Sim_time{10.0});
    EXPECT_TRUE(chained);
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{2.0});
}

// ---------------------------------------------------------------------------
// Cluster engine integration tests.
// ---------------------------------------------------------------------------

// One camera: every device of a make_mixed_fleet watches the same stream,
// each with its own student.
struct Cluster_fixture : public Pretrained_fixture<Cluster_fixture> {
    static video::Dataset_preset preset() { return video::ua_detrac_like(41, 120.0); }
    static void SetUpTestSuite() { load(preset(), 41); }
    void SetUp() override { config.harness.eval_stride = 15; }

    Cluster_config config;
};

TEST_F(Cluster_fixture, ClusterOfOneMatchesRunStrategy) {
    // run_strategy must be exactly a cluster of one: same seed, same clock,
    // same contended-cloud path, bit-identical metrics.
    const Run_result a = fleet::run_shoggoth(*testbed, config.harness);

    const fleet::Fleet fleet = fleet::make_mixed_fleet(*testbed, 1, 0);
    const Cluster_result cluster = run_cluster(fleet.specs, config);
    ASSERT_EQ(cluster.devices.size(), 1u);
    const Run_result& b = cluster.devices.front();

    EXPECT_DOUBLE_EQ(a.map, b.map);
    EXPECT_DOUBLE_EQ(a.map_pooled, b.map_pooled);
    EXPECT_DOUBLE_EQ(a.average_fps, b.average_fps);
    EXPECT_DOUBLE_EQ(a.up_kbps, b.up_kbps);
    EXPECT_DOUBLE_EQ(a.down_kbps, b.down_kbps);
    EXPECT_DOUBLE_EQ(a.cloud_gpu_seconds, b.cloud_gpu_seconds);
    EXPECT_EQ(a.training_sessions, b.training_sessions);
    EXPECT_EQ(a.evaluated_frames, b.evaluated_frames);
}

TEST_F(Cluster_fixture, FleetRunsAreDeterministic) {
    // Same seed => bit-identical per-device results and fleet aggregates.
    const fleet::Fleet f1 = fleet::make_mixed_fleet(*testbed, 3, 0);
    const Cluster_result a = run_cluster(f1.specs, config);
    const fleet::Fleet f2 = fleet::make_mixed_fleet(*testbed, 3, 0);
    const Cluster_result b = run_cluster(f2.specs, config);

    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.devices[i].map, b.devices[i].map);
        EXPECT_DOUBLE_EQ(a.devices[i].up_kbps, b.devices[i].up_kbps);
        EXPECT_DOUBLE_EQ(a.devices[i].cloud_gpu_seconds, b.devices[i].cloud_gpu_seconds);
        EXPECT_EQ(a.devices[i].training_sessions, b.devices[i].training_sessions);
    }
    EXPECT_DOUBLE_EQ(a.gpu_busy_seconds, b.gpu_busy_seconds);
    EXPECT_DOUBLE_EQ(a.mean_label_latency, b.mean_label_latency);
    EXPECT_DOUBLE_EQ(a.p95_label_latency, b.p95_label_latency);
    EXPECT_EQ(a.cloud_jobs, b.cloud_jobs);
}

TEST(ClusterSeeds, DeviceSubstreamsAreDistinct) {
    // Device 0 keeps the base seed (cluster-of-one equivalence); the others
    // get decorrelated substreams.
    EXPECT_EQ(device_seed(17, 0), 17u);
    EXPECT_NE(device_seed(17, 1), device_seed(17, 0));
    EXPECT_NE(device_seed(17, 2), device_seed(17, 1));
}

TEST_F(Cluster_fixture, DevicesRunTheirOwnStreams) {
    // A fleet mixes devices watching different videos; each device's
    // metrics must be measured against its own stream, not the fleet's.
    // Device 1 watches camera 1 of the preset: same world (one pretrained
    // model pool serves the fleet), different track population.
    const video::Dataset_preset camera_preset = preset();
    video::Stream_config camera_1 = camera_preset.stream;
    camera_1.seed += 1;
    const video::Video_stream stream_b{camera_1, camera_preset.world, camera_preset.schedule};
    fleet::Fleet fleet = fleet::make_mixed_fleet(*testbed, 2, 0);
    fleet.specs[1].stream = &stream_b;
    const Cluster_result cluster = run_cluster(fleet.specs, config);
    ASSERT_EQ(cluster.devices.size(), 2u);
    EXPECT_NE(cluster.devices[0].up_kbps, cluster.devices[1].up_kbps);
    EXPECT_NE(cluster.devices[0].map, cluster.devices[1].map);
    EXPECT_GT(cluster.devices[0].map, 0.0);
    EXPECT_GT(cluster.devices[1].map, 0.0);
}

TEST_F(Cluster_fixture, LabelLatencyGrowsWithFleetSize) {
    // On a deliberately weak cloud GPU, queueing delay must grow
    // monotonically with device count (the whole point of modeling the
    // cloud as a contended resource rather than a per-run sum).
    const device::Compute_model weak_gpu{"weak-gpu", 1.0};
    core::Shoggoth_config cfg;
    cfg.adaptive_sampling = false; // fixed 2 fps => constant offered load
    std::vector<double> latency;
    for (std::size_t n : {1u, 2u, 4u}) {
        const fleet::Fleet fleet = fleet::make_mixed_fleet(*testbed, n, 0, cfg, {}, weak_gpu);
        const Cluster_result cluster = run_cluster(fleet.specs, config);
        ASSERT_GT(cluster.cloud_jobs, 0u);
        latency.push_back(cluster.mean_label_latency);
    }
    EXPECT_LT(latency[0], latency[1]);
    EXPECT_LT(latency[1], latency[2]);
}

TEST_F(Cluster_fixture, ShoggothFleetUsesLessCloudGpuPerDeviceThanAms) {
    // The paper's scalability claim, now measured rather than extrapolated:
    // with training on the edge, a Shoggoth fleet consumes strictly less
    // cloud GPU time per device than an equal-size AMS fleet, whose cloud
    // fine-tuning dominates the GPU.
    const fleet::Fleet shoggoth = fleet::make_mixed_fleet(*testbed, 4, 0);
    const Cluster_result shog = run_cluster(shoggoth.specs, config);
    const fleet::Fleet ams = fleet::make_mixed_fleet(*testbed, 0, 4);
    const Cluster_result ams_result = run_cluster(ams.specs, config);

    EXPECT_LT(shog.gpu_seconds_per_device(), ams_result.gpu_seconds_per_device())
        << "Shoggoth " << shog.gpu_seconds_per_device() << " s/device vs AMS "
        << ams_result.gpu_seconds_per_device() << " s/device";
    // GPU utilization is a meaningful fleet aggregate in both cases.
    EXPECT_GT(shog.gpu_utilization, 0.0);
    EXPECT_GT(ams_result.gpu_utilization, shog.gpu_utilization);
}

} // namespace
} // namespace shog::sim
