// Tests for the pluggable cloud scheduling policies (priority ordering,
// fair-share deficit bound, preemption checkpoint/resume, per-policy
// determinism) and regression tests for the PR 2 simulator bugfixes:
// end-of-stream sample loss, arrival-order GPU billing skew, fps-tick float
// drift, and float-keyed mAP-window matching.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/shoggoth.hpp"
#include "fleet/testbed.hpp"
#include "pretrained_fixture.hpp"
#include "sim/cloud.hpp"
#include "sim/harness.hpp"
#include "video/presets.hpp"

namespace shog::sim {
namespace {

// ---------------------------------------------------------------------------
// Scheduling-policy unit tests (no video, no models — just the scheduler).
// ---------------------------------------------------------------------------

TEST(SchedulingPolicy, NamesRoundTrip) {
    for (Policy_kind kind : {Policy_kind::fifo, Policy_kind::priority,
                             Policy_kind::fair_share, Policy_kind::staleness}) {
        EXPECT_EQ(policy_by_name(to_string(kind)), kind);
        EXPECT_STREQ(make_policy(kind)->name(), to_string(kind));
    }
    EXPECT_THROW((void)policy_by_name("shortest-job-first"), std::invalid_argument);
}

TEST(SchedulingPolicy, PriorityServesLabelsBeforeQueuedTrains) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::priority;
    Cloud_runtime cloud{queue, config};
    std::vector<std::string> order;
    // A train job occupies the GPU; another train queues; a label job
    // submitted *after* both must still run before the queued train.
    cloud.submit(0, Sim_duration{5.0}, [&] { order.push_back("train0"); }, Cloud_job_kind::train);
    cloud.submit(0, Sim_duration{5.0}, [&] { order.push_back("train1"); }, Cloud_job_kind::train);
    cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back("label"); }, Cloud_job_kind::label);
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "train0");
    EXPECT_EQ(order[1], "label");
    EXPECT_EQ(order[2], "train1");
    // The label waited only for the in-flight train: latency 5 + 1 (FIFO
    // would have been 10 + 1).
    EXPECT_EQ(cloud.mean_label_latency(), Sim_duration{6.0});
}

TEST(SchedulingPolicy, FairShareFavorsTheDeficitDevice) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::fair_share;
    Cloud_runtime cloud{queue, config};
    std::vector<std::string> order;
    // Device 0 floods the queue; device 1 submits one job last. Once the
    // first dispatch bills device 0, device 1 holds the deficit and jumps
    // the backlog.
    cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back("a0"); });
    cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back("a1"); });
    cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back("a2"); });
    cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back("b0"); });
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "a0");
    EXPECT_EQ(order[1], "b0");
    EXPECT_EQ(order[2], "a1");
    EXPECT_EQ(order[3], "a2");
}

TEST(SchedulingPolicy, FairShareBoundsTheDeficitBetweenEqualDevices) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::fair_share;
    Cloud_runtime cloud{queue, config};
    // Device 0 submits its whole backlog before device 1 (the worst case
    // for FIFO, whose deficit would reach 8 jobs); fair share alternates.
    const Sim_duration service{1.0};
    double max_gap = 0.0; // raw GPU-seconds gap, compared against the bound below
    const auto observe = [&] {
        max_gap = std::max(max_gap, std::abs((cloud.device_gpu_seconds(0) -
                                              cloud.device_gpu_seconds(1))
                                                 .value())); // raw gap for std::abs
    };
    for (int i = 0; i < 8; ++i) {
        cloud.submit(0, service, observe);
    }
    for (int i = 0; i < 8; ++i) {
        cloud.submit(1, service, observe);
    }
    (void)queue.run_until(Sim_time{100.0});
    EXPECT_EQ(cloud.jobs_completed(), 16u);
    // Deficit bound: two equally-loaded devices never drift apart by more
    // than one job's service (after the initial pre-contention dispatch).
    EXPECT_LE(max_gap, 2.0 * service.value() + 1e-12); // raw seconds bound
    EXPECT_NEAR(cloud.device_gpu_seconds(0).value(),  // raw seconds for the tolerance check
                cloud.device_gpu_seconds(1).value(), 1e-12); // raw seconds for the tolerance check

}

TEST(CloudRuntime, PreemptionCheckpointsAndResumesTrainWork) {
    Event_queue queue;
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{1.0};
    Cloud_runtime cloud{queue, config};
    Sim_time train_done_at{-1.0};
    Sim_time label_done_at{-1.0};
    // A 10 s fine-tune starts at t=0; a label job arrives at t=2 and may
    // wait at most 1 s.
    cloud.submit(0, Sim_duration{10.0}, [&] { train_done_at = queue.now(); },
                 Cloud_job_kind::train);
    queue.schedule(Sim_time{2.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { label_done_at = queue.now(); });
    });
    (void)queue.run_until(Sim_time{30.0});
    // t=3: bound expires, the train checkpoints (3 s executed, 7 s left);
    // label runs 3->4; train resumes 4->11.
    EXPECT_EQ(label_done_at, Sim_time{4.0});
    EXPECT_EQ(train_done_at, Sim_time{11.0});
    EXPECT_EQ(cloud.preemptions(), 1u);
    // No work lost or double-billed across the checkpoint.
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{11.0});
    EXPECT_EQ(cloud.device_gpu_seconds(0), Gpu_seconds{10.0});
    EXPECT_EQ(cloud.device_gpu_seconds(1), Gpu_seconds{1.0});
    EXPECT_DOUBLE_EQ(cloud.utilization(Sim_time{11.0}), 1.0);
    ASSERT_EQ(cloud.job_latencies().size(), 2u);
    EXPECT_EQ(cloud.mean_label_latency(), Sim_duration{2.0}); // submitted 2, done 4
}

TEST(CloudRuntime, PreemptedServerGoesToTheStarvedLabelNotTheNextTrain) {
    Event_queue queue;
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{1.0};
    Cloud_runtime cloud{queue, config};
    Sim_time label_done_at{-1.0};
    // Train A in flight, train B queued ahead of the label. Preempting A
    // must hand the server to the overdue label, not to FIFO-front B —
    // otherwise the wait bound is violated by B's whole service time.
    cloud.submit(0, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    cloud.submit(0, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    queue.schedule(Sim_time{2.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { label_done_at = queue.now(); });
    });
    (void)queue.run_until(Sim_time{60.0});
    EXPECT_EQ(cloud.preemptions(), 1u);
    EXPECT_EQ(label_done_at, Sim_time{4.0}); // preempted at 3, served 3->4
    // All train work still completes: A's 3 s + B's 10 s + A's 7 s resume.
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{21.0});
    EXPECT_EQ(cloud.device_gpu_seconds(0), Gpu_seconds{20.0});
}

TEST(CloudRuntime, CoalescingNeverMixesLabelAndTrainJobs) {
    Event_queue queue;
    Cloud_config config;
    config.max_batch = 3;
    config.batch_efficiency = 0.5;
    Cloud_runtime cloud{queue, config};
    Sim_time label_done_at{-1.0};
    // GPU busy; a label and a train queue behind it. Coalescing the train
    // into the label's dispatch would make the label wait out the train's
    // 10 s service; kind-homogeneous dispatches keep them apart.
    cloud.submit(0, Sim_duration{1.0}, {});
    cloud.submit(1, Sim_duration{1.0}, [&] { label_done_at = queue.now(); });
    cloud.submit(2, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    (void)queue.run_until(Sim_time{30.0});
    EXPECT_EQ(label_done_at, Sim_time{2.0}); // 1 s wait + 1 s service, no rider
    ASSERT_EQ(cloud.jobs_completed(), 3u);
}

TEST(CloudRuntime, PreemptionLeavesLabelDispatchesAlone) {
    Event_queue queue;
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{1.0};
    Cloud_runtime cloud{queue, config};
    std::vector<std::string> order;
    // Only label dispatches in flight: nothing is preemptible, so a queued
    // label simply waits its FIFO turn.
    cloud.submit(0, Sim_duration{5.0}, [&] { order.push_back("label0"); });
    cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back("label1"); });
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "label0");
    EXPECT_EQ(cloud.preemptions(), 0u);
    EXPECT_EQ(cloud.job_latencies()[1], Sim_duration{6.0});
}

TEST(SchedulingPolicy, PriorityAndFairShareCutP95LabelLatencyUnderTrainLoad) {
    // A synthetic fleet on one GPU: four cameras label steadily while two
    // AMS-style devices drop long fine-tunes into the queue — the exact
    // starvation pattern the non-FIFO policies exist to break.
    const auto p95 = [](Policy_kind kind) {
        Event_queue queue;
        Cloud_config config;
        config.policy = kind;
        Cloud_runtime cloud{queue, config};
        for (std::size_t d = 0; d < 4; ++d) {
            for (int i = 0; i < 40; ++i) {
                queue.schedule(Sim_time{4.0 * i + 0.1 * static_cast<double>(d)},
                               [&cloud, d] { cloud.submit(d, Sim_duration{0.5}, {}); });
            }
        }
        for (std::size_t d = 4; d < 6; ++d) {
            for (int i = 0; i < 4; ++i) {
                queue.schedule(Sim_time{40.0 * i + 0.05 * static_cast<double>(d)},
                               [&cloud, d] {
                                   cloud.submit(d, Sim_duration{8.0}, {},
                                                Cloud_job_kind::train);
                               });
            }
        }
        (void)queue.run_until(Sim_time{400.0});
        return cloud.p95_label_latency();
    };
    const Sim_duration fifo = p95(Policy_kind::fifo);
    const Sim_duration priority = p95(Policy_kind::priority);
    const Sim_duration fair = p95(Policy_kind::fair_share);
    EXPECT_LT(priority, fifo);
    EXPECT_LT(fair, fifo);
}

TEST(SchedulingPolicy, AllPoliciesAreDeterministicAcrossReruns) {
    for (Policy_kind kind :
         {Policy_kind::fifo, Policy_kind::priority, Policy_kind::fair_share}) {
        const auto run_script = [kind] {
            Event_queue queue;
            Cloud_config config;
            config.policy = kind;
            config.max_batch = 3;
            config.batch_efficiency = 0.6;
            config.preempt_label_wait = Sim_duration{2.0};
            Cloud_runtime cloud{queue, config};
            // A scripted mixed workload: staggered labels and trains from
            // three devices, enough to exercise coalescing and preemption.
            for (int i = 0; i < 4; ++i) {
                queue.schedule(Sim_time{static_cast<double>(i) * 1.5}, [&cloud, i] {
                    cloud.submit(static_cast<std::size_t>(i % 3), Sim_duration{4.0}, {},
                                 Cloud_job_kind::train);
                    cloud.submit(static_cast<std::size_t>((i + 1) % 3), Sim_duration{0.5},
                                 {}, Cloud_job_kind::label);
                });
            }
            (void)queue.run_until(Sim_time{60.0});
            return cloud.job_latencies();
        };
        const std::vector<Sim_duration> a = run_script();
        const std::vector<Sim_duration> b = run_script();
        ASSERT_EQ(a.size(), b.size()) << to_string(kind);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i], b[i]) << to_string(kind) << " job " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Bugfix regressions.
// ---------------------------------------------------------------------------

TEST(CloudRuntime, PreemptBoundSurvivesUlpLateCheck) {
    // The one-shot preempt_check fires at exactly submitted + bound, but in
    // floating point (0.3 + 0.6) - 0.3 < 0.6, so at the check's own firing
    // instant the overdue override in select_next could fail to recognize
    // the very job whose bound just expired. Pre-fix sequence: the check
    // preempts the in-flight train, the freed server goes to the *next
    // queued train* (FIFO front), and the label — its timer now consumed —
    // waits out that train's entire 10 s service. The fix marks the job
    // overdue at its check, so the freed server serves it immediately.
    Event_queue queue;
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{0.6};
    Cloud_runtime cloud{queue, config};
    Sim_time label_done{-1.0};
    cloud.submit(0, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    queue.schedule(Sim_time{0.05}, [&] {
        cloud.submit(0, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    });
    queue.schedule(Sim_time{0.3}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { label_done = queue.now(); });
    });
    (void)queue.run_until(Sim_time{60.0});
    EXPECT_EQ(cloud.preemptions(), 1u);
    // Check fires at 0.3 + 0.6 (one ulp short of a 0.6 wait); the label runs
    // right after the preemption: done just before t=1.9. Pre-fix it
    // finished after the second train, at t ~ 11.9.
    EXPECT_NEAR(label_done.value(), 1.9, 1e-9); // raw seconds for the tolerance check
    EXPECT_LT(label_done - Sim_time{0.3} - Sim_duration{1.0},
              config.preempt_label_wait + Sim_duration{1e-9});
}

TEST(CloudRuntime, BoundLapseNeverHandsTheServerToAQueuedTrain) {
    // The "no victim in flight" lapse: the label's bound expires while a
    // long *label* dispatch holds the only server (nothing preemptible), so
    // the one-shot check finds no victim. When the server finally frees,
    // the overdue label must outrank the FIFO-front train queued before it.
    Event_queue queue;
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{2.0};
    Cloud_runtime cloud{queue, config};
    Sim_time label_done{-1.0};
    Sim_time train_done{-1.0};
    cloud.submit(0, Sim_duration{4.0}, {}); // label, runs 0->4
    queue.schedule(Sim_time{0.1}, [&] {
        cloud.submit(0, Sim_duration{10.0}, [&] { train_done = queue.now(); },
                     Cloud_job_kind::train);
    });
    queue.schedule(Sim_time{0.5}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { label_done = queue.now(); });
    });
    (void)queue.run_until(Sim_time{60.0});
    EXPECT_EQ(cloud.preemptions(), 0u); // nothing preemptible ever in flight
    EXPECT_EQ(label_done, Sim_time{5.0}); // served at first server-free
    EXPECT_EQ(train_done, Sim_time{15.0});
}

TEST(SchedulingPolicy, FairShareTieBreaksFifoUnderUlpLedgerNoise) {
    // Prorated coalesced billing and preemption refunds leave ulp-scale
    // residue on the per-device ledger; the documented FIFO degeneracy on
    // tied devices must survive it. Inject the classic 0.1 + 0.2 != 0.3
    // residue directly: pre-fix, the exact-equality compare saw device 1 as
    // "strictly less billed" and served it first despite device 0's earlier
    // submission.
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::fair_share;
    Cloud_runtime cloud{queue, config};
    cloud.account_direct(0, Gpu_seconds{0.1 + 0.2}); // 0.30000000000000004
    cloud.account_direct(1, Gpu_seconds{0.3});
    cloud.account_direct(9, Gpu_seconds{100.0}); // the blocker never wins a deficit
    std::vector<int> order;
    cloud.submit(9, Sim_duration{1.0}, {}); // occupies the server so 0 and 1 queue
    cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back(0); });
    cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back(1); });
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0); // FIFO degeneracy: earlier submission first
    EXPECT_EQ(order[1], 1);
}

TEST(CloudRuntime, CoalescedBillingIsArrivalOrderIndependent) {
    // Two devices submit identical jobs that coalesce into one dispatch;
    // whichever arrived first must not pay more (pre-fix: the first member
    // paid full service, followers got the batch discount).
    const auto billed = [](std::size_t first, std::size_t second) {
        Event_queue queue;
        Cloud_config config;
        config.max_batch = 2;
        config.batch_efficiency = 0.5;
        Cloud_runtime cloud{queue, config};
        cloud.submit(9, Sim_duration{1.0}, {}); // occupies the GPU so the pair coalesces
        cloud.submit(first, Sim_duration{2.0}, {});
        cloud.submit(second, Sim_duration{2.0}, {});
        (void)queue.run_until(Sim_time{20.0});
        return std::pair{cloud.device_gpu_seconds(0), cloud.device_gpu_seconds(1)};
    };
    const auto [a0, a1] = billed(0, 1);
    EXPECT_EQ(a0, a1);
    const auto [b0, b1] = billed(1, 0);
    EXPECT_EQ(b0, b1);
    EXPECT_EQ(a0, b0);
    // The coalesced dispatch costs 2 + 0.5*2 = 3 GPU seconds, split evenly.
    EXPECT_EQ(a0, Gpu_seconds{1.5});
}

TEST(Harness, WindowedGainToleratesUlpOffsetWindowStarts) {
    Run_result result;
    Run_result baseline;
    // Same nominal 20 s windows, but one series' starts carry accumulated
    // floating-point error (pre-fix: exact-key matching dropped them all).
    for (int i = 0; i < 5; ++i) {
        const double start = 20.0 * i;
        result.windowed_map.emplace_back(start + (i > 0 ? 1e-9 : 0.0), 0.5 + 0.01 * i);
        baseline.windowed_map.emplace_back(start, 0.4);
    }
    const std::vector<double> gains = windowed_gain(result, baseline);
    ASSERT_EQ(gains.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_NEAR(gains[static_cast<std::size_t>(i)], 0.1 + 0.01 * i, 1e-12);
    }
}

TEST(Harness, WindowedGainAlignsByConfiguredWindowWhenWindowsAreSkipped) {
    // The evaluator omits windows with no eval frames, so the first emitted
    // gap can span several windows (0 -> 40 for a 20 s window). Inferring
    // the stride from that gap would collapse windows 60 and 80 onto one
    // index and mispair the gains; the configured map_window disambiguates.
    Run_result result;
    Run_result baseline;
    result.map_window = 20.0;
    baseline.map_window = 20.0;
    for (double start : {0.0, 40.0, 60.0, 80.0}) {
        result.windowed_map.emplace_back(start, 0.5 + start / 1000.0);
        baseline.windowed_map.emplace_back(start, 0.4 + start / 1000.0);
    }
    const std::vector<double> gains = windowed_gain(result, baseline);
    ASSERT_EQ(gains.size(), 4u);
    for (double gain : gains) {
        EXPECT_NEAR(gain, 0.1, 1e-12); // every window paired with itself
    }
}

TEST(Harness, WindowedGainPairsSingleWindows) {
    Run_result result;
    Run_result baseline;
    result.windowed_map.emplace_back(0.0, 0.6);
    baseline.windowed_map.emplace_back(1e-9, 0.4);
    const std::vector<double> gains = windowed_gain(result, baseline);
    ASSERT_EQ(gains.size(), 1u);
    EXPECT_NEAR(gains.front(), 0.2, 1e-12);
}

/// Minimal do-nothing strategy: lets harness-level regressions run without
/// models or networks.
class Idle_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "Idle"; }
    void start(Edge_runtime& rt) override { (void)rt; }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime& rt,
                                                       const video::Frame& frame) override {
        (void)rt;
        (void)frame;
        return {};
    }
};

/// Publishes a known fps override that steps to a new value just before the
/// stream ends, so the test can tell whether the tail was sampled at all.
class Fps_probe_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "FpsProbe"; }
    void start(Edge_runtime& rt) override {
        rt.set_fps_override(10.0);
        rt.schedule(Sim_duration{1.9}, [&rt] { rt.set_fps_override(50.0); });
    }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime& rt,
                                                       const video::Frame& frame) override {
        (void)rt;
        (void)frame;
        return {};
    }
};

TEST(Harness, FpsTimelineReachesTheStreamDuration) {
    // duration = 2.0, fps_tick = 0.3: accumulating t += 0.3 lands the sixth
    // tick on 1.7999999999999998 and the seventh on 2.0999... > 2.0, so the
    // pre-fix loop never sampled past 1.8 and the fps step at t=1.9 was
    // invisible. The fixed loop schedules a tail sample at exactly the
    // stream duration.
    video::Dataset_preset preset = video::ua_detrac_like(3, 2.0);
    const video::Video_stream stream{preset.stream, preset.world, preset.schedule};
    Fps_probe_strategy probe;
    Harness_config config;
    config.eval_stride = 8;
    config.fps_tick = Sim_duration{0.3};
    const Run_result result = run_strategy(probe, stream, config);
    ASSERT_FALSE(result.fps_timeline.empty());
    EXPECT_DOUBLE_EQ(result.fps_timeline.front().first, 0.0);
    // 10 fps for [0, ~1.8) plus 50 fps for the ~0.2 s tail: mean 14 (the
    // pre-fix timeline stopped at 1.8 and averaged exactly 10).
    EXPECT_NEAR(result.average_fps, 14.0, 1e-9);
}

// ---------------------------------------------------------------------------
// End-of-stream sample-loss regression (needs real models + a stream).
// ---------------------------------------------------------------------------

struct Shoggoth_flush : public Pretrained_fixture<Shoggoth_flush> {
    static void SetUpTestSuite() { load(video::ua_detrac_like(7, 24.0), 7); }
};

TEST_F(Shoggoth_flush, TailBufferIsUploadedAtStreamEnd) {
    auto local_student = student().clone();
    core::Shoggoth_config config;
    config.adaptive_sampling = false;
    config.fixed_rate = 1.0;            // one sample per second: 23 ticks
    config.upload_batch_frames = 64;    // the buffer never fills...
    config.upload_max_wait = Sim_duration{1.0e6}; // ...max-wait never triggers,
    config.warm_replay = false;         // (keep the test fast)
    core::Shoggoth_strategy strategy{*local_student, teacher(), config, device::jetson_tx2(),
                                     device::v100()};
    Harness_config harness;
    harness.eval_stride = 60;
    (void)run_strategy(strategy, stream(), harness);
    // Pre-fix: schedule_next_sample stops ticking near stream end and the
    // partially filled buffer was dropped without ever being uploaded.
    EXPECT_EQ(strategy.frames_uploaded(), 23u);
}

TEST_F(Shoggoth_flush, PartialBufferShipsAtMaxWaitNotAtTheNextTick) {
    auto local_student = student().clone();
    core::Shoggoth_config config;
    config.adaptive_sampling = false;
    config.fixed_rate = 0.5;         // ticks every 2 s
    config.upload_batch_frames = 64; // size never triggers
    config.upload_max_wait = Sim_duration{3.0}; // flush timer mid-stream
    config.warm_replay = false;
    core::Shoggoth_strategy strategy{*local_student, teacher(), config, device::jetson_tx2(),
                                     device::v100()};
    Harness_config harness;
    harness.eval_stride = 60;
    (void)run_strategy(strategy, stream(), harness);
    // Every sampled frame is eventually uploaded: ticks at 2,4,...,22.
    EXPECT_EQ(strategy.frames_uploaded(), 11u);
}

// ---------------------------------------------------------------------------
// Heterogeneous-fleet construction.
// ---------------------------------------------------------------------------

TEST(FleetTestbed, HeterogeneousHardwareIsAssignedRoundRobin) {
    const std::vector<fleet::Edge_class> classes = fleet::default_edge_classes();
    ASSERT_EQ(classes.size(), 3u);
    fleet::Fleet fleet;
    fleet.specs.resize(5);
    fleet::assign_heterogeneous_hardware(fleet, classes);
    for (std::size_t i = 0; i < fleet.specs.size(); ++i) {
        ASSERT_TRUE(fleet.specs[i].hardware.has_value());
        const Device_hardware& hw = *fleet.specs[i].hardware;
        EXPECT_EQ(hw.edge_device.name, classes[i % 3].device.name);
        EXPECT_DOUBLE_EQ(hw.link.uplink_mbps, classes[i % 3].link.uplink_mbps);
    }
    // The straggler really is slower on both axes.
    EXPECT_LT(classes[2].device.effective_tflops, classes[0].device.effective_tflops);
    EXPECT_LT(classes[2].link.uplink_mbps, classes[0].link.uplink_mbps);
}

} // namespace
} // namespace shog::sim
