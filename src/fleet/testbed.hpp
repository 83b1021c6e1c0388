// Fleet testbed: the one way to build camera streams plus the pretrained
// student/teacher pair (make_testbed), one runner per paper strategy on
// camera 0, and the multi-device fleets and cloud-sweep cells built on top.
// One world and one pretrained pair serve the whole fleet; each camera gets
// its own track population (distinct stream seed) so devices see different
// video.
//
// Supports heterogeneous fleets (mixed edge accelerators and link profiles,
// including straggler devices), mixed-strategy fleets (Shoggoth + AMS, so
// AMS-style cloud fine-tune jobs contend with labeling), and a correlated
// cluster-drift scenario where every camera crosses day/night at the same
// wall-clock instant and the upload spike hits the cloud at once.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/ams.hpp"
#include "core/shoggoth.hpp"
#include "sim/harness.hpp"
#include "video/presets.hpp"
#include "video/stream.hpp"

namespace shog::fleet {

/// Threading: one Testbed is shared *read-only* across parallel sweep
/// cells (sim::run_sweep workers call run_cell against it concurrently).
/// That is sound because every access from a cell is const and genuinely
/// stateless — Video_stream::frame_at(i) is pure random access on (seed,
/// index), and `pristine` is only cloned — with ONE exception:
/// Detector::detect() runs through mutable network state, so `teacher` must
/// never be used from a cell directly. fleet::Fleet deep-clones it per cell
/// instead (see below). Anything added to this struct must either stay
/// const-and-stateless under concurrent cells or get the same
/// clone-per-cell treatment.
struct Testbed {
    std::vector<std::unique_ptr<video::Video_stream>> streams; ///< one per camera
    std::unique_ptr<models::Detector> pristine;                ///< cloned per device
    std::unique_ptr<models::Detector> teacher;
};

/// Build `cameras` streams of `preset` (camera i uses stream seed
/// `preset.stream.seed + i`) plus the model pair pretrained from `seed` on
/// the preset's world: the daytime-only student and the all-condition
/// teacher. Every example, bench and test fixture that needs a stream and
/// pretrained models builds them here.
[[nodiscard]] Testbed make_testbed(const video::Dataset_preset& preset, std::size_t cameras,
                                   std::uint64_t seed);

/// make_testbed over `video::preset_by_name(preset_name, seed, duration)`.
[[nodiscard]] Testbed make_testbed(const char* preset_name, std::size_t cameras,
                                   std::uint64_t seed, double duration);

/// Like make_testbed, but every camera runs one synchronized sharp
/// day->night->day schedule (short ramps): the whole fleet's controllers
/// detect the break simultaneously, raise their sampling rates together and
/// the correlated upload-batch spike lands on the shared cloud at once.
[[nodiscard]] Testbed make_correlated_drift_testbed(const char* preset_name,
                                                    std::size_t cameras, std::uint64_t seed,
                                                    double duration);

/// One run of each paper system on camera 0 of `testbed` under `harness`,
/// every student a fresh clone of `testbed.pristine`: Edge-Only (the
/// student, never adapted), Cloud-Only (every frame to the V100 teacher),
/// Shoggoth (TX2 edge training, V100 labeling) and AMS (V100 fine-tunes).
/// Prompt is run_shoggoth with `adaptive_sampling = false`.
///
/// The runners borrow `testbed.teacher` itself, whose detect() mutates
/// network state, so only sequential callers may use them; parallel sweep
/// cells go through run_cell, which clones the teacher per cell.
[[nodiscard]] sim::Run_result run_edge_only(const Testbed& testbed,
                                            const sim::Harness_config& harness);
[[nodiscard]] sim::Run_result run_cloud_only(const Testbed& testbed,
                                             const sim::Harness_config& harness);
[[nodiscard]] sim::Run_result run_shoggoth(const Testbed& testbed,
                                           const sim::Harness_config& harness,
                                           core::Shoggoth_config config = {});
[[nodiscard]] sim::Run_result run_ams(const Testbed& testbed,
                                      const sim::Harness_config& harness,
                                      baselines::Ams_config config = {});

/// One class of edge hardware in a heterogeneous fleet.
struct Edge_class {
    const char* name;
    device::Compute_model device;
    netsim::Link_config link;
    double inference_gflops = 5.2;
};

/// The default three-way mix: a TX2-class device on a healthy link, a
/// mid-tier device on a slower link, and a straggler (weak accelerator,
/// thin high-latency uplink) — cf. SurveilEdge-style mixed deployments.
[[nodiscard]] std::vector<Edge_class> default_edge_classes();

[[nodiscard]] sim::Device_hardware hardware_of(const Edge_class& edge_class);

/// One runnable fleet: owns the per-device students and strategies backing
/// `specs`. Keep it alive across run_cluster.
///
/// The strategies of one kind (the Shoggoth devices, the AMS devices) share
/// one core::Warm_start_memo until they start: the first device's start()
/// computes the warm replay set and every other device adopts it as a
/// copy-on-write share (see Warm_start_memo). The work stays in start(),
/// so building a fleet stays cheap, and the memo needs no lock because the
/// engines start devices serially.
///
/// The fleet also owns a deep copy of the testbed's teacher: detect() runs
/// through mutable network state, so sweep cells sharing one teacher would
/// race when sim::run_sweep runs them on parallel workers. Teacher
/// detections are a pure function of weights and frame (the per-frame RNG
/// reseeds from the detector config), so the clone is output-identical to
/// sharing — cells stay bit-identical to the sequential path.
struct Fleet {
    std::unique_ptr<models::Detector> teacher;
    std::vector<std::unique_ptr<models::Detector>> students;
    std::vector<std::unique_ptr<sim::Strategy>> strategies;
    std::vector<sim::Device_spec> specs;
};

/// Make the fleet heterogeneous: device i gets classes[i % classes.size()].
/// This overrides the *harness-side* hardware (fps, link, lambda). A
/// strategy that prices edge training itself (Shoggoth's Adaptive_trainer)
/// is fixed at construction — build it with the matching edge device, as
/// make_scale_fleet does, or straggler training runs at TX2 speed.
void assign_heterogeneous_hardware(Fleet& fleet,
                                   const std::vector<Edge_class>& classes =
                                       default_edge_classes());

/// Mixed-strategy fleet: devices [0, shoggoth_devices) run Shoggoth, the
/// next ams_devices run AMS — their whole-model cloud fine-tunes are the
/// train jobs that contend with (and under FIFO starve) labeling. Either
/// count may be 0: make_mixed_fleet(testbed, n, 0) is an all-Shoggoth
/// fleet, make_mixed_fleet(testbed, 0, n) an all-AMS one. In every fleet,
/// device i watches stream i mod cameras, so a one-camera testbed puts the
/// whole fleet on one stream.
[[nodiscard]] Fleet make_mixed_fleet(const Testbed& testbed, std::size_t shoggoth_devices,
                                     std::size_t ams_devices,
                                     core::Shoggoth_config shoggoth_config = {},
                                     baselines::Ams_config ams_config = {},
                                     device::Compute_model cloud_device = device::v100());

/// The contended operating point every sweep cell runs on: a half-Shoggoth
/// half-AMS fleet (fine-tune cadence halved so train jobs land within short
/// runs) against a scaled-down cloud share — the many-devices-per-GPU regime
/// where dispatch order decides whether labeling starves behind training.
/// `devices` may exceed the testbed's camera count (device i watches stream
/// i mod cameras): the expensive per-camera track populations are built
/// once and shared while every device keeps its own student, strategy
/// state, RNG substream and (optionally heterogeneous) hardware. That lets
/// the fleet_scale bench push N to 10^4 without 10^4 stream constructions.
[[nodiscard]] Fleet make_scale_fleet(const Testbed& testbed, std::size_t devices,
                                     bool heterogeneous);

/// Run `fleet` through sim::run_cluster (`shards` == 0, the default) or
/// through sim::run_cluster_sharded with `shards` device shards. The two
/// engines are byte-identical by contract.
[[nodiscard]] sim::Cluster_result run_fleet(const Fleet& fleet,
                                            const sim::Cluster_config& config,
                                            std::size_t shards = 0);

/// One cell of a cloud sweep: a row label plus the whole cloud it runs on
/// (policy, preemption bound, GPU count, placement, batching, per-server
/// reliability profiles).
struct Cloud_cell {
    const char* label;
    sim::Cloud_config cloud;
};

/// fifo / priority / fair_share / fifo_preempt (2 s wait bound) on one GPU.
[[nodiscard]] std::vector<Cloud_cell> default_policy_cells();

/// The curated sharding comparison fleet_scaling prints: the PR 2 bests
/// (priority, fifo+preempt) on the undifferentiated pool, then staleness /
/// device_affinity / kind_partition shards at 1 and 2 GPUs.
[[nodiscard]] std::vector<Cloud_cell> default_sharding_cells();

/// Per-server profiles for a cloud whose *first* server is a straggler
/// (speed `straggler_speed`) and whose every server fails at `mtbf`/`mttr`.
/// The straggler sits at the lowest index — exactly where an index-ordered
/// placement lands jobs first — so any_free pays the worst case while
/// speed_aware routes around it. make_straggler_profiles(n, 1.0) (speed 1,
/// MTBF = infinity) is a bit-identical no-op against no profiles at all.
[[nodiscard]] std::vector<sim::Gpu_profile> make_straggler_profiles(
    std::size_t gpu_count, double straggler_speed,
    Sim_duration mtbf = Sim_duration{std::numeric_limits<double>::infinity()},
    Sim_duration mttr = Sim_duration{10.0});

/// The curated reliability comparison fleet_scaling prints, all on 2 GPUs
/// with make_straggler_profiles servers: healthy reference, one 4x
/// straggler under index-blind vs speed-aware placement (with and without
/// straggler re-queueing), and failing fleets including the kind_partition
/// reserved-server case.
[[nodiscard]] std::vector<Cloud_cell> default_reliability_cells();

/// Run one sweep cell: make_scale_fleet(testbed, devices, heterogeneous)
/// against `cloud`, seeded like the scaling runs (harness seed
/// `seed ^ 0x8888`, failure-process seed `seed ^ 0xf417`) so bench_fleet
/// and fleet_scaling print comparable numbers and cells replay
/// bit-identically. `shards` as in run_fleet. `obs` passes a trace sink /
/// metrics registry into the cell's Cluster_config (the default — all null
/// — is the zero-overhead dark path).
///
/// sim::run_sweep workers call this concurrently (bench_fleet,
/// fleet_scaling, test_sweep). That is safe because every cell builds its
/// OWN Fleet (own students, own strategies, own deep-cloned teacher) and
/// its own Cluster_config/engine; the only thing cells share is the const
/// Testbed&, read through const, stateless accessors.
[[nodiscard]] sim::Cluster_result run_cell(const Testbed& testbed, std::size_t devices,
                                           bool heterogeneous, sim::Cloud_config cloud,
                                           std::uint64_t seed, std::size_t shards = 0,
                                           sim::Obs_options obs = {});

} // namespace shog::fleet
