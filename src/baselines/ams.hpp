// Adaptive Model Streaming (AMS, Khani et al. ICCV'21) baseline.
//
// Same adaptive frame sampling and online labeling as Shoggoth, but the
// *entire* knowledge-distillation loop runs in the cloud: a copy of the
// student is fine-tuned end-to-end (no latent replay, no frozen front —
// this is the whole-network fine-tune the paper's Table II "Input" row
// characterizes) on a V100, and the updated weights are streamed back to
// the edge. Consequences the paper reports and this model reproduces:
//  - downlink dominated by model updates (vs. Shoggoth's tiny label traffic)
//  - cloud GPU time spent on training, limiting edges-per-GPU scalability
//  - edge fps stays near the video rate (no on-device training), minus a
//    brief dip when a model update is swapped in
//  - accuracy slightly below Shoggoth (update staleness + full-model
//    fine-tune on small correlated batches).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/adaptive_trainer.hpp"
#include "core/controller.hpp"
#include "core/labeling.hpp"
#include "device/monitor.hpp"
#include "sim/cloud.hpp"
#include "sim/strategy.hpp"

namespace shog::baselines {

struct Ams_config {
    core::Trainer_config trainer = core::input_replay_config();
    core::Controller_config controller;
    core::Labeler_config labeler;
    double initial_rate = 1.0;
    std::size_t upload_batch_frames = 8;
    Sim_duration upload_max_wait{15.0};
    /// Cloud fine-tune triggers after this many labeled frames (same frame-
    /// denominated cadence as Shoggoth).
    std::size_t frames_per_session = 60;
    Sim_duration sample_horizon{150.0};
    bool warm_replay = true;
    std::size_t warm_samples = 1200;
    double upload_resolution = 512.0;
    /// Edge-side model swap pause (fps dips while weights are installed).
    Sim_duration swap_seconds{0.4};
};

/// Preemption-aware resume planner for one cloud fine-tune of
/// `sample_at.size()` samples (labeling times, oldest first) at uniform
/// `per_sample` cost. When the scheduler checkpoints the job (label-wait
/// preemption, server failure), the planner maps the remaining service to
/// the pending tail of the batch and drops the samples whose age passed
/// `horizon` by the resume time, so repeated preemption stops billing GPU
/// seconds for training on stale data. Without a checkpoint the planner is
/// never called and the job runs exactly as submitted.
[[nodiscard]] sim::Cloud_runtime::Resume_replan make_resume_planner(
    std::vector<Sim_time> sample_at, Sim_duration per_sample, Sim_duration horizon);

class Ams_strategy final : public sim::Strategy {
public:
    /// `warm_memo` as for core::Shoggoth_strategy: one per fleet's AMS
    /// devices, a private one by default.
    Ams_strategy(models::Detector& student, models::Detector& teacher, Ams_config config,
                 device::Compute_model cloud_device,
                 std::shared_ptr<core::Warm_start_memo> warm_memo =
                     std::make_shared<core::Warm_start_memo>());

    [[nodiscard]] std::string name() const override { return "AMS"; }
    void start(sim::Edge_runtime& rt) override;
    [[nodiscard]] std::vector<detect::Detection> infer(sim::Edge_runtime& rt,
                                                       const video::Frame& frame) override;
    void on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                      const std::vector<detect::Detection>& detections) override;

    [[nodiscard]] std::size_t model_updates_sent() const noexcept { return updates_sent_; }
    /// Fine-tunes the cloud copy of the student; its replay memory holds
    /// raw inputs.
    [[nodiscard]] const core::Adaptive_trainer& cloud_trainer() const noexcept {
        return *cloud_trainer_;
    }
    [[nodiscard]] const core::Sampling_controller& controller() const noexcept {
        return controller_;
    }
    /// EMA of |d alpha / dt| across control rounds (see
    /// core::Drift_estimator).
    [[nodiscard]] double drift_rate() const noexcept { return drift_.rate(); }

private:
    models::Detector& student_;
    std::unique_ptr<models::Detector> cloud_copy_;
    Ams_config config_;
    const models::Deployed_profile profile_ = models::Deployed_profile::yolov4_resnet18();
    std::unique_ptr<core::Adaptive_trainer> cloud_trainer_;
    std::shared_ptr<core::Warm_start_memo> warm_memo_; ///< dropped by start()
    core::Online_labeler labeler_;
    core::Sampling_controller controller_;
    device::Resource_monitor resource_monitor_;
    device::Compute_model cloud_device_;
    double teacher_infer_gflops_;
    Rng label_rng_{0xa3a3};

    std::vector<std::size_t> sample_buffer_;
    Sim_time first_buffered_at_;
    struct Pending_batch {
        std::vector<models::Labeled_sample> samples;
        std::size_t frames = 0;
        Sim_time at;
    };
    std::deque<Pending_batch> pending_;
    std::size_t pending_frames_ = 0;
    bool cloud_training_busy_ = false;
    std::size_t updates_sent_ = 0;
    /// Trace key tying one batch's upload/await_labels phases together
    /// (async spans on the device track; concurrent batches overlap).
    std::uint64_t upload_generation_ = 0;

    core::Drift_estimator drift_;
    std::vector<detect::Detection> last_teacher_output_;
    bool have_last_teacher_output_ = false;

    void schedule_next_sample(sim::Edge_runtime& rt);
    void on_sample_tick(sim::Edge_runtime& rt);
    void upload_buffer(sim::Edge_runtime& rt);
    void cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames);
    void maybe_train_in_cloud(sim::Edge_runtime& rt);
};

} // namespace shog::baselines
