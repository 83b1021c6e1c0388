#include "baselines/ams.hpp"

#include <algorithm>
#include <cmath>

namespace shog::baselines {

sim::Cloud_runtime::Resume_replan make_resume_planner(std::vector<Sim_time> sample_at,
                                                      Sim_duration per_sample,
                                                      Sim_duration horizon) {
    // The session walks the batch oldest-first at uniform per-sample cost,
    // so the remaining service maps to the pending tail of the batch.
    return [sample_at = std::move(sample_at), per_sample, horizon,
            begin = std::size_t{0}](Sim_duration remaining, Sim_time now) mutable {
        const std::size_t n = sample_at.size();
        const std::size_t pending = std::min(
            n - begin, static_cast<std::size_t>(std::llround(remaining / per_sample)));
        // `begin` persists across checkpoints: resumed progress on a
        // re-planned tail never resurrects earlier drops.
        begin = n - pending;
        while (begin < n && sample_at[begin] + horizon <= now) {
            ++begin;
        }
        return static_cast<double>(n - begin) * per_sample;
    };
}

Ams_strategy::Ams_strategy(models::Detector& student, models::Detector& teacher,
                           Ams_config config, device::Compute_model cloud_device,
                           std::shared_ptr<core::Warm_start_memo> warm_memo)
    : student_{student},
      cloud_copy_{student.clone()},
      config_{std::move(config)},
      warm_memo_{std::move(warm_memo)},
      labeler_{teacher, config_.labeler},
      controller_{config_.controller, config_.initial_rate},
      resource_monitor_{Sim_duration{1.0}},
      cloud_device_{std::move(cloud_device)},
      teacher_infer_gflops_{
          models::Deployed_profile::mask_rcnn_resnext101().inference_gflops()} {
    cloud_trainer_ =
        std::make_unique<core::Adaptive_trainer>(*cloud_copy_, config_.trainer, cloud_device_);
}

void Ams_strategy::start(sim::Edge_runtime& rt) {
    // Per-device labeling-noise substream (see Shoggoth_strategy::start).
    label_rng_ = rt.rng().split(0x1abe1);
    SHOG_REQUIRE(warm_memo_ != nullptr, "a strategy starts once, with a warm-start memo");
    if (config_.warm_replay) {
        cloud_trainer_->warm_start(rt.stream().world(), config_.warm_samples, *warm_memo_);
    }
    warm_memo_.reset(); // see Shoggoth_strategy::start
    schedule_next_sample(rt);
}

void Ams_strategy::schedule_next_sample(sim::Edge_runtime& rt) {
    const Sim_duration gap{1.0 / controller_.rate()};
    if (rt.now() + gap >= Sim_time{rt.stream().duration()}) {
        return;
    }
    rt.schedule(gap, [this, &rt] { on_sample_tick(rt); });
}

void Ams_strategy::on_sample_tick(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        first_buffered_at_ = rt.now();
    }
    sample_buffer_.push_back(rt.stream().index_at(rt.now().value())); // frame-domain lookup
    if (sample_buffer_.size() >= config_.upload_batch_frames ||
        rt.now() - first_buffered_at_ >= config_.upload_max_wait) {
        upload_buffer(rt);
    }
    schedule_next_sample(rt);
}

void Ams_strategy::upload_buffer(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        return;
    }
    std::vector<std::size_t> frames = std::move(sample_buffer_);
    sample_buffer_.clear();

    double complexity = 0.0;
    double motion = 0.0;
    for (std::size_t idx : frames) {
        const video::Frame f = rt.stream().frame_at(idx);
        complexity += f.complexity;
        motion += f.motion_level;
    }
    complexity /= static_cast<double>(frames.size());
    motion /= static_cast<double>(frames.size());

    const Sim_duration gap{1.0 / controller_.rate()};
    const double res = config_.upload_resolution;
    const Bytes payload = rt.h264().batch_bytes(frames.size(), res, res, complexity, motion,
                                                gap);
    const Sim_duration encode = rt.h264().encode_seconds(frames.size(), res, res);
    const Sim_duration up_delay = rt.link().send_up(rt.now(), payload);
    const std::uint64_t generation = upload_generation_;
    ++upload_generation_;
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
    rt.schedule(encode + up_delay,
                [this, &rt, frames = std::move(frames), generation]() mutable {
        SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
        // Labeling queues on the shared cloud GPU pool like Shoggoth's; the
        // difference shows up later, when AMS also submits fine-tune jobs.
        const Sim_duration service =
            static_cast<double>(frames.size()) *
            cloud_device_.seconds_for_gflops(teacher_infer_gflops_);
        SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "await_labels",
                               generation);
        rt.cloud().submit(
            rt.device_id(), service,
            [this, &rt, frames = std::move(frames), generation]() mutable {
                SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(),
                                     "await_labels", generation);
                cloud_label_batch(rt, std::move(frames));
            },
            sim::Cloud_job_kind::label, drift_.rate());
    });
}

void Ams_strategy::cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames) {
    const video::World_model& world = rt.stream().world();
    double agreement_sum = 0.0;
    for (std::size_t idx : frames) {
        const video::Frame frame = rt.stream().frame_at(idx);
        const std::vector<models::Proposal> proposals = student_.propose(frame, world);
        core::Labeled_frame labeled = labeler_.label(frame, world, proposals, label_rng_);
        if (have_last_teacher_output_) {
            controller_.observe_phi(
                core::phi_between(labeled.teacher_detections, last_teacher_output_));
        }
        last_teacher_output_ = labeled.teacher_detections;
        have_last_teacher_output_ = true;
        agreement_sum += core::detection_agreement(student_.detect_on(proposals),
                                                   labeled.teacher_detections);
        pending_.push_back(Pending_batch{std::move(labeled.samples), 1, rt.now()});
        ++pending_frames_;
    }

    // Telemetry + control round (same adaptive sampling as Shoggoth).
    (void)rt.link().send_up(rt.now(), rt.message_sizes().telemetry_bytes);
    const double alpha =
        frames.empty() ? 1.0 : agreement_sum / static_cast<double>(frames.size());
    // Drift-rate estimate for staleness scheduling (shared estimator, so
    // Shoggoth and AMS jobs rank on a comparable drift scale).
    drift_.observe(alpha, rt.now());
    const double lambda = resource_monitor_.drain_average();
    (void)controller_.update(alpha, lambda);
    (void)rt.link().send_down(rt.now(), rt.message_sizes().rate_command_bytes);

    maybe_train_in_cloud(rt);
}

void Ams_strategy::maybe_train_in_cloud(sim::Edge_runtime& rt) {
    while (!pending_.empty() && rt.now() - pending_.front().at > config_.sample_horizon) {
        pending_frames_ -= pending_.front().frames;
        pending_.pop_front();
    }
    if (cloud_training_busy_ || pending_frames_ < config_.frames_per_session ||
        pending_.empty()) {
        return;
    }
    std::vector<models::Labeled_sample> batch;
    std::vector<Sim_time> sample_at; // labeling time per sample, oldest first
    while (!pending_.empty()) {
        for (models::Labeled_sample& s : pending_.front().samples) {
            batch.push_back(std::move(s));
            sample_at.push_back(pending_.front().at);
        }
        pending_.pop_front();
    }
    pending_frames_ = 0;
    if (batch.empty()) {
        return;
    }
    cloud_training_busy_ = true;
    rt.count_training_session();
    // Async, not sync: the fine-tune queues/runs in the cloud while other
    // device-track phases (uploads in flight) keep opening and closing.
    const std::uint64_t session = rt.training_sessions();
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "cloud_train", session);

    // The fine-tune is a cloud GPU job contending with every device's
    // labeling traffic; its service time is the session cost on the cloud
    // device (train() prices the session with the same estimate). The cloud
    // copy is actually trained when the job completes, then the new weights
    // ship on the downlink.
    const Sim_duration service = cloud_trainer_->estimate_session_cost(batch.size())
                                     .overall_seconds();
    // Preemption-aware resume: if the scheduler checkpoints this fine-tune,
    // re-plan the remainder instead of replaying it verbatim (see
    // make_resume_planner). The weight update itself still applies the
    // whole distillation batch on completion — the near-stale samples'
    // gradient contribution is marginal, the planner prices out their GPU
    // time, which is what repeated preemption wastes.
    sim::Cloud_runtime::Resume_replan replan;
    if (service > Sim_duration{}) {
        replan = make_resume_planner(std::move(sample_at),
                                     service / static_cast<double>(batch.size()),
                                     config_.sample_horizon);
    }
    rt.cloud().submit(
        rt.device_id(), service,
        [this, &rt, batch = std::move(batch), session]() mutable {
            SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "cloud_train",
                                 session);
            (void)cloud_trainer_->train(batch);
            const Bytes update{profile_.update_bytes()};
            const Sim_duration down_delay = rt.link().send_down(rt.now(), update);
            std::vector<double> state = cloud_copy_->net().state_vector();
            ++updates_sent_;
            SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "download",
                                   session);
            rt.schedule(down_delay, [this, &rt, state = std::move(state), session] {
                SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "download",
                                     session);
                // Edge installs the update: brief inference stall.
                student_.net().load_state_vector(state);
                SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "apply", session);
                rt.set_training_active(true);
                rt.schedule(config_.swap_seconds, [this, &rt] {
                    rt.set_training_active(false);
                    cloud_training_busy_ = false;
                    maybe_train_in_cloud(rt);
                });
            });
        },
        sim::Cloud_job_kind::train, drift_.rate(), std::move(replan));
}

std::vector<detect::Detection> Ams_strategy::infer(sim::Edge_runtime& rt,
                                                   const video::Frame& frame) {
    return student_.detect(frame, rt.stream().world());
}

void Ams_strategy::on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                                const std::vector<detect::Detection>& detections) {
    (void)frame;
    (void)detections;
    resource_monitor_.record_until(
        rt.now(), rt.edge_compute().utilization(rt.stream().fps(), rt.training_active()));
}

} // namespace shog::baselines
