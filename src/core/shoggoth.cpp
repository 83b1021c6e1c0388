#include "core/shoggoth.hpp"

#include <algorithm>
#include <cmath>

namespace shog::core {

Shoggoth_strategy::Shoggoth_strategy(models::Detector& student, models::Detector& teacher,
                                     Shoggoth_config config,
                                     device::Compute_model edge_device,
                                     device::Compute_model cloud_device,
                                     std::shared_ptr<Warm_start_memo> warm_memo)
    : student_{student},
      config_{std::move(config)},
      trainer_{student, config_.trainer, std::move(edge_device)},
      warm_memo_{std::move(warm_memo)},
      labeler_{teacher, config_.labeler},
      controller_{config_.controller, config_.initial_rate},
      resource_monitor_{Sim_duration{1.0}},
      cloud_device_{std::move(cloud_device)},
      teacher_infer_gflops_{
          models::Deployed_profile::mask_rcnn_resnext101().inference_gflops()} {
    SHOG_REQUIRE(config_.upload_batch_frames >= 1, "upload batch must be >= 1 frame");
    SHOG_REQUIRE(config_.fixed_rate > 0.0, "fixed rate must be positive");
    SHOG_REQUIRE(config_.training_wall_factor >= 1.0, "wall factor must be >= 1");
}

double Shoggoth_strategy::current_rate() const noexcept {
    return config_.adaptive_sampling ? controller_.rate() : config_.fixed_rate;
}

void Shoggoth_strategy::start(sim::Edge_runtime& rt) {
    // Decorrelate this device's labeling noise from the rest of the fleet
    // (every device would otherwise draw the same stream of label jitter).
    label_rng_ = rt.rng().split(0x1abe1);
    SHOG_REQUIRE(warm_memo_ != nullptr, "a strategy starts once, with a warm-start memo");
    if (config_.warm_replay) {
        trainer_.warm_start(rt.stream().world(), config_.warm_samples, *warm_memo_);
    }
    // Devices not yet started still hold the memo; the last start frees it.
    warm_memo_.reset();
    schedule_next_sample(rt);
}

void Shoggoth_strategy::schedule_next_sample(sim::Edge_runtime& rt) {
    const Sim_duration gap{1.0 / current_rate()};
    if (rt.now() + gap >= Sim_time{rt.stream().duration()}) {
        return;
    }
    rt.schedule(gap, [this, &rt] { on_sample_tick(rt); });
}

void Shoggoth_strategy::on_sample_tick(sim::Edge_runtime& rt) {
    const std::size_t index = rt.stream().index_at(rt.now().value()); // frame-domain lookup
    if (sample_buffer_.empty()) {
        first_buffered_at_ = rt.now();
        // The buffer phase of generation `upload_generation_` opens with its
        // first sample and closes when upload_buffer ships it.
        SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "buffer",
                               upload_generation_);
        schedule_flush_timer(rt);
    }
    last_buffered_at_ = rt.now();
    sample_buffer_.push_back(index);
    if (sample_buffer_.size() >= config_.upload_batch_frames) {
        upload_buffer(rt);
    }
    schedule_next_sample(rt);
}

void Shoggoth_strategy::schedule_flush_timer(sim::Edge_runtime& rt) {
    // Ship a partial buffer on a dedicated timer instead of waiting for the
    // next sample tick to notice: tick-checked max-wait both quantized the
    // flush to the sampling period and — because schedule_next_sample stops
    // ticking near stream end — silently dropped a partially filled buffer
    // at the end of the stream. Clamping to the stream duration flushes any
    // remainder at stream end, inside the simulation horizon.
    const std::uint64_t generation = upload_generation_;
    const Sim_time at = std::min(first_buffered_at_ + config_.upload_max_wait,
                                 Sim_time{rt.stream().duration()});
    rt.schedule(std::max(Sim_duration{}, at - rt.now()), [this, &rt, generation] {
        if (generation == upload_generation_ && !sample_buffer_.empty()) {
            upload_buffer(rt);
        }
    });
}

void Shoggoth_strategy::upload_buffer(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        return;
    }
    SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "buffer",
                         upload_generation_);
    const std::uint64_t generation = upload_generation_;
    ++upload_generation_; // invalidate any pending flush timer
    std::vector<std::size_t> frames = std::move(sample_buffer_);
    sample_buffer_.clear();
    frames_uploaded_ += frames.size();

    // Batch statistics for the codec model: average the sampled frames.
    double complexity = 0.0;
    double motion = 0.0;
    for (std::size_t idx : frames) {
        const video::Frame f = rt.stream().frame_at(idx);
        complexity += f.complexity;
        motion += f.motion_level;
    }
    complexity /= static_cast<double>(frames.size());
    motion /= static_cast<double>(frames.size());

    const Sim_duration gap =
        frames.size() > 1
            ? (last_buffered_at_ - first_buffered_at_) / static_cast<double>(frames.size() - 1)
            : Sim_duration{1.0 / current_rate()};
    // "All images are resized to 512x512" before encoding and upload.
    const double res = config_.upload_resolution;
    const Bytes payload = rt.h264().batch_bytes(frames.size(), res, res, complexity, motion,
                                                gap);
    // Paper: compressing the buffered samples takes 1-3 seconds.
    const Sim_duration encode = rt.h264().encode_seconds(frames.size(), res, res);
    const Sim_duration up_delay = rt.link().send_up(rt.now(), payload);
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
    rt.schedule(encode + up_delay, [this, &rt, frames = std::move(frames),
                                    generation]() mutable {
        // The batch has reached the cloud: labeling now queues on the shared
        // GPU pool behind every other device's work. Teacher inference cost
        // is the service time; the downlink leaves once the job completes.
        SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
        SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "await_labels",
                               generation);
        const Sim_duration service =
            static_cast<double>(frames.size()) *
            cloud_device_.seconds_for_gflops(teacher_infer_gflops_);
        rt.cloud().submit(
            rt.device_id(), service,
            [this, &rt, frames = std::move(frames), generation]() mutable {
                SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "await_labels",
                                     generation);
                cloud_label_batch(rt, std::move(frames), generation);
            },
            sim::Cloud_job_kind::label, drift_.rate());
    });
}

void Shoggoth_strategy::cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames,
                                          std::uint64_t generation) {
    const video::World_model& world = rt.stream().world();
    std::vector<models::Labeled_sample> samples;
    Bytes label_payload;
    double agreement_sum = 0.0;

    for (std::size_t idx : frames) {
        const video::Frame frame = rt.stream().frame_at(idx);
        // The edge extracts the same proposals when it later trains on this
        // frame; labeling matches teacher boxes against them (Eq. 1).
        const std::vector<models::Proposal> proposals = student_.propose(frame, world);
        Labeled_frame labeled = labeler_.label(frame, world, proposals, label_rng_);
        ++frames_labeled_;

        if (have_last_teacher_output_) {
            controller_.observe_phi(
                phi_between(labeled.teacher_detections, last_teacher_output_));
        }
        last_teacher_output_ = labeled.teacher_detections;
        have_last_teacher_output_ = true;

        if (config_.alpha_source == Shoggoth_config::Alpha_source::agreement) {
            agreement_sum +=
                detection_agreement(student_.detect_on(proposals), labeled.teacher_detections);
        }

        label_payload +=
            netsim::label_bytes(rt.message_sizes(), labeled.teacher_detections.size());
        for (models::Labeled_sample& s : labeled.samples) {
            samples.push_back(std::move(s));
        }
    }

    // Control round (cloud side): telemetry up, new rate down.
    bool flush_stale = false;
    if (config_.adaptive_sampling) {
        (void)rt.link().send_up(rt.now(), rt.message_sizes().telemetry_bytes);
        const double posterior_alpha = drain_alpha();
        const double alpha =
            config_.alpha_source == Shoggoth_config::Alpha_source::agreement
                ? (frames.empty() ? posterior_alpha
                                  : agreement_sum / static_cast<double>(frames.size()))
                : posterior_alpha;
        // Domain-break detection: a sharp alpha move between control rounds
        // means the scene the older pending labels describe no longer exists
        // (night fell, or day returned). Shipping a flush flag with the rate
        // command keeps the next session from training on the stale domain.
        if (config_.domain_flush_alpha_delta < 1.0 && last_control_alpha_ >= 0.0 &&
            std::abs(alpha - last_control_alpha_) >= config_.domain_flush_alpha_delta) {
            flush_stale = true;
        }
        // Drift-rate estimate for the cloud's staleness scheduling: how fast
        // alpha is moving per wall second, smoothed across control rounds. A
        // camera crossing day->night spikes this; a static scene stays ~0.
        drift_.observe(alpha, rt.now());
        last_control_alpha_ = alpha;
        const double lambda = resource_monitor_.drain_average();
        (void)controller_.update(alpha, lambda);
        control_trace_.push_back(Control_record{rt.now(), controller_.rate(), alpha,
                                                controller_.phi_bar(), lambda});
        label_payload += rt.message_sizes().rate_command_bytes;
    }

    const Sim_duration down_delay = rt.link().send_down(rt.now(), label_payload);
    const std::size_t frame_count = frames.size();
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "download", generation);
    rt.schedule(down_delay, [this, &rt, samples = std::move(samples), frame_count,
                             flush_stale, generation]() mutable {
        SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "download", generation);
        edge_receive_labels(rt, std::move(samples), frame_count, flush_stale);
    });
}

void Shoggoth_strategy::edge_receive_labels(sim::Edge_runtime& rt,
                                            std::vector<models::Labeled_sample> samples,
                                            std::size_t frames, bool flush_stale) {
    if (flush_stale) {
        // The labels that just arrived are from the new scene (alpha was
        // measured on them); everything buffered before them is not.
        pending_.clear();
        pending_frames_ = 0;
        ++stale_flushes_;
        SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "flush_stale",
                           stale_flushes_);
    }
    pending_.push_back(Pending_batch{std::move(samples), frames, rt.now()});
    pending_frames_ += frames;
    SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "apply", frames);
    maybe_start_training(rt);
}

void Shoggoth_strategy::maybe_start_training(sim::Edge_runtime& rt) {
    // Recent-frame horizon: labeled data from a scene that no longer exists
    // is dropped rather than trained on.
    while (!pending_.empty() && rt.now() - pending_.front().at > config_.sample_horizon) {
        pending_frames_ -= pending_.front().frames;
        pending_.pop_front();
    }
    if (training_busy_ || pending_frames_ < config_.frames_per_session || pending_.empty()) {
        return;
    }
    std::vector<models::Labeled_sample> batch;
    while (!pending_.empty()) {
        for (models::Labeled_sample& s : pending_.front().samples) {
            batch.push_back(std::move(s));
        }
        pending_.pop_front();
    }
    pending_frames_ = 0;
    if (batch.empty()) {
        return;
    }
    const Training_report estimate = trainer_.estimate_session_cost(batch.size());
    const Sim_duration wall = estimate.overall_seconds() * config_.training_wall_factor;

    training_busy_ = true;
    rt.set_training_active(true);
    rt.count_training_session();
    // Edge training is serialized by training_busy_, so the span is a plain
    // sync span on the device track (never overlaps itself).
    SHOG_TRACE_SPAN_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "train",
                          rt.training_sessions());
    rt.schedule(wall, [this, &rt, batch = std::move(batch),
                       session = rt.training_sessions()]() mutable {
        SHOG_TRACE_SPAN_END(rt.trace(), rt.now(), rt.trace_track(), "train", session);
        (void)trainer_.train(batch);
        rt.set_training_active(false);
        training_busy_ = false;
        maybe_start_training(rt); // drain any batch that filled meanwhile
    });
}

double Shoggoth_strategy::drain_alpha() {
    const double alpha = predictions_seen_ > 0
                             ? static_cast<double>(predictions_accurate_) /
                                   static_cast<double>(predictions_seen_)
                             : 1.0;
    predictions_seen_ = 0;
    predictions_accurate_ = 0;
    return alpha;
}

std::vector<detect::Detection> Shoggoth_strategy::infer(sim::Edge_runtime& rt,
                                                        const video::Frame& frame) {
    return student_.detect(frame, rt.stream().world());
}

void Shoggoth_strategy::on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                                     const std::vector<detect::Detection>& detections) {
    (void)frame;
    if (detections.empty()) {
        // A frame where the model sees nothing at all is evidence of
        // inaccuracy on continuously-busy video: count it as one inaccurate
        // prediction so alpha degrades instead of going blind.
        ++predictions_seen_;
    }
    for (const detect::Detection& det : detections) {
        ++predictions_seen_;
        if (det.confidence > config_.alpha_threshold) {
            ++predictions_accurate_;
        }
    }
    resource_monitor_.record_until(
        rt.now(),
        rt.edge_compute().utilization(rt.stream().fps(), rt.training_active()));
}

} // namespace shog::core
