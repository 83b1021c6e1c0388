// Replay memory with the management policy of the paper's Algorithm 1.
//
// The memory stores *latent* samples: the activation volume of each sample
// at the configured replay layer (raw input features when the replay layer
// is "input"), plus its training label. Updates are triggered only after an
// adaptive training run: when full, h = Msize / i randomly-chosen batch
// samples replace h randomly-chosen memory slots (i = training-run counter),
// which gives every batch ever seen an equal probability of residing in
// memory — the reservoir property the paper credits for preventing
// forgetting. When not yet full, all available samples are memorized.
//
// The samples can live in an immutable base shared copy-on-write between
// memories (share()): a fleet's devices all start from one warm replay set,
// so copying a shared memory copies a pointer, and a copy pays for its own
// samples only when its first update writes to them.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace shog::core {

struct Replay_sample {
    std::vector<double> activation; ///< at the replay layer
    std::size_t class_label = 0;
    std::array<double, 4> box_target{0.0, 0.0, 0.0, 0.0};
    double weight = 1.0;
};

class Replay_memory {
public:
    explicit Replay_memory(std::size_t capacity);

    /// Algorithm 1 lines 6-13: merge the (just trained-on) batch into the
    /// memory. Increments the training-run counter i.
    void update_after_training(const std::vector<Replay_sample>& batch, Rng& rng);

    [[nodiscard]] std::size_t size() const noexcept { return samples().size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool full() const noexcept { return size() == capacity_; }
    [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
    [[nodiscard]] std::size_t training_runs() const noexcept { return runs_; }

    [[nodiscard]] const Replay_sample& at(std::size_t i) const;
    /// The stored samples; memories that share a base return the same
    /// vector object.
    [[nodiscard]] const std::vector<Replay_sample>& samples() const noexcept {
        return base_ ? *base_ : samples_;
    }

    /// Draw k samples (with replacement) for a training mini-batch.
    [[nodiscard]] std::vector<const Replay_sample*> draw(std::size_t k, Rng& rng) const;

    /// The number of replacements Algorithm 1 performs at run i when full.
    [[nodiscard]] static std::size_t replacement_count(std::size_t capacity, std::size_t run);

    void clear() noexcept;

    /// Move the samples into an immutable base that copies of this memory
    /// share. Each copy (this one included) detaches on the update that
    /// first writes to its samples, paying one copy of the base then;
    /// memories that are only read never copy. The base is never written,
    /// so sharing memories may live on different threads.
    void share();

private:
    std::size_t capacity_;
    std::size_t runs_ = 0;
    std::shared_ptr<const std::vector<Replay_sample>> base_; ///< null once detached
    std::vector<Replay_sample> samples_;                     ///< own samples, unless shared

    /// The samples, writable: copies a shared base first.
    std::vector<Replay_sample>& writable();
};

} // namespace shog::core
