#include "core/replay_memory.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace shog::core {

Replay_memory::Replay_memory(std::size_t capacity) : capacity_{capacity} {}

const Replay_sample& Replay_memory::at(std::size_t i) const {
    SHOG_REQUIRE(i < size(), "replay sample index out of range");
    return samples()[i];
}

std::vector<Replay_sample>& Replay_memory::writable() {
    samples_.reserve(capacity_);
    if (base_) {
        samples_.assign(base_->begin(), base_->end());
        base_.reset();
    }
    return samples_;
}

void Replay_memory::share() {
    if (!base_) {
        base_ = std::make_shared<const std::vector<Replay_sample>>(std::move(samples_));
        samples_ = {};
    }
}

std::size_t Replay_memory::replacement_count(std::size_t capacity, std::size_t run) {
    SHOG_REQUIRE(run >= 1, "training runs are 1-based");
    return capacity / run; // Algorithm 1 line 7: h = Msize / i
}

void Replay_memory::update_after_training(const std::vector<Replay_sample>& batch, Rng& rng) {
    ++runs_;
    if (capacity_ == 0 || batch.empty()) {
        return;
    }
    if (!full()) {
        // Initial runs: memorize all available samples (Algorithm 1 line 12).
        const std::size_t room = capacity_ - size();
        std::vector<Replay_sample>& samples = writable();
        if (batch.size() <= room) {
            samples.insert(samples.end(), batch.begin(), batch.end());
        } else {
            for (std::size_t idx : rng.sample_without_replacement(batch.size(), room)) {
                samples.push_back(batch[idx]);
            }
        }
        return;
    }
    // Full: replace h random residents with h random batch samples.
    std::size_t h = replacement_count(capacity_, runs_);
    h = std::min(h, batch.size());
    if (h == 0) {
        return;
    }
    const std::vector<std::size_t> add = rng.sample_without_replacement(batch.size(), h);
    const std::vector<std::size_t> evict = rng.sample_without_replacement(size(), h);
    std::vector<Replay_sample>& samples = writable();
    for (std::size_t k = 0; k < h; ++k) {
        samples[evict[k]] = batch[add[k]];
    }
}

std::vector<const Replay_sample*> Replay_memory::draw(std::size_t k, Rng& rng) const {
    const std::vector<Replay_sample>& samples = this->samples();
    SHOG_REQUIRE(!samples.empty(), "cannot draw from an empty replay memory");
    std::vector<const Replay_sample*> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        out.push_back(&samples[rng.index(samples.size())]);
    }
    return out;
}

void Replay_memory::clear() noexcept {
    base_.reset();
    samples_.clear();
    runs_ = 0;
}

} // namespace shog::core
