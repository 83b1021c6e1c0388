// Figure 5 reproduction: CDF of the windowed-mAP gain over Edge-Only for
// Cloud-Only, Shoggoth, AMS and Prompt, across all evaluation windows.
//
// Paper shape: Cloud-Only dominates; Shoggoth beats AMS on ~73% of frames;
// Prompt only matches-or-beats Edge-Only ~78% of the time; Shoggoth even
// beats Cloud-Only on ~20% of frames.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fleet/testbed.hpp"

using namespace shog;

namespace {

void print_cdf_row(const char* name, const std::vector<double>& gains) {
    if (gains.empty()) {
        return;
    }
    Ecdf cdf{gains};
    std::cout << "  " << name << ": ";
    for (double g : {-0.10, -0.05, 0.0, 0.05, 0.10, 0.20, 0.30}) {
        std::cout << "P(gain<=" << g << ")=" << Text_table::num(cdf.at(g), 2) << "  ";
    }
    std::cout << "\n";
}

} // namespace

int main(int argc, char** argv) {
    const cli::Args args =
        cli::parse_args(cli::Usage{"bench_fig5", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);

    std::cout << "=== Figure 5: CDF of windowed mAP gain vs Edge-Only (UA-DETRAC-like) ===\n"
              << "(duration " << duration << " s, seed " << seed << ", window 20 s)\n\n";

    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const sim::Harness_config harness = benchutil::paper_harness(seed);
    core::Shoggoth_config prompt_config;
    prompt_config.adaptive_sampling = false;

    const sim::Run_result edge = fleet::run_edge_only(tb, harness);
    const sim::Run_result cloud = fleet::run_cloud_only(tb, harness);
    const sim::Run_result prompt = fleet::run_shoggoth(tb, harness, prompt_config);
    const sim::Run_result ams = fleet::run_ams(tb, harness);
    const sim::Run_result shoggoth = fleet::run_shoggoth(tb, harness);

    const std::vector<double> g_cloud = sim::windowed_gain(cloud, edge);
    const std::vector<double> g_prompt = sim::windowed_gain(prompt, edge);
    const std::vector<double> g_ams = sim::windowed_gain(ams, edge);
    const std::vector<double> g_shog = sim::windowed_gain(shoggoth, edge);

    print_cdf_row("Cloud-Only", g_cloud);
    print_cdf_row("Shoggoth  ", g_shog);
    print_cdf_row("AMS       ", g_ams);
    print_cdf_row("Prompt    ", g_prompt);

    // Paper-style summary statistics.
    auto frac = [](const std::vector<double>& a, const std::vector<double>& b,
                   auto&& predicate) {
        std::size_t hit = 0;
        const std::size_t n = std::min(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            hit += predicate(a[i], b[i]) ? 1 : 0;
        }
        return n > 0 ? static_cast<double>(hit) / static_cast<double>(n) : 0.0;
    };

    std::cout << "\nSummary (fractions of windows):\n";
    std::cout << "  Shoggoth >= Edge-Only:    "
              << Text_table::num(100.0 * frac(g_shog, g_shog,
                                              [](double g, double) { return g >= 0.0; }),
                                 0)
              << "%\n";
    std::cout << "  Prompt   >= Edge-Only:    "
              << Text_table::num(100.0 * frac(g_prompt, g_prompt,
                                              [](double g, double) { return g >= 0.0; }),
                                 0)
              << "%\n";
    std::cout << "  Shoggoth >  AMS:          "
              << Text_table::num(
                     100.0 * frac(g_shog, g_ams, [](double s, double a) { return s > a; }), 0)
              << "%  (paper: 73%)\n";
    std::cout << "  Shoggoth >  Cloud-Only:   "
              << Text_table::num(
                     100.0 * frac(g_shog, g_cloud, [](double s, double c) { return s > c; }),
                     0)
              << "%  (paper: ~20%)\n";
    std::cout << std::flush;
    return 0;
}
