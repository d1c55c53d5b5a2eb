// Tests of the benchmark itself: traffic generators are deterministic per
// seed, the percentile helper keeps ten samples beyond p90 and ranks
// failures above every success, and the argument parser rejects bad input.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <gtest/gtest.h>

#include <stdexcept>

#include "common.h"
#include "core/arena.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// --- traffic generators ------------------------------------------------------

bool same(const cve_traffic& a, const cve_traffic& b)
{
    if (a.walks_per_cell != b.walks_per_cell || a.site_ranks != b.site_ranks ||
        a.site_seed != b.site_seed || a.requests.size() != b.requests.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        if (a.requests[i].walk_seed_root != b.requests[i].walk_seed_root ||
            a.requests[i].browser_seed != b.requests[i].browser_seed) {
            return false;
        }
    }
    return true;
}

bool same(const std::vector<svc_wave>& a, const std::vector<svc_wave>& b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].type != b[i].type || a[i].tenant != b[i].tenant ||
            a[i].recall_of != b[i].recall_of || a[i].keys != b[i].keys) {
            return false;
        }
    }
    return true;
}

bool same(const svc_traffic& a, const svc_traffic& b)
{
    if (a.returning != b.returning || a.tenant_seeds != b.tenant_seeds ||
        !same(a.history, b.history) || !same(a.timed, b.timed) ||
        !same(a.warmup, b.warmup)) {
        return false;
    }
    return true;
}

TEST(traffic, cve_matrix_is_a_function_of_seed_and_seconds)
{
    EXPECT_TRUE(same(make_cve_traffic(7, 3), make_cve_traffic(7, 3)));
    EXPECT_FALSE(same(make_cve_traffic(7, 3), make_cve_traffic(8, 3)));
    EXPECT_GE(make_cve_traffic(7, 1).requests.size(), 100u);
    EXPECT_EQ(make_cve_traffic(7, 3).site_ranks.size(), 16u);
}

TEST(traffic, relaxed_dfs_is_a_function_of_seed_and_seconds)
{
    EXPECT_EQ(make_dfs_traffic(7, 3), make_dfs_traffic(7, 3));
    EXPECT_NE(make_dfs_traffic(7, 3), make_dfs_traffic(8, 3));
    EXPECT_GE(make_dfs_traffic(7, 1).size(), 100u);
}

TEST(traffic, svc_waves_is_a_function_of_seed_and_seconds)
{
    EXPECT_TRUE(same(make_svc_traffic(7, 2), make_svc_traffic(7, 2)));
    EXPECT_FALSE(same(make_svc_traffic(7, 2), make_svc_traffic(8, 2)));
}

TEST(traffic, svc_waves_recalls_resubmit_earlier_cold_waves)
{
    const svc_traffic t = make_svc_traffic(3, 2);
    std::vector<const svc_wave*> cold(t.history.size());
    for (std::size_t i = 0; i < t.history.size(); ++i) cold[i] = &t.history[i];
    std::size_t recalls = 0, newcomers = 0;
    for (const svc_wave& w : t.timed) {
        if (w.type == svc_wave::kind::recall) {
            ASSERT_LT(w.recall_of, cold.size());
            EXPECT_EQ(w.keys, cold[w.recall_of]->keys);
            EXPECT_EQ(w.tenant, cold[w.recall_of]->tenant);
            ++recalls;
        } else if (w.type == svc_wave::kind::cold) {
            EXPECT_LT(w.tenant, t.returning);
            cold.push_back(&w);
        } else {
            EXPECT_GE(w.tenant, t.returning);
            ++newcomers;
        }
    }
    EXPECT_GT(recalls, t.timed.size() / 2);
    // More newcomers than the returning tenants leave chunks for (two world
    // recipes each): the arena-cap defect shows in every run.
    EXPECT_GT(2 * (t.returning + newcomers), jsk::core::arena::max_arenas);
}

// --- percentile helper --------------------------------------------------------

latency_sample ramp(std::size_t ok, std::size_t failed)
{
    latency_sample s;
    for (std::size_t i = ok; i >= 1; --i) s.ok_ms.push_back(static_cast<double>(i));
    s.failed = failed;
    return s;
}

TEST(percentile, nearest_rank_over_successes)
{
    const latency_sample s = ramp(100, 0);
    EXPECT_EQ(percentile_ms(s, 0.5), 50.0);
    EXPECT_EQ(percentile_ms(s, 0.9), 90.0);
}

TEST(percentile, needs_ten_samples_beyond_the_rank)
{
    EXPECT_NO_THROW(percentile_ms(ramp(100, 0), 0.9));
    EXPECT_THROW(percentile_ms(ramp(99, 0), 0.9), std::invalid_argument);
    EXPECT_THROW(percentile_ms(ramp(0, 0), 0.5), std::invalid_argument);
}

TEST(percentile, failures_rank_above_every_success)
{
    // 95 successes and 5 failures: the failures fill ranks 96..100.
    EXPECT_EQ(percentile_ms(ramp(95, 5), 0.9), 90.0);
    // A failure that lands on the rank makes the percentile unreportable.
    EXPECT_THROW(percentile_ms(ramp(85, 15), 0.9), std::runtime_error);
    EXPECT_EQ(percentile_ms(ramp(60, 40), 0.5), 50.0);
}

// --- argument parser ------------------------------------------------------------

std::optional<args> parse(std::vector<std::string> argv)
{
    std::string error;
    auto out = parse_args(argv, error);
    if (!out) {
        EXPECT_FALSE(error.empty());
    }
    return out;
}

std::vector<std::string> good()
{
    return {"--workload", "svc-waves", "--seed", "0", "--seconds", "10", "--trace", "1"};
}

TEST(arguments, accepts_the_contract_form)
{
    const auto a = parse(good());
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->workload, "svc-waves");
    EXPECT_EQ(a->seed, 0u);
    EXPECT_EQ(a->seconds, 10u);
    EXPECT_TRUE(a->trace);
    auto max_seed = good();
    max_seed[3] = "18446744073709551615";
    EXPECT_TRUE(parse(max_seed).has_value());
}

TEST(arguments, rejects_bad_input)
{
    EXPECT_FALSE(parse({}).has_value());
    EXPECT_FALSE(parse({"--help"}).has_value());
    auto extra = good();
    extra.push_back("--jobs");
    extra.push_back("2");
    EXPECT_FALSE(parse(extra).has_value());
    auto dangling = good();
    dangling.push_back("--seed");
    EXPECT_FALSE(parse(dangling).has_value());
    auto twice = good();
    twice[6] = "--seed";
    EXPECT_FALSE(parse(twice).has_value());
    auto missing = good();
    missing.resize(6);
    EXPECT_FALSE(parse(missing).has_value());

    const std::vector<std::pair<std::size_t, std::string>> bad_values = {
        {1, "cve_matrix"}, {1, ""},  {3, "-1"},  {3, "+1"},   {3, " 1"},
        {3, "1e3"},        {3, "0x10"}, {3, "18446744073709551616"},
        {5, "0"},          {5, "601"}, {5, "abc"}, {5, ""},   {7, "2"}, {7, "yes"},
    };
    for (const auto& [slot, value] : bad_values) {
        auto argv = good();
        argv[slot] = value;
        EXPECT_FALSE(parse(argv).has_value()) << argv[slot - 1] << " '" << value << "'";
    }
}

}  // namespace
