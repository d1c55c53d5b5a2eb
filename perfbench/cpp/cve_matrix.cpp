// cve-matrix: repeated attacks::explore_cve_matrix random-walk sweeps at 2
// jobs over snapshot-served page-session worlds — the product's headline
// Table I sweep. One request is one whole sweep (12 CVEs x {plain,
// jskernel} x walks).
#include <algorithm>

#include "attacks/explore_sweep.h"
#include "core/world.h"
#include "par/sweep.h"
#include "par/worker_local.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint64_t k_walks_per_cell = 96;
constexpr std::size_t k_sites = 16;
constexpr std::size_t k_jobs = 2;
constexpr sim::time_ns k_window = 1'000'000;  // 1 ms commutativity window
constexpr double k_requests_per_second = 60.0;  // sizes the fixed work
constexpr std::size_t k_min_requests = 200;     // kept half: >= 10 beyond p90
constexpr int k_setup_rounds_before = 3;
constexpr int k_setup_rounds_after = 4;
constexpr std::size_t k_identity_checks = 8;  // requests re-run at jobs 1
constexpr std::size_t k_span_stride = 40;     // traced: spans on every 40th sweep

attacks::matrix_options matrix_opts(const cve_traffic& t, const cve_request& r,
                                    std::size_t jobs)
{
    attacks::matrix_options o;
    o.explore.seed = r.walk_seed_root;
    o.explore.window = k_window;
    o.jobs = jobs;
    o.browser_seed = r.browser_seed;
    o.snapshots = true;
    o.site_ranks = t.site_ranks;
    o.site_seed = t.site_seed;
    return o;
}

std::uint64_t trials_per_sweep(const cve_traffic& t)
{
    return attacks::cve_ids().size() * 2 * t.walks_per_cell;
}

/// Table I, per sweep: every CVE fires under plain in some walk and never
/// under JSKernel.
bool table1_holds(const std::vector<attacks::cve_schedule_row>& rows, std::string& why)
{
    if (rows.size() != attacks::cve_ids().size()) {
        why = "matrix has " + std::to_string(rows.size()) + " rows";
        return false;
    }
    for (const auto& row : rows) {
        if (row.plain_triggered == 0) {
            why = row.cve + " never triggered under plain";
            return false;
        }
        if (row.kernel_triggered != 0) {
            why = row.cve + " triggered under jskernel";
            return false;
        }
    }
    return true;
}

/// What the traced pass learns from one decomposed sweep.
struct traced_counts {
    core::fork_stats forks;
    std::uint64_t trials = 0;
    std::uint64_t decisions = 0;
};

/// explore_cve_matrix, decomposed so every layer call is a span: the same
/// canonical job enumeration, walk seeds and merge, driven from here through
/// par::sweep, core::snapshot_cache and attacks::run_cve_trial_forked.
std::vector<attacks::cve_schedule_row> traced_sweep(const cve_traffic& t,
                                                    const cve_request& r,
                                                    std::uint64_t request, tracer& tr,
                                                    traced_counts& counts)
{
    const std::vector<std::string> ids = attacks::cve_ids();
    const std::uint64_t walks = t.walks_per_cell;
    const std::size_t job_count = ids.size() * 2 * walks;
    scoped_span root(tr, "sweep", request);
    par::worker_local<core::snapshot_cache> snaps(k_jobs);
    par::worker_local<core::fork_stats> stats(k_jobs);
    const auto run_job = [&](std::size_t job, const par::worker_context& ctx) {
        const std::uint64_t walk = job % walks;
        const std::size_t cell = job / walks;
        const bool with_kernel = cell % 2 == 1;
        attacks::cve_trial_spec spec;
        spec.cve = ids[cell / 2];
        if (with_kernel) spec.defense = defenses::defense_id::jskernel;
        spec.browser_seed = r.browser_seed;
        spec.site_ranks = t.site_ranks;
        spec.site_seed = t.site_seed;
        attacks::cve_walk_spec wspec;
        wspec.tail = walk == 0 ? sim::explore::controller::tail_policy::first
                               : sim::explore::controller::tail_policy::random;
        wspec.walk_seed = sim::split(r.walk_seed_root, job);
        wspec.window = k_window;
        core::snapshot_cache& cache = snaps.get(ctx.worker_id);
        core::fork_stats& st = stats.get(ctx.worker_id);
        const core::world_recipe recipe = attacks::cve_world_recipe(spec);
        core::world_snapshot* snap = nullptr;
        if (cache.size() == 0) {
            scoped_span seal(tr, "core.seal", request, root.id());
            snap = &cache.get(recipe, &st);
        } else {
            snap = &cache.get(recipe, &st);
        }
        scoped_span trial(tr, with_kernel ? "trial.jskernel" : "trial.plain", request,
                          root.id());
        return attacks::run_cve_trial_forked(*snap, spec, wspec, &st);
    };
    par::sweep_options sopt;
    sopt.jobs = k_jobs;
    const auto outcomes = par::sweep<attacks::cve_trial_outcome>(job_count, run_job, sopt);
    stats.for_each([&](const core::fork_stats& st) { counts.forks.merge(st); });

    std::vector<attacks::cve_schedule_row> rows;
    for (std::size_t cve = 0; cve < ids.size(); ++cve) {
        attacks::cve_schedule_row row;
        row.cve = ids[cve];
        for (const bool with_kernel : {false, true}) {
            const std::size_t cell = cve * 2 + (with_kernel ? 1 : 0);
            for (std::uint64_t walk = 0; walk < walks; ++walk) {
                const auto& out = outcomes[cell * walks + walk];
                ++counts.trials;
                counts.decisions += sim::explore::schedule::parse(out.decisions)->choices.size();
                std::uint64_t& runs = with_kernel ? row.kernel_schedules : row.plain_schedules;
                std::uint64_t& hits = with_kernel ? row.kernel_triggered : row.plain_triggered;
                ++runs;
                if (out.triggered) {
                    ++hits;
                    if (!with_kernel && !row.witness) {
                        row.witness = sim::explore::schedule::parse(out.decisions);
                    }
                }
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

}  // namespace

cve_traffic make_cve_traffic(std::uint64_t seed, std::uint64_t seconds)
{
    // The world shape is fixed (the same 16 page sessions for every seed),
    // so seeds vary the schedules and browser seeds, not the work per trial.
    cve_traffic t;
    t.walks_per_cell = k_walks_per_cell;
    for (std::uint64_t rank = 0; rank < k_sites; ++rank) t.site_ranks.push_back(rank);
    t.site_seed = 101;
    sim::rng g(sim::split(seed, 0xC7E));
    const auto n = std::max<std::size_t>(
        k_min_requests, static_cast<std::size_t>(k_requests_per_second * seconds));
    for (std::size_t i = 0; i < n; ++i) {
        t.requests.push_back({sim::split(seed, 2 * i + 1), 1 + g.next_u64() % 1000});
    }
    return t;
}

run_result run_cve_matrix(const run_context& ctx)
{
    run_result res;
    const cve_traffic t = make_cve_traffic(ctx.a.seed, ctx.a.seconds);
    const std::uint64_t per_sweep = trials_per_sweep(t);

    // Set-up: process start, arena reservation and a full warm-up sweep
    // (world builds, seals, dirty->hot promotion), the same in every round
    // and for every seed. Rounds run before and after the timed phase, each
    // on its own CPUs, so the median sees several host states.
    cpu_rotation rot(k_jobs);
    std::vector<double> setup_rounds;
    auto round_start = ctx.process_start;
    const auto setup_round = [&] {
        rot.place(setup_rounds.size());
        const cve_request warm{0x5E7, 17};
        (void)attacks::explore_cve_matrix(t.walks_per_cell, matrix_opts(t, warm, k_jobs));
        setup_rounds.push_back(seconds_between(round_start, clock_type::now()));
    };
    for (int round = 0; round < k_setup_rounds_before; ++round) {
        setup_round();
        round_start = clock_type::now();
    }

    timed_phase phase(t.requests.size(), ctx.a.seconds, rot);
    std::vector<std::string> first_json(k_identity_checks);
    for (std::size_t i = 0; i < t.requests.size(); ++i) {
        phase.start();
        const auto rows =
            attacks::explore_cve_matrix(t.walks_per_cell, matrix_opts(t, t.requests[i], k_jobs));
        std::string why;
        const bool ok = table1_holds(rows, why);
        phase.finish(per_sweep, !ok);
        if (!ok) res.failures.push_back("request " + std::to_string(i) + ": " + why);
        if (i < k_identity_checks) first_json[i] = attacks::cve_matrix_json(rows);
    }

    // Check: the same sweeps at jobs 1 produce byte-identical matrix JSON.
    // They run on the CPUs the timed phase gave them (par.busy_share).
    std::vector<double> jobs1_ms;
    rot.place(0);
    for (std::size_t i = 0; i < k_identity_checks; ++i) {
        const auto r0 = clock_type::now();
        const auto rows =
            attacks::explore_cve_matrix(t.walks_per_cell, matrix_opts(t, t.requests[i], 1));
        jobs1_ms.push_back(seconds_between(r0, clock_type::now()) * 1e3);
        if (attacks::cve_matrix_json(rows) != first_json[i]) {
            res.failures.push_back("request " + std::to_string(i) +
                                   ": matrix JSON differs between jobs 1 and 2");
        }
    }

    for (int round = 0; round < k_setup_rounds_after; ++round) {
        round_start = clock_type::now();
        setup_round();
    }
    rot.release();

    res.failed = phase.units(true);
    res.attempted = phase.units(false) + res.failed;
    res.work = {{"sweeps", t.requests.size()},
                {"trials", res.attempted},
                {"failed_trials", res.failed}};

    if (!ctx.a.trace) {
        add_end_to_end(res, median(setup_rounds), phase);
        return res;
    }

    // Traced pass: the same requests through the decomposed sweep. Counts
    // come from every sweep, spans from every k_span_stride-th one (the
    // span file stays small).
    tracer tr(true);
    tracer off(false);
    traced_counts counts;
    timed_phase traced(t.requests.size(), ctx.a.seconds, rot);
    for (std::size_t i = 0; i < t.requests.size(); ++i) {
        traced.start();
        const auto rows =
            traced_sweep(t, t.requests[i], i, i % k_span_stride == 0 ? tr : off, counts);
        traced.finish(per_sweep, false);
        if (i < k_identity_checks && attacks::cve_matrix_json(rows) != first_json[i]) {
            res.failures.push_back("request " + std::to_string(i) +
                                   ": traced sweep differs from explore_cve_matrix");
        }
    }

    // Probe: fresh-world trials (no snapshot) for one walk of every cell.
    {
        const cve_request& r = t.requests.front();
        const auto ids = attacks::cve_ids();
        for (std::size_t cell = 0; cell < ids.size() * 2; ++cell) {
            attacks::cve_trial_spec spec;
            spec.cve = ids[cell / 2];
            if (cell % 2 == 1) spec.defense = defenses::defense_id::jskernel;
            spec.browser_seed = r.browser_seed;
            spec.site_ranks = t.site_ranks;
            spec.site_seed = t.site_seed;
            attacks::cve_walk_spec wspec;
            wspec.tail = sim::explore::controller::tail_policy::random;
            wspec.walk_seed = sim::split(r.walk_seed_root, cell * t.walks_per_cell + 1);
            wspec.window = k_window;
            scoped_span fresh(tr, "trial.fresh", 0);
            (void)attacks::run_cve_trial_fresh(spec, wspec);
        }
    }

    const auto plain = tr.sum("trial.plain");
    const auto kern = tr.sum("trial.jskernel");
    const double sweeps = static_cast<double>(t.requests.size());
    double j1 = 0, j2 = 0;
    for (std::size_t i = 0; i < k_identity_checks; ++i) {
        j1 += jobs1_ms[i];
        j2 += phase.requests[i].ms;
    }
    res.metrics = {
        {"core.seal_ms", tr.sum("core.seal").mean_us() / 1e3, "ms"},
        {"core.fork_trial_us", plain.mean_us(), "us"},
        {"kernel.trial_overhead_us", kern.mean_us() - plain.mean_us(), "us"},
        {"runtime.fresh_trial_us", tr.sum("trial.fresh").mean_us(), "us"},
        {"core.pages_restored_per_fork",
         static_cast<double>(counts.forks.pages_restored) /
             static_cast<double>(std::max<std::uint64_t>(1, counts.forks.restores)),
         "count"},
        {"core.cow_faults", static_cast<double>(counts.forks.cow_faults) / sweeps, "count"},
        {"sim.decisions_per_trial",
         static_cast<double>(counts.decisions) / static_cast<double>(counts.trials), "count"},
        {"par.busy_share", j1 / (static_cast<double>(k_jobs) * j2), "share"},
        {"trace.overhead_share",
         figures(phase).throughput_per_s / figures(traced).throughput_per_s - 1.0,
         "share"},
    };
    tr.write_json(ctx.scratch_dir + "/spans-cve-matrix-" + std::to_string(ctx.a.seed) +
                  ".json");
    return res;
}

}  // namespace perfbench
