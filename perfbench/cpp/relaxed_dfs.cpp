// relaxed-dfs: one request per seeded random program (sab_mix, relaxed SAB
// memory model), each a bounded sleep-set-DPOR explore_dfs run serially
// with a fresh world per schedule. This is where sim/explore, sim/por and
// wm do the work; core, par, kernel and svc are idle.
#include <algorithm>
#include <memory>
#include <optional>

#include "par/explore_par.h"
#include "runtime/browser.h"
#include "sim/explore.h"
#include "sim/por.h"
#include "sim/rng.h"
#include "workloads.h"
#include "workloads/random_program.h"

namespace perfbench {

namespace {

constexpr std::uint64_t k_schedule_budget = 300;
constexpr sim::time_ns k_window = 1'000'000;  // 1 ms commutativity window
constexpr double k_programs_per_second = 200.0;  // sizes the fixed work
constexpr std::size_t k_min_programs = 200;     // kept half: >= 10 beyond p90
constexpr std::size_t k_setup_programs = 8;
constexpr int k_setup_rounds_before = 3;
constexpr int k_setup_rounds_after = 4;
constexpr std::size_t k_par_check_stride = 50;  // every 50th program re-run at jobs 2
constexpr std::size_t k_span_stride = 20;       // traced: spans on every 20th program

/// Counts the traced pass gathers per schedule, from the finished controller.
struct dfs_counts {
    std::uint64_t races = 0;
    std::uint64_t rf_points = 0;
    std::uint64_t sched_points = 0;
};

sim::explore::options dfs_options()
{
    sim::explore::options o;
    o.window = k_window;
    o.max_schedules = k_schedule_budget;
    o.dpor = true;
    return o;
}

/// Records nothing: the program's tracer outside the traced pass.
tracer& untraced()
{
    static tracer off(false);
    return off;
}

/// The program under search, with a fresh world per schedule. World build
/// and run are spans on `tr`. With `counts`, each finished run also goes
/// through sim/por's happens-before analysis and its decisions are counted.
sim::explore::program random_program(std::uint64_t program_seed, tracer& tr = untraced(),
                                     std::uint64_t request = 0, dfs_counts* counts = nullptr)
{
    return [program_seed, &tr, request, counts](sim::explore::controller& ctl) {
        scoped_span callback(tr, "program", request);
        std::optional<rt::browser> b;
        {
            scoped_span build(tr, "runtime.world_build", request);
            b.emplace(rt::chrome_profile(), sim::split(program_seed, 1));
            ctl.attach(b->sim());
            b->set_memory_model(wm::mode::relaxed);
            workloads::random_program_options popt;
            popt.sab_mix = true;
            workloads::install_random_program(
                *b, program_seed, std::make_shared<workloads::observation_log>(), popt);
        }
        {
            scoped_span run(tr, "sim.run", request);
            b->run_until(60 * sim::sec);
        }
        if (counts != nullptr) {
            {
                scoped_span por(tr, "por.analysis", request);
                const sim::por::analysis an(ctl);
                counts->races += sim::por::race_count(ctl, an);
            }
            for (const auto& d : ctl.trace()) {
                ++(d.kind == 1 ? counts->rf_points : counts->sched_points);
            }
        }
        return sim::explore::run_outcome{};
    };
}

struct dfs_summary {
    std::uint64_t schedules = 0;
    std::uint64_t pruned = 0;
    bool exhausted = false;

    bool operator==(const dfs_summary&) const = default;
};

dfs_summary summarize(const sim::explore::result& r)
{
    return {r.schedules_run, r.pruned, r.exhausted};
}

}  // namespace

std::vector<std::uint64_t> make_dfs_traffic(std::uint64_t seed, std::uint64_t seconds)
{
    const auto n = std::max<std::size_t>(
        k_min_programs, static_cast<std::size_t>(k_programs_per_second * seconds));
    std::vector<std::uint64_t> programs;
    for (std::size_t i = 0; i < n; ++i) programs.push_back(sim::split(seed, 0xDF5000 + i));
    return programs;
}

run_result run_relaxed_dfs(const run_context& ctx)
{
    run_result res;
    const std::vector<std::uint64_t> programs = make_dfs_traffic(ctx.a.seed, ctx.a.seconds);
    const sim::explore::options opt = dfs_options();

    // Set-up: process start plus warm-up searches on a fixed set of programs
    // outside the timed set, the same in every round and for every seed.
    // Rounds run before and after the timed phase, each on its own CPU, so
    // the median sees several host states.
    cpu_rotation rot(1);
    std::vector<double> setup_rounds;
    auto round_start = ctx.process_start;
    const auto setup_round = [&] {
        rot.place(setup_rounds.size());
        for (std::size_t i = 0; i < k_setup_programs; ++i) {
            (void)sim::explore::explore_dfs(random_program(sim::split(0x5E7, i)), opt);
        }
        setup_rounds.push_back(seconds_between(round_start, clock_type::now()));
    };
    for (int round = 0; round < k_setup_rounds_before; ++round) {
        setup_round();
        round_start = clock_type::now();
    }

    timed_phase phase(programs.size(), ctx.a.seconds, rot);
    std::vector<dfs_summary> summaries;
    for (const std::uint64_t p : programs) {
        phase.start();
        const auto r = sim::explore::explore_dfs(random_program(p), opt);
        phase.finish(r.schedules_run, false);
        summaries.push_back(summarize(r));
        if (r.failing) res.failures.push_back("program " + std::to_string(p) + " violated");
    }

    // Check: a sample of programs gives the same (schedules_run, pruned,
    // exhausted) under par::explore_dfs at 2 jobs.
    for (std::size_t i = 0; i < programs.size(); i += k_par_check_stride) {
        par::explore_options popt;
        popt.base = opt;
        popt.jobs = 2;
        if (summarize(par::explore_dfs(random_program(programs[i]), popt)) != summaries[i]) {
            res.failures.push_back("program " + std::to_string(programs[i]) +
                                   ": par::explore_dfs at 2 jobs disagrees");
        }
    }

    for (int round = 0; round < k_setup_rounds_after; ++round) {
        round_start = clock_type::now();
        setup_round();
    }
    rot.release();

    std::uint64_t pruned = 0, exhausted = 0;
    for (const auto& s : summaries) {
        pruned += s.pruned;
        exhausted += s.exhausted ? 1 : 0;
    }
    const std::uint64_t schedules = phase.units(false);
    res.attempted = schedules;
    res.work = {{"programs", programs.size()},
                {"schedules", schedules},
                {"pruned", pruned},
                {"exhausted", exhausted}};

    if (!ctx.a.trace) {
        add_end_to_end(res, median(setup_rounds), phase);
        return res;
    }

    // Traced pass over the same programs: counts from every schedule, spans
    // from every k_span_stride-th program (the span file stays small).
    tracer tr(true);
    dfs_counts counts;
    std::uint64_t spanned_schedules = 0;
    timed_phase traced(programs.size(), ctx.a.seconds, rot);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        tracer& spans = i % k_span_stride == 0 ? tr : untraced();
        traced.start();
        sim::explore::result r;
        {
            scoped_span dfs(spans, "explore.dfs", i);
            r = sim::explore::explore_dfs(random_program(programs[i], spans, i, &counts), opt);
        }
        traced.finish(r.schedules_run, false);
        if (spans.enabled()) spanned_schedules += r.schedules_run;
        if (summarize(r) != summaries[i]) {
            res.failures.push_back("program " + std::to_string(programs[i]) +
                                   ": traced search disagrees with untraced");
        }
    }

    const double n = static_cast<double>(schedules);
    const auto dfs = tr.sum("explore.dfs");
    res.metrics = {
        {"runtime.world_build_us", tr.sum("runtime.world_build").mean_us(), "us"},
        {"sim.run_us", tr.sum("sim.run").mean_us(), "us"},
        {"explore.self_us",
         (dfs.total_us - dfs.child_us) / static_cast<double>(spanned_schedules), "us"},
        {"por.analysis_us", tr.sum("por.analysis").mean_us(), "us"},
        {"por.races", static_cast<double>(counts.races), "count"},
        {"explore.schedules", n, "count"},
        {"explore.pruned", static_cast<double>(pruned), "count"},
        {"explore.useful_share", n / (n + static_cast<double>(pruned)), "share"},
        {"wm.rf_points", static_cast<double>(counts.rf_points), "count"},
        {"sim.sched_points", static_cast<double>(counts.sched_points), "count"},
        {"trace.overhead_share",
         figures(phase).throughput_per_s / figures(traced).throughput_per_s - 1.0,
         "share"},
    };
    tr.write_json(ctx.scratch_dir + "/spans-relaxed-dfs-" + std::to_string(ctx.a.seed) +
                  ".json");
    return res;
}

}  // namespace perfbench
