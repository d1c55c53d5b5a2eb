// svc-waves: a serial svc::service whose durable store lives on disk,
// opened over a store an untimed prep pass filled. Returning tenants send
// mostly recall waves (history resubmitted: first touch from disk, later
// from memory) and some cold waves (new chaos random-program jobs with
// sampled fault plans). A newcomer tenant with a fresh browser seed joins
// every few waves; once the 64 arena chunks are all leased to world
// recipes, each newcomer wave fails (see NOTES.md) and counts as failed.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <exception>
#include <stdexcept>

#include "attacks/chaos_sweep.h"
#include "core/arena.h"
#include "faults/plan.h"
#include "sim/rng.h"
#include "svc/record.h"
#include "svc/service.h"
#include "svc/store.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t k_returning = 12;         // tenants with history
constexpr std::size_t k_history_per_tenant = 40; // prep-pass cold waves each
constexpr std::size_t k_programs_per_wave = 16;  // x {plain, jskernel} jobs
constexpr double k_waves_per_second = 550.0;     // sizes the fixed work
constexpr std::size_t k_min_waves = 200;  // kept half: >= 10 beyond p90
constexpr std::size_t k_recall_per_10 = 7;  // the rest are cold
constexpr double k_failing_newcomer_share = 0.02;  // of all timed waves
constexpr int k_setup_rounds_before = 3;
constexpr int k_setup_rounds_after = 4;
constexpr std::size_t k_chaos_probes = 24;  // traced: fresh chaos trials timed
constexpr std::size_t k_probe_stride = 10;  // traced: probe every 10th cold wave

using kind = svc_wave::kind;

/// A cold wave of `tenant`: k_programs_per_wave random programs, each with
/// one sampled fault plan, under both defenses.
svc_wave cold_wave(kind type, std::size_t tenant, std::uint64_t browser_seed, sim::rng& g)
{
    svc_wave w;
    w.type = type;
    w.tenant = tenant;
    for (std::size_t p = 0; p < k_programs_per_wave; ++p) {
        const std::uint64_t program_seed = g.next_u64() % 1'000'000'000;
        const std::string plan = faults::plan::sample(g.next_u64() % 1000).str();
        for (const char* defense : {"plain", "jskernel"}) {
            par::witness_key k;
            k.seed = browser_seed;
            k.plan = plan;
            k.defense = defense;
            k.program = "program:" + std::to_string(program_seed);
            w.keys.push_back(std::move(k));
        }
    }
    return w;
}

std::uint64_t fresh_seed(sim::rng& g, std::set<std::uint64_t>& used)
{
    for (;;) {
        const std::uint64_t s = 1 + g.next_u64() % 1'000'000;
        if (used.insert(s).second) return s;
    }
}

std::string tenant_name(std::size_t tenant)
{
    return "t" + std::to_string(tenant);
}

/// Everything one pass over the traffic measures.
struct pass_result {
    std::vector<double> setup_rounds;
    std::uint64_t trials = 0;  // simulated fresh in the timed phase
    std::uint64_t failed_waves = 0;
    std::uint64_t recall_jobs = 0, recall_hits_mem = 0, recall_hits_disk = 0;
    std::uint64_t verified_mem = 0, verified_disk = 0;  // recalls byte-checked
    std::uint64_t fsyncs = 0;
    std::uint64_t loaded_records = 0;
    std::uint64_t cold_waves = 0, cold_jobs = 0, cold_faults = 0;
    /// Traced pass: every k_probe_stride-th timed cold wave's (key, value)
    /// records, and the first job of the first k_chaos_probes of those.
    std::vector<std::vector<std::pair<std::string, std::string>>> cold_records;
    std::vector<std::pair<par::witness_key, svc::job_result>> probe_jobs;
};

std::vector<svc::job> to_jobs(const svc_wave& w)
{
    std::vector<svc::job> jobs;
    for (std::size_t i = 0; i < w.keys.size(); ++i) jobs.push_back({i + 1, w.keys[i]});
    return jobs;
}

/// Submit and flush one wave, then sync the store: the ack barrier that
/// service::serve() runs before it acknowledges a wave. (This drives
/// sessions directly, so the wire codec and the intent log stay idle.)
svc::wave_result flush(svc::service& s, const svc_wave& w)
{
    auto& sess = s.connect(tenant_name(w.tenant));
    for (auto& j : to_jobs(w)) sess.submit(std::move(j));
    svc::wave_result r = sess.flush();
    if (!s.disk()->sync()) throw std::runtime_error("store sync failed: store degraded");
    return r;
}

const char* span_name(kind k)
{
    return k == kind::recall ? "wave.recall" : k == kind::cold ? "wave.cold" : "wave.newcomer";
}

pass_result run_pass(const run_context& ctx, const svc_traffic& t, const std::string& dir,
                     tracer& tr, cpu_rotation& rot, timed_phase& phase, run_result& res)
{
    namespace fs = std::filesystem;
    pass_result out;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string pristine = dir + "/pristine";
    svc::service_options opt;
    opt.jobs = 1;

    // Untimed prep: fill the store with every returning tenant's history.
    double untimed_s = 0.0;
    auto u0 = clock_type::now();
    std::vector<std::string> produced;  // merged JSON per cold wave id
    {
        opt.store_dir = pristine;
        svc::service prep(opt);
        for (const svc_wave& w : t.history) produced.push_back(flush(prep, w).merged_json);
    }
    std::vector<bool> touched(produced.size(), false);  // recalled since the reopen
    untimed_s += seconds_between(u0, clock_type::now());

    // A set-up round: open a service over a fresh copy of the prepped store
    // (recovery scan) and warm each returning tenant's worlds with one cold
    // wave. Rounds run before and after the timed phase, each on its own
    // CPU, so the median sees several host states; the last round before
    // it stays up and serves.
    std::unique_ptr<svc::service> live;
    auto round_start = ctx.process_start;
    const auto setup_round = [&] {
        if (live) {  // the previous round's service is not this round's work
            live.reset();
            round_start = clock_type::now();
        }
        rot.place(out.setup_rounds.size());
        const auto c0 = clock_type::now();
        opt.store_dir = dir + "/round-" + std::to_string(out.setup_rounds.size());
        fs::copy(pristine, opt.store_dir, fs::copy_options::recursive);
        untimed_s += seconds_between(c0, clock_type::now());
        {
            scoped_span open(tr, "svc.open", 0);
            live = std::make_unique<svc::service>(opt);
        }
        for (const svc_wave& w : t.warmup) (void)flush(*live, w);
        out.setup_rounds.push_back(seconds_between(round_start, clock_type::now()) - untimed_s);
        untimed_s = 0.0;
    };
    for (int round = 0; round < k_setup_rounds_before; ++round) setup_round();
    out.loaded_records = live->disk()->stats().loaded_records;
    const std::uint64_t fsyncs0 = live->disk()->stats().fsyncs;

    for (std::size_t i = 0; i < t.timed.size(); ++i) {
        const svc_wave& w = t.timed[i];
        svc::wave_result r;
        phase.start();
        try {
            scoped_span span(tr, span_name(w.type), i);
            r = flush(*live, w);
        } catch (const std::exception& e) {
            phase.finish(w.keys.size(), true);
            ++out.failed_waves;
            if (w.type != kind::newcomer ||
                std::string(e.what()).find("all chunks leased") == std::string::npos) {
                res.failures.push_back("wave " + std::to_string(i) + ": " + e.what());
            }
            continue;
        }
        phase.finish(w.keys.size(), false);
        out.trials += r.trials;
        if (w.type == kind::recall) {
            const bool first_touch = w.recall_of < t.history.size() && !touched[w.recall_of];
            touched[w.recall_of] = true;
            out.recall_jobs += w.keys.size();
            out.recall_hits_mem += r.hits_mem;
            out.recall_hits_disk += r.hits_disk;
            const bool served_right = first_touch ? r.hits_disk == w.keys.size()
                                                  : r.hits_mem == w.keys.size();
            if (r.merged_json != produced[w.recall_of] || !served_right) {
                res.failures.push_back("wave " + std::to_string(i) + ": recall of wave " +
                                       std::to_string(w.recall_of) +
                                       (served_right ? " changed its merged JSON"
                                                     : " was not served from cache"));
            } else {
                ++(first_touch ? out.verified_disk : out.verified_mem);
            }
        } else if (w.type == kind::cold) {
            produced.push_back(r.merged_json);
            touched.push_back(true);
            if (r.trials != w.keys.size()) {
                res.failures.push_back("wave " + std::to_string(i) + ": cold wave recalled");
            }
            out.cold_jobs += w.keys.size();
            for (const auto& jr : r.results) out.cold_faults += jr.faults_injected;
            if (tr.enabled() && out.cold_waves++ % k_probe_stride == 0) {
                std::vector<std::pair<std::string, std::string>> records;
                for (std::size_t j = 0; j < r.jobs.size(); ++j) {
                    records.emplace_back(par::serialize(r.jobs[j].key),
                                         svc::serialize(r.results[j]));
                }
                out.cold_records.push_back(std::move(records));
                if (out.probe_jobs.size() < k_chaos_probes) {
                    out.probe_jobs.emplace_back(r.jobs.front().key, r.results.front());
                }
            }
        }
    }
    out.fsyncs = live->disk()->stats().fsyncs - fsyncs0;

    for (int round = 0; round < k_setup_rounds_after; ++round) setup_round();
    rot.release();
    live.reset();
    fs::remove_all(dir);
    return out;
}

}  // namespace

svc_traffic make_svc_traffic(std::uint64_t seed, std::uint64_t seconds)
{
    svc_traffic t;
    sim::rng g(sim::split(seed, 0x5BC));
    std::set<std::uint64_t> used;
    t.returning = k_returning;
    for (std::size_t i = 0; i < k_returning; ++i) t.tenant_seeds.push_back(fresh_seed(g, used));

    for (std::size_t round = 0; round < k_history_per_tenant; ++round) {
        for (std::size_t i = 0; i < k_returning; ++i) {
            t.history.push_back(cold_wave(kind::cold, i, t.tenant_seeds[i], g));
        }
    }
    for (std::size_t i = 0; i < k_returning; ++i) {
        t.warmup.push_back(cold_wave(kind::cold, i, t.tenant_seeds[i], g));
    }

    // Newcomers: enough to lease every chunk the returning tenants leave
    // free (two world recipes each), plus a fixed share that will find
    // none left.
    const auto n = std::max<std::size_t>(
        k_min_waves, static_cast<std::size_t>(k_waves_per_second * seconds));
    const std::size_t free_chunks = core::arena::max_arenas - 2 * k_returning;
    const std::size_t failing = std::max<std::size_t>(
        1, static_cast<std::size_t>(k_failing_newcomer_share * static_cast<double>(n)));
    const std::size_t newcomers = free_chunks / 2 + failing;

    // Recall targets, by cold-wave id: history waves first, then the timed
    // cold waves in order (newcomer waves are never recalled).
    std::vector<const svc_wave*> cold_by_id;
    for (const svc_wave& w : t.history) cold_by_id.push_back(&w);
    t.timed.reserve(n);  // cold_by_id points into it
    std::size_t next_newcomer = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (next_newcomer < newcomers && i == (2 * next_newcomer + 1) * n / (2 * newcomers)) {
            const std::size_t tenant = t.tenant_seeds.size();
            t.tenant_seeds.push_back(fresh_seed(g, used));
            t.timed.push_back(cold_wave(kind::newcomer, tenant, t.tenant_seeds[tenant], g));
            ++next_newcomer;
        } else if (g.next_u64() % 10 < k_recall_per_10) {
            const std::size_t id = g.next_u64() % cold_by_id.size();
            svc_wave w = *cold_by_id[id];
            w.type = kind::recall;
            w.recall_of = id;
            t.timed.push_back(std::move(w));
        } else {
            const std::size_t tenant = g.next_u64() % k_returning;
            t.timed.push_back(cold_wave(kind::cold, tenant, t.tenant_seeds[tenant], g));
            cold_by_id.push_back(&t.timed.back());
        }
    }
    return t;
}

run_result run_svc_waves(const run_context& ctx)
{
    run_result res;
    const svc_traffic t = make_svc_traffic(ctx.a.seed, ctx.a.seconds);
    const std::string dir = ctx.scratch_dir + "/svc-store-" + std::to_string(ctx.a.seed);

    tracer off(false);
    cpu_rotation rot(1);
    timed_phase phase(t.timed.size(), ctx.a.seconds, rot);
    const pass_result p = run_pass(ctx, t, dir, off, rot, phase, res);
    if (p.verified_disk == 0 || p.verified_mem == 0) {
        res.failures.push_back("recalls were not checked from both disk and memory");
    }
    res.failed = phase.units(true);
    res.attempted = phase.units(false) + res.failed;
    res.work = {{"waves", t.timed.size()},
                {"jobs", res.attempted},
                {"trials", p.trials},
                {"failed_waves", p.failed_waves},
                {"recalls_checked_disk", p.verified_disk},
                {"recalls_checked_mem", p.verified_mem}};

    if (!ctx.a.trace) {
        add_end_to_end(res, median(p.setup_rounds), phase);
        return res;
    }

    // Traced pass over the same traffic in a fresh store.
    tracer tr(true);
    timed_phase traced(t.timed.size(), ctx.a.seconds, rot);
    const pass_result q = run_pass(ctx, t, dir, tr, rot, traced, res);
    if (q.trials != p.trials || q.failed_waves != p.failed_waves) {
        res.failures.push_back("traced pass did different work");
    }

    // Store probes: replay the sampled cold waves' records into a side store
    // (put per record, sync per wave), reopen it, and read every key back.
    {
        const std::string side = dir + "-side";
        std::filesystem::remove_all(side);
        {
            svc::store s(svc::store_options{side});
            for (const auto& wave : q.cold_records) {
                for (const auto& [k, v] : wave) {
                    scoped_span put(tr, "store.put", 0);
                    s.put(k, v);
                }
                scoped_span sync(tr, "store.sync", 0);
                s.sync();
            }
        }
        svc::store s(svc::store_options{side});
        for (const auto& wave : q.cold_records) {
            for (const auto& [k, v] : wave) {
                std::optional<std::string_view> got;
                {
                    scoped_span get(tr, "store.get", 0);
                    got = s.get(k);
                }
                if (!got || *got != v) res.failures.push_back("side store lost a record");
            }
        }
        std::filesystem::remove_all(side);
    }

    // Fresh (unforked) chaos trials for a sample of cold jobs: time them and
    // check they reproduce the service's forked results.
    double trace_bytes = 0;
    for (const auto& [key, want] : q.probe_jobs) {
        const auto program_seed = std::stoull(key.program.substr(std::string("program:").size()));
        attacks::chaos_trial_result trial;
        {
            scoped_span span(tr, "attacks.chaos_trial", 0);
            trial = attacks::run_chaos_program(program_seed, key.defense == "jskernel",
                                               faults::plan::parse(key.plan), key.seed);
        }
        trace_bytes += static_cast<double>(trial.trace_json.size());
        if (par::fnv1a(trial.trace_json) != want.trace_digest ||
            par::fnv1a(trial.journal_json) != want.journal_digest) {
            res.failures.push_back("fresh chaos trial differs from the service's forked one");
        }
    }

    const double ok_waves = static_cast<double>(t.timed.size() - q.failed_waves);
    const double recall_jobs = static_cast<double>(std::max<std::uint64_t>(1, q.recall_jobs));
    res.metrics = {
        {"svc.open_ms", tr.sum("svc.open").mean_us() / 1e3, "ms"},
        {"svc.loaded_records", static_cast<double>(q.loaded_records), "count"},
        {"svc.recall_wave_ms", tr.sum("wave.recall").mean_us() / 1e3, "ms"},
        {"svc.store_get_us", tr.sum("store.get").mean_us(), "us"},
        {"svc.cold_wave_ms", tr.sum("wave.cold").mean_us() / 1e3, "ms"},
        {"svc.store_put_us", tr.sum("store.put").mean_us(), "us"},
        {"svc.store_sync_ms", tr.sum("store.sync").mean_us() / 1e3, "ms"},
        {"attacks.chaos_trial_us", tr.sum("attacks.chaos_trial").mean_us(), "us"},
        {"svc.hit_mem_share", static_cast<double>(q.recall_hits_mem) / recall_jobs, "share"},
        {"svc.hit_disk_share", static_cast<double>(q.recall_hits_disk) / recall_jobs, "share"},
        {"svc.trials_per_wave", static_cast<double>(q.trials) / ok_waves, "count"},
        {"svc.fsyncs_per_wave", static_cast<double>(q.fsyncs) / ok_waves, "count"},
        {"faults.injected_per_trial",
         static_cast<double>(q.cold_faults) / static_cast<double>(std::max<std::uint64_t>(1, q.cold_jobs)),
         "count"},
        {"obs.trace_bytes_per_trial",
         trace_bytes / static_cast<double>(std::max<std::size_t>(1, q.probe_jobs.size())), "bytes"},
        {"svc.failed_waves", static_cast<double>(q.failed_waves), "count"},
        {"trace.overhead_share",
         figures(phase).throughput_per_s / figures(traced).throughput_per_s - 1.0,
         "share"},
    };
    tr.write_json(ctx.scratch_dir + "/spans-svc-waves-" + std::to_string(ctx.a.seed) + ".json");
    return res;
}

}  // namespace perfbench
