#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

// --- arguments -------------------------------------------------------------

std::string usage()
{
    return "usage: perfbench --workload cve-matrix|relaxed-dfs|svc-waves "
           "--seed <n> --seconds <1..600> --trace 0|1";
}

namespace {

const std::vector<std::string> k_workloads{"cve-matrix", "relaxed-dfs", "svc-waves"};

/// Decimal digits only, no sign, no overflow.
std::optional<std::uint64_t> parse_u64(const std::string& text)
{
    if (text.empty() || text.size() > 20) return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            return std::nullopt;
        }
        value = value * 10 + digit;
    }
    return value;
}

}  // namespace

std::optional<args> parse_args(const std::vector<std::string>& argv, std::string& error)
{
    args out;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    const auto fail = [&](const std::string& why) -> std::optional<args> {
        error = why;
        return std::nullopt;
    };
    for (std::size_t i = 0; i < argv.size(); i += 2) {
        const std::string& flag = argv[i];
        if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
            flag != "--trace") {
            return fail("unknown argument '" + flag + "'");
        }
        if (i + 1 >= argv.size()) return fail("missing value for " + flag);
        const std::string& value = argv[i + 1];
        if (flag == "--workload") {
            if (have_workload) return fail("--workload given twice");
            if (std::find(k_workloads.begin(), k_workloads.end(), value) == k_workloads.end()) {
                return fail("unknown workload '" + value + "'");
            }
            out.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (have_seed) return fail("--seed given twice");
            const auto v = parse_u64(value);
            if (!v) return fail("malformed --seed '" + value + "'");
            out.seed = *v;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (have_seconds) return fail("--seconds given twice");
            const auto v = parse_u64(value);
            if (!v || *v == 0 || *v > 600) {
                return fail("--seconds must be an integer in 1..600, got '" + value + "'");
            }
            out.seconds = *v;
            have_seconds = true;
        } else {
            if (have_trace) return fail("--trace given twice");
            if (value != "0" && value != "1") {
                return fail("--trace must be 0 or 1, got '" + value + "'");
            }
            out.trace = value == "1";
            have_trace = true;
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        return fail("--workload, --seed, --seconds and --trace are all required");
    }
    return out;
}

// --- latency percentiles ---------------------------------------------------

double percentile_ms(const latency_sample& s, double p, std::size_t min_beyond)
{
    const std::size_t n = s.count();
    if (n == 0 || !(p > 0.0 && p < 1.0)) {
        throw std::invalid_argument("percentile_ms: empty sample or p outside (0,1)");
    }
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (n - rank < min_beyond) {
        throw std::invalid_argument("percentile_ms: " + std::to_string(n - rank) +
                                    " samples beyond p" + std::to_string(p * 100) +
                                    ", need " + std::to_string(min_beyond));
    }
    // Ranks 1..ok are successes in ascending order; above them, failures.
    if (rank > s.ok_ms.size()) {
        throw std::runtime_error("percentile_ms: the rank lands on a failed request");
    }
    std::vector<double> sorted = s.ok_ms;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     sorted.end());
    return sorted[rank - 1];
}

double median(std::vector<double> v)
{
    if (v.empty()) throw std::invalid_argument("median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// --- tracing -----------------------------------------------------------------

namespace {
thread_local std::vector<std::uint32_t> tl_open;  // this thread's open span ids
}

std::uint32_t tracer::open(const char* name, std::uint64_t request,
                           std::uint32_t parent)
{
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - epoch_)
            .count());
    if (parent == 0 && !tl_open.empty()) parent = tl_open.back();
    std::uint32_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<std::uint32_t>(spans_.size() + 1);
        spans_.push_back(span_rec{name, now, now, id, parent, request});
    }
    tl_open.push_back(id);
    return id;
}

void tracer::close(std::uint32_t id)
{
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - epoch_)
            .count());
    if (!tl_open.empty() && tl_open.back() == id) tl_open.pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
}

tracer::totals tracer::sum(std::string_view name) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    totals t;
    std::vector<char> match(spans_.size() + 1, 0);
    for (const span_rec& s : spans_) {
        if (s.name != name) continue;
        match[s.id] = 1;
        ++t.count;
        t.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
    for (const span_rec& s : spans_) {
        if (s.parent != 0 && match[s.parent] != 0) {
            t.child_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        }
    }
    return t;
}

bool tracer::write_json(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    const std::lock_guard<std::mutex> lock(mu_);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span_rec& s = spans_[i];
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

// --- host and process readings ----------------------------------------------

namespace {
volatile std::uint64_t g_host_sink = 0;
}

double host_reference_ms()
{
    // xorshift64 steps: pure register arithmetic. The volatile store keeps
    // the loop from being folded away.
    const auto t0 = clock_type::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = 0; i < (1u << 24); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    g_host_sink = x;
    return seconds_between(t0, clock_type::now()) * 1e3;
}

double process_cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- the result line --------------------------------------------------------

cpu_rotation::cpu_rotation(std::size_t threads) : threads_(threads)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
        }
    }
}

void cpu_rotation::place(std::size_t k)
{
    if (cpus_.size() <= threads_) return;  // nothing to choose between
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < threads_; ++i) CPU_SET(cpus_[(k + i) % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void cpu_rotation::release()
{
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus_) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

timed_phase::timed_phase(std::size_t requests, std::uint64_t seconds, cpu_rotation& rot)
    : planned_(requests),
      blocks_(std::max<std::size_t>(1, std::min<std::size_t>(4 * seconds, requests / 8))),
      rot_(rot)
{
}

void timed_phase::start()
{
    // Block b starts at request b * planned / blocks.
    if (next_block_ < blocks_ && requests.size() == next_block_ * planned_ / blocks_) {
        rot_.place(next_block_++);
    }
    t0_ = clock_type::now();
    cpu0_ = process_cpu_seconds();
}

void timed_phase::finish(std::uint64_t units, bool failed)
{
    requests.push_back({seconds_between(t0_, clock_type::now()) * 1e3,
                        process_cpu_seconds() - cpu0_, units, failed});
    if (requests.size() == planned_) rot_.release();
}

std::uint64_t timed_phase::units(bool failed) const
{
    std::uint64_t n = 0;
    for (const request_rec& r : requests) n += r.failed == failed ? r.units : 0;
    return n;
}

phase_figures figures(const timed_phase& phase)
{
    phase_figures f;
    latency_sample lat;
    double cpu_s = 0.0;
    std::uint64_t ok_units = 0;
    for (const request_rec& r : phase.requests) {
        f.wall_s += r.ms / 1e3;
        cpu_s += r.cpu_s;
        if (r.failed) {
            ++lat.failed;
        } else {
            ok_units += r.units;
            lat.ok_ms.push_back(r.ms);
        }
    }
    f.throughput_per_s = static_cast<double>(ok_units) / f.wall_s;
    f.p50_ms = percentile_ms(lat, 0.5);
    f.p90_ms = percentile_ms(lat, 0.9);
    f.cpu_us_per_unit = cpu_s * 1e6 / static_cast<double>(ok_units);
    return f;
}

void add_end_to_end(run_result& r, double setup_s, const timed_phase& phase)
{
    const phase_figures f = figures(phase);
    const double ok = static_cast<double>(phase.units(false));
    const double attempted = ok + static_cast<double>(phase.units(true));
    r.metrics.push_back({"setup_s", setup_s, "s"});
    r.metrics.push_back({"throughput_per_s", f.throughput_per_s, "1/s"});
    r.metrics.push_back({"request_p50_ms", f.p50_ms, "ms"});
    r.metrics.push_back({"request_p90_ms", f.p90_ms, "ms"});
    r.metrics.push_back({"cpu_us_per_unit", f.cpu_us_per_unit, "us"});
    r.metrics.push_back({"ok_share", ok / attempted, "share"});
    r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
    r.diagnostics.push_back("timed phase: " + std::to_string(phase.requests.size()) +
                            " requests, " + std::to_string(f.wall_s) + " s");
}

std::string result_json(const run_result& r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const metric& m = r.metrics[i];
        // JSON has no inf/nan; main() reports such a value as a failed check.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
