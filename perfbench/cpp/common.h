// perfbench — shared pieces of the benchmark: argument parsing, the
// percentile helper, the in-memory span tracer, the host-speed reference
// loop, process resource readings and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- arguments -------------------------------------------------------------

struct args {
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
};

/// Strict parse of `--workload W --seed N --seconds S --trace 0|1`: every
/// flag exactly once, decimal digits only (no sign, no spaces, no overflow),
/// seconds in [1, 600], a known workload. Anything else — including --help,
/// a missing value or an unknown flag — yields nullopt with `error` set.
/// Seed 0 is a valid seed; zero seconds is not.
std::optional<args> parse_args(const std::vector<std::string>& argv, std::string& error);

std::string usage();

// --- latency percentiles ---------------------------------------------------

/// Per-request latencies of one run. Failed requests carry no latency: they
/// rank above every success.
struct latency_sample {
    std::vector<double> ok_ms;
    std::size_t failed = 0;

    [[nodiscard]] std::size_t count() const { return ok_ms.size() + failed; }
};

/// Nearest-rank percentile (rank = ceil(p * n)) over successes and failures
/// together. Throws std::invalid_argument when fewer than `min_beyond`
/// samples lie beyond the rank (the tail would be a handful of outliers),
/// and std::runtime_error when the rank lands on a failure (the percentile
/// is unbounded: the run failed too often to report it).
double percentile_ms(const latency_sample& s, double p, std::size_t min_beyond = 10);

// --- tracing -----------------------------------------------------------------

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
/// Names are string literals.
struct span_rec {
    const char* name = "";
    std::uint64_t start_ns = 0;  // since the tracer's epoch
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
};

/// In-memory span store. Disabled tracers record nothing (one branch per
/// span). Thread-safe: par workers record into it concurrently.
class tracer {
public:
    explicit tracer(bool enabled) : enabled_(enabled), epoch_(clock_type::now()) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span; returns its id (0 when disabled). `parent` 0 means "the
    /// innermost span this thread has open", if any.
    std::uint32_t open(const char* name, std::uint64_t request,
                       std::uint32_t parent = 0);
    void close(std::uint32_t id);

    /// Completed spans named `name`: count, summed duration, and the summed
    /// duration of their direct children (for self time).
    struct totals {
        std::uint64_t count = 0;
        double total_us = 0.0;
        double child_us = 0.0;

        [[nodiscard]] double mean_us() const { return count ? total_us / count : 0.0; }
    };
    [[nodiscard]] totals sum(std::string_view name) const;

    /// Write every span as one JSON array (name, start, end, parent, request).
    bool write_json(const std::string& path) const;

private:
    bool enabled_;
    clock_type::time_point epoch_;
    mutable std::mutex mu_;  // guards spans_
    std::vector<span_rec> spans_;
};

/// RAII span. Records nothing when the tracer is disabled.
class scoped_span {
public:
    scoped_span(tracer& t, const char* name, std::uint64_t request,
                std::uint32_t parent = 0)
        : t_(t), id_(t.enabled() ? t.open(name, request, parent) : 0)
    {
    }
    ~scoped_span()
    {
        if (id_ != 0) t_.close(id_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    [[nodiscard]] std::uint32_t id() const { return id_; }

private:
    tracer& t_;
    std::uint32_t id_;
};

// --- host and process readings ----------------------------------------------

/// Time a fixed integer loop (no memory traffic, no calls): a host-speed
/// reference printed beside the metrics. A diagnostic only — it normalises
/// nothing.
double host_reference_ms();

/// Process CPU time (user + system) so far, in seconds.
double process_cpu_seconds();

/// Peak resident set size so far, in MiB.
double peak_rss_mb();

// --- the result line --------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;
    /// Exact work counts (printed as a diagnostic line; repeat bit-for-bit
    /// for a given seed and --seconds).
    std::vector<std::pair<std::string, std::uint64_t>> work;
    std::vector<std::string> failures;     // why `correct` is false
    std::vector<std::string> diagnostics;  // printed, not reported
};

/// The final stdout line: {"correct","attempted","failed","metrics"}.
std::string result_json(const run_result& r);

/// Median of a non-empty vector (copied).
double median(std::vector<double> v);

/// Spreads a run over every CPU the process may use. CPUs of one shared
/// host can differ in speed by a third (NOTES.md), so a run that stayed
/// wherever the scheduler put it would measure that choice. place(k) pins
/// the calling thread, and threads it creates afterwards, to `threads`
/// consecutive allowed CPUs starting at allowed CPU k mod n; release() and
/// the destructor restore the original mask. Pinning is best effort.
class cpu_rotation {
public:
    explicit cpu_rotation(std::size_t threads);
    ~cpu_rotation() { release(); }
    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    void place(std::size_t k);
    void release();

private:
    std::size_t threads_;
    std::vector<int> cpus_;  // allowed CPUs at construction
};

/// One closed-loop request of a timed phase.
struct request_rec {
    double ms = 0.0;     // wall time
    double cpu_s = 0.0;  // process CPU time (all threads)
    std::uint64_t units = 0;  // trials / schedules / jobs the request carried
    bool failed = false;
};

/// The timed phase: every request in order. The planned requests are cut
/// into blocks of consecutive requests, four per requested second with at
/// least eight requests each, and block k runs at rot.place(k).
class timed_phase {
public:
    timed_phase(std::size_t requests, std::uint64_t seconds, cpu_rotation& rot);

    void start();
    void finish(std::uint64_t units, bool failed);

    [[nodiscard]] std::uint64_t units(bool failed) const;

    std::vector<request_rec> requests;

private:
    std::size_t planned_;
    std::size_t blocks_;
    std::size_t next_block_ = 0;
    cpu_rotation& rot_;
    clock_type::time_point t0_;
    double cpu0_ = 0.0;
};

/// End-to-end figures of a timed phase.
struct phase_figures {
    double wall_s = 0.0;  // summed request time
    double throughput_per_s = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double cpu_us_per_unit = 0.0;
};

phase_figures figures(const timed_phase& phase);

/// Fill r.metrics with the end-to-end set from `setup_s` and `phase`.
void add_end_to_end(run_result& r, double setup_s, const timed_phase& phase);

}  // namespace perfbench
