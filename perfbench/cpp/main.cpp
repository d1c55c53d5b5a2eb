// perfbench — one run of one workload.
//
//   perfbench --workload cve-matrix|relaxed-dfs|svc-waves --seed N
//             --seconds S --trace 0|1
//
// Writes stores and span files under the current directory. Prints
// diagnostics (host-speed reference, exact work counts, failures) and, as
// the last stdout line, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones its workload
// measures with --trace 1 (run.py completes the set from BENCHMARK.json).
// Exits 2 on a usage error and 1 when the run throws, printing no result;
// a finished run exits 0 and reports failed output checks as
// "correct": false.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv)
{
    using namespace perfbench;
    std::string error;
    const auto parsed = parse_args(std::vector<std::string>(argv + 1, argv + argc), error);
    if (!parsed) {
        std::fprintf(stderr, "perfbench: %s\n%s\n", error.c_str(), usage().c_str());
        return 2;
    }

    // Set-up is timed from here, after the host-speed reference loop.
    const double host_before = host_reference_ms();
    run_context ctx;
    ctx.a = *parsed;
    ctx.process_start = clock_type::now();
    ctx.scratch_dir = std::filesystem::current_path().string();

    run_result res;
    try {
        if (ctx.a.workload == "cve-matrix") {
            res = run_cve_matrix(ctx);
        } else if (ctx.a.workload == "relaxed-dfs") {
            res = run_relaxed_dfs(ctx);
        } else {
            res = run_svc_waves(ctx);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", ctx.a.workload.c_str(), e.what());
        return 1;
    }
    const double host_after = host_reference_ms();

    for (const metric& m : res.metrics) {
        if (!std::isfinite(m.value)) res.failures.push_back("metric " + m.name + " is not finite");
    }
    res.correct = res.failures.empty();

    std::printf("host_reference_ms before=%.3f after=%.3f\n", host_before, host_after);
    std::printf("work");
    for (const auto& [name, count] : res.work) {
        std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    for (const std::string& d : res.diagnostics) std::printf("%s\n", d.c_str());
    for (const std::string& f : res.failures) std::printf("check failed: %s\n", f.c_str());
    std::printf("%s\n", result_json(res).c_str());
    return 0;
}
