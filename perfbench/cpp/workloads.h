// perfbench workloads. Each is closed-loop from one client, does a fixed
// amount of work derived from (seed, seconds), times it, checks its outputs
// and fills a run_result. See NOTES.md for why each workload exists and
// which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "par/cache.h"

namespace jsk::attacks {}
namespace jsk::core {}
namespace jsk::defenses {}
namespace jsk::faults {}
namespace jsk::rt {}
namespace jsk::sim {}
namespace jsk::svc {}
namespace jsk::wm {}
namespace jsk::workloads {}

namespace perfbench {

namespace attacks = jsk::attacks;
namespace core = jsk::core;
namespace defenses = jsk::defenses;
namespace faults = jsk::faults;
namespace par = jsk::par;
namespace rt = jsk::rt;
namespace sim = jsk::sim;
namespace svc = jsk::svc;
namespace wm = jsk::wm;
namespace workloads = jsk::workloads;

/// Context every workload receives.
struct run_context {
    args a;
    clock_type::time_point process_start;  // main(), after the host reference loop
    std::string scratch_dir;                // writable directory for stores and spans
};

// --- cve-matrix ----------------------------------------------------------------

/// One request: a whole explore_cve_matrix random-walk sweep.
struct cve_request {
    std::uint64_t walk_seed_root = 0;  // matrix_options::explore.seed
    std::uint64_t browser_seed = 0;
};

struct cve_traffic {
    std::uint64_t walks_per_cell = 0;
    std::vector<std::uint64_t> site_ranks;  // preloaded page sessions
    std::uint64_t site_seed = 0;
    std::vector<cve_request> requests;
};

cve_traffic make_cve_traffic(std::uint64_t seed, std::uint64_t seconds);
run_result run_cve_matrix(const run_context& ctx);

// --- relaxed-dfs -----------------------------------------------------------

/// One request per random program; the value is its program seed.
std::vector<std::uint64_t> make_dfs_traffic(std::uint64_t seed, std::uint64_t seconds);
run_result run_relaxed_dfs(const run_context& ctx);

// --- svc-waves -------------------------------------------------------------

/// One wave as a tenant submits it.
struct svc_wave {
    enum class kind { cold, recall, newcomer };
    kind type = kind::cold;
    std::size_t tenant = 0;  // index into svc_traffic::tenant_seeds
    /// Recall waves: the id of the earlier cold wave they resubmit
    /// (history waves are ids [0, history.size()), timed waves follow).
    std::size_t recall_of = 0;
    std::vector<par::witness_key> keys;  // client ids are 1..keys.size()
};

struct svc_traffic {
    std::size_t returning = 0;                // tenants [0, returning) return
    std::vector<std::uint64_t> tenant_seeds;  // browser seed per tenant
    std::vector<svc_wave> history;            // untimed prep pass (fills the store)
    std::vector<svc_wave> warmup;             // one cold wave per returning tenant
    std::vector<svc_wave> timed;
};

svc_traffic make_svc_traffic(std::uint64_t seed, std::uint64_t seconds);
run_result run_svc_waves(const run_context& ctx);

}  // namespace perfbench
