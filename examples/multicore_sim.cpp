/**
 * @file
 * Shared-LLC multi-core serving simulator CLI.
 *
 * Replays a multi-programmed mix of synthetic workloads (suite,
 * KV-cache multi-tenant or phase-shift family) through one shared
 * last-level cache and reports interference and fairness: per-tenant
 * solo vs shared IPC, slowdown, MPKI, weighted speedup and throughput.
 *
 *   multicore_sim --cores 4 --mix kv-serving --policy DGIPPR4 \
 *                 --partition utility --json report.json
 *
 * Knobs:
 *   --cores N            tenants sharing the LLC (default 4)
 *   --mix SPEC           preset name or "workload[:weight],..." list
 *   --policy NAME        policy_zoo name with a packed replay spec
 *                        (LRU, LIP, GIPLR, PLRU, GIPPR, DGIPPR2,
 *                        DGIPPR4, DRRIP, ...)
 *   --schedule S         rr | weighted (stride by tenant weight)
 *   --duel S             global | per-core DGIPPR tournaments
 *   --partition S        none | static:w0,w1,... | utility[:every]
 *   --backend S          fast (packed) | scalar (reference oracle)
 *   --accesses N         CPU references per tenant stream
 *   --seed S             suite base seed
 *   --json PATH          write a gippr-run-report artifact
 *   --deterministic      pin the report timestamp (CI diffing)
 *   --reference-single   1-core gate: replay through the single-core
 *                        ReplayEngine instead of the shared model
 *
 * Selector mode (sim/select): instead of one static --policy, a
 * bandit picks the serving policy per epoch from a library, and every
 * library arm also replays statically for the selector's regret
 * against the best static choice:
 *   --select             enable online policy selection
 *   --library L1,L2,...  policy_zoo names (default LRU,LIP,PLRU,GIPPR)
 *   --bandit S           ducb | egreedy
 *   --epoch N            accesses per decision epoch
 * One workload (suite, kv_* or ps_*) runs as a 1-tenant mix:
 *
 *   multicore_sim --cores 1 --mix ps_quad --select --json report.json
 *
 * Unsigned flags (--cores, --accesses, --seed, --epoch) take plain
 * base-10 integers; anything else ("100k", "-1") is fatal.
 *
 * The CI multicore-equiv job (and, in selector mode, the
 * select_artifacts_identical test) runs `--cores 1 --deterministic`
 * with and without --reference-single and byte-compares the JSON
 * artifacts: the shared model must be indistinguishable from the
 * single-core engine (in selector mode, the shared selector run from
 * the single-trace selector run).  Nothing written to the report may
 * therefore depend on which of the two paths produced it.
 */

#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/multicore/engine.hh"
#include "sim/select/engine.hh"
#include "sim/select/report.hh"
#include "sim/select/select.hh"
#include "sim/trace_cache.hh"
#include "telemetry/json.hh"
#include "telemetry/report.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "workloads/suite.hh"

using namespace gippr;
using namespace gippr::multicore;

namespace
{

struct Options
{
    unsigned cores = 4;
    std::string mix = "balanced";
    std::string policy = "DGIPPR4";
    std::string schedule = "rr";
    std::string duel = "global";
    std::string partition = "none";
    std::string backend = "fast";
    uint64_t accesses = 200'000;
    uint64_t seed = 0x5eed;
    double warmupFraction = 1.0 / 3.0;
    std::string jsonPath;
    bool deterministic = false;
    bool referenceSingle = false;
    bool select = false;
    std::string library = gippr::select::defaultLibrarySpec();
    std::string bandit = "ducb";
    uint64_t epoch = gippr::select::SelectConfig{}.epochLength;
};

void
usage()
{
    std::printf(
        "usage: multicore_sim [--cores N] [--mix SPEC]\n"
        "                     [--policy NAME] [--schedule rr|weighted]\n"
        "                     [--duel global|per-core]\n"
        "                     [--partition none|static:W,..|utility[:N]]\n"
        "                     [--backend fast|scalar] [--accesses N]\n"
        "                     [--seed S] [--json PATH]\n"
        "                     [--deterministic] [--reference-single]\n"
        "                     [--select] [--library L1,L2,..]\n"
        "                     [--bandit ducb|egreedy] [--epoch N]\n"
        "\n"
        "Mix presets: thrash-heavy, balanced, reuse-heavy,\n"
        "stream-polluted, kv-serving; or any comma-separated\n"
        "\"workload[:weight]\" list over the suite, the KV-cache\n"
        "family (kv_*) and the phase-shift family (ps_*).  Policies:\n"
        "policy_zoo names with a packed replay spec (LRU, LIP, GIPLR,\n"
        "PLRU, GIPPR, DGIPPR2, DGIPPR4, DRRIP, ...).\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal(std::string(flag) + " requires an argument");
            return argv[++i];
        };
        auto number = [&](const char *flag,
                          uint64_t max = UINT64_MAX) -> uint64_t {
            return parseUnsigned(flag, value(flag), max);
        };
        if (arg == "--cores")
            opts.cores = static_cast<unsigned>(
                number("--cores", std::numeric_limits<unsigned>::max()));
        else if (arg == "--mix")
            opts.mix = value("--mix");
        else if (arg == "--policy")
            opts.policy = value("--policy");
        else if (arg == "--schedule")
            opts.schedule = value("--schedule");
        else if (arg == "--duel")
            opts.duel = value("--duel");
        else if (arg == "--partition")
            opts.partition = value("--partition");
        else if (arg == "--backend")
            opts.backend = value("--backend");
        else if (arg == "--accesses")
            opts.accesses = number("--accesses");
        else if (arg == "--seed")
            opts.seed = number("--seed");
        else if (arg == "--json")
            opts.jsonPath = value("--json");
        else if (arg == "--deterministic")
            opts.deterministic = true;
        else if (arg == "--reference-single")
            opts.referenceSingle = true;
        else if (arg == "--select")
            opts.select = true;
        else if (arg == "--library")
            opts.library = value("--library");
        else if (arg == "--bandit")
            opts.bandit = value("--bandit");
        else if (arg == "--epoch")
            opts.epoch = number("--epoch");
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("unknown argument: " + arg);
        }
    }
    if (opts.cores == 0)
        fatal("--cores must be >= 1");
    if (opts.referenceSingle && opts.cores != 1)
        fatal("--reference-single requires --cores 1");
    if (opts.select && opts.epoch == 0)
        fatal("--epoch must be >= 1");
    return opts;
}

/** The packed replay spec of policy_zoo policy @p name. */
fastpath::ReplaySpec
policySpec(const std::string &name)
{
    const PolicyDef def = policyByName(name);
    if (!def.fastSpec)
        fatal("--policy " + name +
              " has no packed replay spec; the shared LLC runs only "
              "policies that have one");
    return *def.fastSpec;
}

/** Row label "c<idx>:<workload>" — unique even when the mix cycles. */
std::string
coreLabel(unsigned core, const CoreResult &cr)
{
    return "c" + std::to_string(core) + ":" + cr.workload;
}

telemetry::RunReport
buildReport(const Options &opts, const MixSpec &mix,
            const RunParams &params, const RunResult &res)
{
    using telemetry::JsonValue;
    telemetry::RunReport report("multicore", "multicore_sim");
    if (opts.deterministic)
        report.setTimestamp("1970-01-01T00:00:00Z");

    report.setConfig("cores", static_cast<uint64_t>(res.cores.size()));
    report.setConfig("mix", mix.name);
    JsonValue tenants = JsonValue::array();
    for (const CoreResult &cr : res.cores) {
        JsonValue t = JsonValue::object();
        t.set("workload", cr.workload);
        t.set("weight", cr.weight);
        tenants.push(t);
    }
    report.setConfig("tenants", tenants);
    report.setConfig("policy", opts.policy);
    report.setConfig("schedule", scheduleName(params.schedule));
    report.setConfig("duel_scope", duelScopeName(params.duelScope));
    // The backend is deliberately not recorded: the CI equivalence
    // job byte-compares fast-vs-scalar (and shared-vs-single-core)
    // artifacts, which is only meaningful if the report carries no
    // trace of which implementation produced it.
    report.setConfig("partition",
                     partitionModeName(params.partition.mode));
    JsonValue llc = JsonValue::object();
    llc.set("size_bytes", params.llc.sizeBytes);
    llc.set("assoc", static_cast<uint64_t>(params.llc.assoc));
    llc.set("block_bytes", static_cast<uint64_t>(params.llc.blockBytes));
    report.setConfig("llc", llc);
    report.setConfig("accesses_per_core", opts.accesses);
    report.setConfig("seed", opts.seed);
    report.setConfig("warmup_fraction", params.warmupFraction);

    telemetry::ResultTable fairness;
    fairness.title = "fairness";
    fairness.metric = "per-core";
    fairness.columns = {"weight",   "solo_ipc", "shared_ipc",
                        "slowdown", "mpki",     "demand_misses"};
    for (size_t c = 0; c < res.cores.size(); ++c) {
        const CoreResult &cr = res.cores[c];
        const CoreFairness &f = res.fairness.cores[c];
        fairness.rows.push_back(
            {coreLabel(static_cast<unsigned>(c), cr),
             {static_cast<double>(cr.weight), f.soloIpc, f.sharedIpc,
              f.slowdown, f.mpki,
              static_cast<double>(cr.stats.measured.demandMisses)}});
    }
    report.addTable(fairness);

    telemetry::ResultTable summary;
    summary.title = "summary";
    summary.metric = "mix";
    summary.columns = {"weighted_speedup", "throughput",
                       "max_slowdown",     "mean_slowdown",
                       "miss_rate",        "repartitions"};
    const double miss_rate =
        res.measured.accesses > 0
            ? static_cast<double>(res.measured.misses) /
                  static_cast<double>(res.measured.accesses)
            : 0.0;
    summary.rows.push_back(
        {mix.name,
         {res.fairness.weightedSpeedup, res.fairness.throughput,
          res.fairness.maxSlowdown, res.fairness.meanSlowdown,
          miss_rate, static_cast<double>(res.repartitions)}});
    report.addTable(summary);

    if (!res.wayCounts.empty()) {
        JsonValue ways = JsonValue::array();
        for (unsigned w : res.wayCounts)
            ways.push(static_cast<uint64_t>(w));
        report.setConfig("way_counts", ways);
    }
    return report;
}

void
printResult(const MixSpec &mix, const RunParams &params,
            const RunResult &res)
{
    std::printf("mix %s: %zu cores, policy %s, schedule %s, duel %s, "
                "partition %s, backend %s\n",
                mix.name.c_str(), res.cores.size(),
                params.policy.name().c_str(),
                scheduleName(params.schedule),
                duelScopeName(params.duelScope),
                partitionModeName(params.partition.mode),
                backendName(params.backend));
    std::printf("%-24s %6s %10s %10s %9s %8s\n", "core:workload",
                "weight", "solo_ipc", "shared_ipc", "slowdown",
                "mpki");
    for (size_t c = 0; c < res.cores.size(); ++c) {
        const CoreResult &cr = res.cores[c];
        const CoreFairness &f = res.fairness.cores[c];
        std::printf("%-24s %6llu %10.4f %10.4f %9.4f %8.2f\n",
                    coreLabel(static_cast<unsigned>(c), cr).c_str(),
                    static_cast<unsigned long long>(cr.weight),
                    f.soloIpc, f.sharedIpc, f.slowdown, f.mpki);
    }
    std::printf("weighted speedup %.4f | throughput %.4f | "
                "max slowdown %.4f | mean slowdown %.4f\n",
                res.fairness.weightedSpeedup, res.fairness.throughput,
                res.fairness.maxSlowdown, res.fairness.meanSlowdown);
    if (!res.wayCounts.empty()) {
        std::printf("way counts:");
        for (unsigned w : res.wayCounts)
            std::printf(" %u", w);
        std::printf(" (repartitions: %llu)\n",
                    static_cast<unsigned long long>(res.repartitions));
    }
}

/** Demand miss rate, 0 without accesses. */
double
missRate(uint64_t misses, uint64_t accesses)
{
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
}

/**
 * Selector mode: the bandit picks the serving policy per epoch.  The
 * 1-core --reference-single gate replays the merged trace through the
 * single-trace selector engine instead of the shared-stream one; the
 * two must emit byte-identical artifacts.
 */
int
runSelectMode(const Options &opts, const MixSpec &mix,
              const std::vector<CoreStream> &streams,
              const CacheConfig &llc, Schedule schedule)
{
    namespace sel = gippr::select;

    sel::SelectConfig cfg;
    cfg.kind = sel::parseBanditKind(opts.bandit);
    cfg.epochLength = opts.epoch;
    cfg.seed = opts.seed;
    const std::vector<PolicyDef> library =
        sel::parseLibrary(opts.library);
    const sel::Backend backend = sel::resolveBackend(
        library, llc, sel::parseBackend(opts.backend));

    // The merged reference order feeds the static regret baselines,
    // and the single-trace selector run under --reference-single.
    const Trace merged = sel::mergedTrace(streams, schedule);
    size_t warmup = 0;
    for (const CoreStream &cs : streams)
        warmup += static_cast<size_t>(
            static_cast<double>(cs.trace->size()) *
            opts.warmupFraction);
    const sel::SelectResult res =
        opts.referenceSingle
            ? sel::runSelect(library, cfg, llc, merged, warmup, backend)
            : sel::runSelectShared(streams, schedule, library, cfg, llc,
                                   opts.warmupFraction, backend);
    const std::vector<sel::StaticOracleRow> oracle =
        sel::staticOracle(library, llc, merged, warmup, backend);
    const sel::StaticOracleRow &best =
        oracle[sel::bestStaticIndex(oracle)];

    std::printf("mix %s: %zu cores, select %s over %s, epoch %llu, "
                "%zu epochs, %llu switches, %llu drift resets\n",
                mix.name.c_str(), res.coreMeasured.size(),
                sel::banditKindName(cfg.kind),
                sel::libraryName(library).c_str(),
                static_cast<unsigned long long>(cfg.epochLength),
                res.timeline.size(),
                static_cast<unsigned long long>(res.switches),
                static_cast<unsigned long long>(res.driftResets));
    for (size_t a = 0; a < res.arms.size(); ++a) {
        std::printf("  arm %-12s epochs %llu\n", res.arms[a].c_str(),
                    static_cast<unsigned long long>(
                        res.epochsChosen[a]));
    }
    std::printf("selector %llu demand misses (rate %.4f) | best static "
                "%s %llu (rate %.4f) | regret %lld misses\n",
                static_cast<unsigned long long>(res.measured.demandMisses),
                res.measuredDemandMissRate(), best.name.c_str(),
                static_cast<unsigned long long>(
                    best.measured.demandMisses),
                missRate(best.measured.demandMisses,
                         best.measured.demandAccesses),
                static_cast<long long>(res.measured.demandMisses) -
                    static_cast<long long>(best.measured.demandMisses));

    if (!opts.jsonPath.empty()) {
        sel::SelectReportInputs in;
        in.binary = "multicore_sim";
        in.workload = mix.name;
        for (const CoreStream &cs : streams)
            in.coreWorkloads.push_back(cs.workload);
        in.cfg = cfg;
        in.llc = llc;
        in.warmupFraction = opts.warmupFraction;
        in.result = res;
        in.oracle = oracle;
        in.deterministic = opts.deterministic;
        sel::buildSelectReport(in).writeFile(opts.jsonPath);
        std::printf("report written to %s\n", opts.jsonPath.c_str());
    }
    return 0;
}

int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    SuiteParams sp;
    sp.llcBlocks = 16384; // the 1MB bench LLC
    sp.accessesPerSimpoint = opts.accesses;
    sp.baseSeed = opts.seed;
    SyntheticSuite suite(sp);

    HierarchyConfig hier;
    hier.l1 = CacheConfig::paperL1d();
    hier.l2 = CacheConfig::paperL2();
    hier.llc = CacheConfig::benchLlc();

    // Every spec is parsed before the streams are built, so a typo
    // stops the run at once.
    const MixSpec mix = parseMixSpec(opts.mix, opts.cores);
    RunParams params;
    params.llc = hier.llc;
    params.policy = policySpec(opts.policy);
    params.schedule = parseSchedule(opts.schedule);
    params.duelScope = parseDuelScope(opts.duel);
    params.partition = parsePartition(opts.partition, opts.cores);
    params.warmupFraction = opts.warmupFraction;
    params.backend = parseBackend(opts.backend);

    LlcTraceCache cache;
    const std::vector<CoreStream> streams =
        buildCoreStreams(mix, suite, hier, &cache);
    if (opts.select)
        return runSelectMode(opts, mix, streams, hier.llc,
                             params.schedule);

    const RunResult res = opts.referenceSingle
                              ? runSingleCoreReference(streams[0], params)
                              : runSharedLlc(streams, params);

    printResult(mix, params, res);
    if (!opts.jsonPath.empty()) {
        buildReport(opts, mix, params, res).writeFile(opts.jsonPath);
        std::printf("report written to %s\n", opts.jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "multicore_sim: %s\n", e.what());
        return 1;
    }
}
