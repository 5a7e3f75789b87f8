/**
 * @file
 * Online dynamic policy selection CLI.
 *
 * Replays one synthetic workload (suite, KV-cache family or
 * phase-shift family) through the bandit policy selector: a library of
 * replacement policies, set-sampled shadow rewards, epoch-boundary
 * decisions and phase-drift resets.  Also replays every library arm
 * statically to report the selector's regret against the best static
 * choice.
 *
 *   select_sim --workload ps_quad --library LRU,LIP,PLRU,GIPPR \
 *              --bandit ducb --json report.json
 *
 * Knobs:
 *   --workload NAME      suite / kv_* / ps_* workload (first simpoint)
 *   --library L1,L2,...  policy_zoo names (default LRU,LIP,PLRU,GIPPR)
 *   --bandit S           ducb | egreedy
 *   --epoch N            accesses per decision epoch
 *   --gamma F            dUCB discount per epoch
 *   --ucb-c F            dUCB confidence width
 *   --epsilon F          egreedy exploration probability
 *   --margin F           switch hysteresis margin
 *   --leaders N          requested leader sets per arm
 *   --no-drift           disable the phase-drift detector
 *   --backend S          fast (packed) | scalar (reference oracle)
 *   --accesses N         CPU references of the workload stream
 *   --seed S             suite base seed (also seeds the bandit)
 *   --json PATH          write a gippr-run-report artifact
 *   --deterministic      pin the report timestamp (CI diffing)
 *
 * The CI fastpath-equiv job runs `--deterministic` twice — with
 * --backend fast and --backend scalar — and byte-compares the two
 * JSON artifacts, so nothing written to the report may depend on the
 * backend.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/multicore/mix.hh"
#include "sim/select/engine.hh"
#include "sim/select/report.hh"
#include "sim/select/select.hh"
#include "sim/trace_cache.hh"
#include "util/log.hh"
#include "workloads/suite.hh"

using namespace gippr;

namespace
{

struct Options
{
    std::string workload = "ps_quad";
    std::string library = select::defaultLibrarySpec();
    std::string bandit = "ducb";
    select::SelectConfig cfg;
    std::string backend = "fast";
    uint64_t accesses = 200'000;
    uint64_t seed = 0x5eed;
    double warmupFraction = 1.0 / 3.0;
    std::string jsonPath;
    bool deterministic = false;
};

void
usage()
{
    std::printf(
        "usage: select_sim [--workload NAME] [--library L1,L2,..]\n"
        "                  [--bandit ducb|egreedy] [--epoch N]\n"
        "                  [--gamma F] [--ucb-c F] [--epsilon F]\n"
        "                  [--margin F] [--leaders N] [--no-drift]\n"
        "                  [--backend fast|scalar] [--accesses N]\n"
        "                  [--seed S] [--json PATH] [--deterministic]\n"
        "\n"
        "Workloads resolve against the synthetic suite, the KV-cache\n"
        "family (kv_*) and the phase-shift family (ps_*).  Library\n"
        "entries are policy_zoo names (e.g. LRU, LIP, PLRU, GIPPR,\n"
        "DRRIP, PDP, SHiP).\n");
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
        if (arg == "--workload")
            opts.workload = value("--workload");
        else if (arg == "--library")
            opts.library = value("--library");
        else if (arg == "--bandit")
            opts.bandit = value("--bandit");
        else if (arg == "--epoch")
            opts.cfg.epochLength = std::stoull(value("--epoch"));
        else if (arg == "--gamma")
            opts.cfg.gamma = std::stod(value("--gamma"));
        else if (arg == "--ucb-c")
            opts.cfg.ucbC = std::stod(value("--ucb-c"));
        else if (arg == "--epsilon")
            opts.cfg.epsilon = std::stod(value("--epsilon"));
        else if (arg == "--margin")
            opts.cfg.switchMargin = std::stod(value("--margin"));
        else if (arg == "--leaders")
            opts.cfg.leadersPerArm = static_cast<unsigned>(
                std::stoul(value("--leaders")));
        else if (arg == "--no-drift")
            opts.cfg.drift.enabled = false;
        else if (arg == "--backend")
            opts.backend = value("--backend");
        else if (arg == "--accesses")
            opts.accesses = std::stoull(value("--accesses"));
        else if (arg == "--seed")
            opts.seed = std::stoull(value("--seed"));
        else if (arg == "--json")
            opts.jsonPath = value("--json");
        else if (arg == "--deterministic")
            opts.deterministic = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("unknown argument: " + arg);
        }
    }
    if (opts.cfg.epochLength == 0)
        fatal("--epoch must be >= 1");
    opts.cfg.kind = select::parseBanditKind(opts.bandit);
    opts.cfg.seed = opts.seed;
    return opts;
}

void
printResult(const Options &opts,
            const std::vector<PolicyDef> &library,
            const select::SelectResult &res,
            const std::vector<select::StaticOracleRow> &oracle)
{
    std::printf("workload %s: library %s, bandit %s, epoch %llu, "
                "%zu epochs, %llu switches, %llu drift resets\n",
                opts.workload.c_str(),
                select::libraryName(library).c_str(),
                select::banditKindName(opts.cfg.kind),
                static_cast<unsigned long long>(opts.cfg.epochLength),
                res.timeline.size(),
                static_cast<unsigned long long>(res.switches),
                static_cast<unsigned long long>(res.driftResets));
    std::printf("%-16s %8s %16s %16s\n", "arm", "epochs",
                "shadow_demand", "shadow_missrate");
    for (size_t a = 0; a < res.arms.size(); ++a) {
        const double mr =
            res.shadowDemandAccesses[a] > 0
                ? static_cast<double>(res.shadowDemandMisses[a]) /
                      static_cast<double>(res.shadowDemandAccesses[a])
                : 0.0;
        std::printf("%-16s %8llu %16llu %16.4f\n",
                    res.arms[a].c_str(),
                    static_cast<unsigned long long>(
                        res.epochsChosen[a]),
                    static_cast<unsigned long long>(
                        res.shadowDemandAccesses[a]),
                    mr);
    }
    std::printf("selector measured: %llu demand misses / %llu demand "
                "accesses (miss rate %.4f)\n",
                static_cast<unsigned long long>(
                    res.measured.demandMisses),
                static_cast<unsigned long long>(
                    res.measured.demandAccesses),
                res.measuredDemandMissRate());
    if (!oracle.empty()) {
        const size_t best = select::bestStaticIndex(oracle);
        for (size_t i = 0; i < oracle.size(); ++i) {
            const auto &row = oracle[i];
            const double mr =
                row.measured.demandAccesses > 0
                    ? static_cast<double>(
                          row.measured.demandMisses) /
                          static_cast<double>(
                              row.measured.demandAccesses)
                    : 0.0;
            std::printf("static %-12s %llu demand misses (miss rate "
                        "%.4f)%s\n",
                        row.name.c_str(),
                        static_cast<unsigned long long>(
                            row.measured.demandMisses),
                        mr, i == best ? "  <- best" : "");
        }
        const long long regret =
            static_cast<long long>(res.measured.demandMisses) -
            static_cast<long long>(
                oracle[best].measured.demandMisses);
        std::printf("regret vs best static: %lld misses\n", regret);
    }
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

    // A 1-tenant "mix" reuses the shared name resolution (suite, then
    // kv_*, then ps_*) and the L1/L2 demand filtering.
    const multicore::MixSpec mix =
        multicore::parseMixSpec(opts.workload, 1);
    LlcTraceCache cache;
    const std::vector<multicore::CoreStream> streams =
        multicore::buildCoreStreams(mix, suite, hier, &cache);
    const Trace &trace = *streams[0].trace;
    const size_t warmup = static_cast<size_t>(
        static_cast<double>(trace.size()) * opts.warmupFraction);

    const std::vector<PolicyDef> library =
        select::parseLibrary(opts.library);
    const select::Backend backend = select::resolveBackend(
        library, hier.llc, select::parseBackend(opts.backend));

    const select::SelectResult res = select::runSelect(
        library, opts.cfg, hier.llc, trace, warmup, backend);
    const std::vector<select::StaticOracleRow> oracle =
        select::staticOracle(library, hier.llc, trace, warmup,
                             backend);

    printResult(opts, library, res, oracle);
    if (!opts.jsonPath.empty()) {
        select::SelectReportInputs in;
        in.binary = "select_sim";
        in.workload = opts.workload;
        in.coreWorkloads = {opts.workload};
        in.cfg = opts.cfg;
        in.llc = hier.llc;
        in.warmupFraction = opts.warmupFraction;
        in.result = res;
        in.oracle = oracle;
        in.deterministic = opts.deterministic;
        select::buildSelectReport(in).writeFile(opts.jsonPath);
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
        std::fprintf(stderr, "select_sim: %s\n", e.what());
        return 1;
    }
}
