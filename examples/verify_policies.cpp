/**
 * @file
 * Policy verification CLI: exhaustive model checking + differential
 * oracle replay.
 *
 * Two verification modes, both wired into CI:
 *
 *   verify_policies --model-check
 *       Enumerates every PLRU bit assignment and every (way, target)
 *       setPosition transition for ways in {2, 4, 8, 16} and proves
 *       the paper's structural invariants (permutation, PMRU at 0,
 *       PLRU victim at k-1, round trips, the <= log2(k) touched-bits
 *       bound, promoteMru == setPosition(way, 0)).
 *
 *   verify_policies --differential
 *       Replays randomized and workload-suite access streams through
 *       each production policy and its independently implemented
 *       reference oracle (true recency stack for LRU/LIP/GIPLR, exact
 *       tree semantics for PLRU/GIPPR, duel bookkeeping for DGIPPR),
 *       comparing full per-set state after every event and reporting
 *       the first divergence with both models' state dumps.
 *
 * With no mode flag, both run.  --json writes a gippr-run-report
 * artifact (kind "verify").  Exit status is nonzero on any failure,
 * so CI can gate on it directly.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "telemetry/report.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "verify/differential.hh"
#include "verify/model_check.hh"
#include "workloads/suite.hh"

using namespace gippr;

namespace
{

struct Options
{
    bool modelCheck = false;
    bool differential = false;
    /** Accesses per (policy, stream) differential replay. */
    uint64_t accesses = 200'000;
    uint64_t seed = 0x5eed;
    std::string jsonPath;
    std::vector<std::string> policies;
};

void
usage()
{
    std::printf(
        "usage: verify_policies [--model-check] [--differential]\n"
        "                       [--accesses N] [--seed S]\n"
        "                       [--policies CSV] [--json PATH]\n"
        "\n"
        "Runs the exhaustive PLRU model checker and/or the\n"
        "differential oracle harness; default is both.  Policies:\n"
        "LRU, LIP, GIPLR, PLRU, GIPPR, DGIPPR2, DGIPPR4.\n");
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
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
        if (arg == "--model-check") {
            opts.modelCheck = true;
        } else if (arg == "--differential") {
            opts.differential = true;
        } else if (arg == "--accesses") {
            opts.accesses = parseUnsigned("--accesses", value("--accesses"));
        } else if (arg == "--seed") {
            opts.seed = parseUnsigned("--seed", value("--seed"));
        } else if (arg == "--policies") {
            opts.policies = splitCsv(value("--policies"));
        } else if (arg == "--json") {
            opts.jsonPath = value("--json");
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonPath = arg.substr(7);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("unknown argument: " + arg);
        }
    }
    if (!opts.modelCheck && !opts.differential) {
        opts.modelCheck = true;
        opts.differential = true;
    }
    if (opts.policies.empty())
        opts.policies = verify::mirrorNames();
    return opts;
}

/** The geometry differential runs check: a small 16-way LLC slice. */
CacheConfig
verifyGeometry()
{
    CacheConfig cfg;
    cfg.name = "verify-llc";
    cfg.sizeBytes = 256 * 1024; // 256 sets at 16 ways x 64B
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    return cfg;
}

/**
 * Randomized stream: uniform block addresses over a footprint chosen
 * relative to the cache size, with stores and explicit writeback
 * records mixed in, so hits, misses, evictions and writeback-hit
 * filtering are all exercised.
 */
Trace
randomStream(const CacheConfig &cfg, uint64_t accesses, double footprint,
             uint64_t seed)
{
    Rng rng(seed);
    const uint64_t cache_blocks = cfg.sizeBytes / cfg.blockBytes;
    uint64_t blocks = static_cast<uint64_t>(
        static_cast<double>(cache_blocks) * footprint);
    if (blocks < 1)
        blocks = 1;
    Trace trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i) {
        MemRecord rec;
        rec.addr = rng.nextBounded(blocks) * cfg.blockBytes;
        rec.instGap = 1 + static_cast<uint32_t>(rng.nextBounded(8));
        if (rng.nextBool(0.1))
            rec.type = AccessType::Writeback;
        else if (rng.nextBool(0.2))
            rec.type = AccessType::Store;
        trace.append(rec);
    }
    return trace;
}

/** Zipf-skewed stream: recency-friendly with a popular head. */
Trace
zipfStream(const CacheConfig &cfg, uint64_t accesses, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t blocks = 4 * cfg.sizeBytes / cfg.blockBytes;
    ZipfSampler zipf(blocks, 0.8);
    Trace trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i) {
        MemRecord rec;
        rec.addr = zipf.sample(rng) * cfg.blockBytes;
        rec.instGap = 1 + static_cast<uint32_t>(rng.nextBounded(8));
        if (rng.nextBool(0.2))
            rec.type = AccessType::Store;
        trace.append(rec);
    }
    return trace;
}

/** One named stream for the differential sweep. */
struct StreamDef
{
    std::string name;
    Trace trace;
    verify::ReplayOptions opts;
};

std::vector<StreamDef>
buildStreams(const CacheConfig &cfg, uint64_t accesses, uint64_t seed)
{
    std::vector<StreamDef> streams;
    // Per-stream budget: the acceptance bar is total accesses per
    // policy, split across four stream shapes.
    const uint64_t per = accesses / 4 + 1;

    StreamDef thrash;
    thrash.name = "uniform-2x";
    thrash.trace = randomStream(cfg, per, 2.0, seed);
    streams.push_back(std::move(thrash));

    StreamDef resident;
    resident.name = "uniform-0.5x";
    resident.trace = randomStream(cfg, per, 0.5, seed + 1);
    resident.opts.invalidateEvery = 97; // exercise onInvalidate
    streams.push_back(std::move(resident));

    StreamDef skew;
    skew.name = "zipf-4x";
    skew.trace = zipfStream(cfg, per, seed + 2);
    streams.push_back(std::move(skew));

    // Workload-suite stream: a scan-polluted hot set from the
    // synthetic suite, the archetype insertion policies exist for.
    SuiteParams sp;
    sp.llcBlocks = cfg.sizeBytes / cfg.blockBytes;
    sp.accessesPerSimpoint = per;
    sp.baseSeed = seed + 3;
    SyntheticSuite suite(sp);
    Workload w = SyntheticSuite::materialize(suite.spec("mix_zipfscan"));
    StreamDef suite_stream;
    suite_stream.name = "suite/mix_zipfscan";
    for (const Simpoint &s : w.simpoints()) {
        for (const MemRecord &rec : *s.trace)
            suite_stream.trace.append(rec);
    }
    streams.push_back(std::move(suite_stream));
    return streams;
}

int
run(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    telemetry::RunReport report("verify", "verify_policies");
    bool all_ok = true;

    if (opts.modelCheck) {
        std::printf("=== exhaustive PLRU model check ===\n");
        telemetry::ResultTable table;
        table.title = "model_check";
        table.metric = "count";
        table.columns = {"states", "transitions", "checks_passed",
                         "failures"};
        for (const verify::ModelCheckResult &r :
             verify::modelCheckSweep()) {
            std::printf("ways %2u: %8llu states, %9llu transitions, "
                        "%10llu checks passed, %zu failures\n",
                        r.ways,
                        static_cast<unsigned long long>(r.statesChecked),
                        static_cast<unsigned long long>(
                            r.transitionsChecked),
                        static_cast<unsigned long long>(r.checksPassed),
                        r.failures.size());
            for (const verify::ModelCheckFailure &f : r.failures)
                std::printf("    FAIL %s\n", f.toString().c_str());
            telemetry::ResultRow row;
            row.name = std::to_string(r.ways) + "-way";
            row.values = {static_cast<double>(r.statesChecked),
                          static_cast<double>(r.transitionsChecked),
                          static_cast<double>(r.checksPassed),
                          static_cast<double>(r.failures.size())};
            table.rows.push_back(std::move(row));
            all_ok = all_ok && r.ok();
        }
        report.addTable(std::move(table));
    }

    if (opts.differential) {
        std::printf("=== differential oracle replay ===\n");
        const CacheConfig cfg = verifyGeometry();
        std::vector<StreamDef> streams =
            buildStreams(cfg, opts.accesses, opts.seed);
        telemetry::ResultTable table;
        table.title = "differential";
        table.metric = "count";
        table.columns = {"accesses", "invalidates", "comparisons",
                         "divergences"};
        for (const std::string &policy : opts.policies) {
            for (const StreamDef &stream : streams) {
                verify::DifferentialResult r = verify::replayDifferential(
                    policy, cfg, stream.trace, stream.opts);
                r.stream = stream.name;
                std::printf("%-8s vs oracle on %-18s: %8llu accesses, "
                            "%4llu invalidates, %9llu comparisons: %s\n",
                            policy.c_str(), stream.name.c_str(),
                            static_cast<unsigned long long>(r.accesses),
                            static_cast<unsigned long long>(r.invalidates),
                            static_cast<unsigned long long>(r.comparisons),
                            r.ok() ? "ok" : "DIVERGED");
                if (!r.ok()) {
                    std::printf("    %s\n",
                                r.divergence->toString().c_str());
                    all_ok = false;
                }
                telemetry::ResultRow row;
                row.name = policy + "/" + stream.name;
                row.values = {static_cast<double>(r.accesses),
                              static_cast<double>(r.invalidates),
                              static_cast<double>(r.comparisons),
                              r.ok() ? 0.0 : 1.0};
                table.rows.push_back(std::move(row));
            }
        }
        report.addTable(std::move(table));
        report.setConfig("accesses_per_stream",
                         telemetry::JsonValue(opts.accesses / 4 + 1));
        report.setConfig("geometry_sets",
                         telemetry::JsonValue(cfg.sets()));
    }

    report.setConfig("seed", telemetry::JsonValue(opts.seed));
    report.setConfig("ok", telemetry::JsonValue(all_ok));
    if (!opts.jsonPath.empty()) {
        report.writeFile(opts.jsonPath);
        std::printf("wrote JSON artifact: %s\n", opts.jsonPath.c_str());
    }

    std::printf(all_ok ? "\nverification PASSED\n"
                       : "\nverification FAILED\n");
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
