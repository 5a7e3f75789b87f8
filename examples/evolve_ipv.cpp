/**
 * @file
 * Evolve insertion/promotion vectors with the genetic algorithm, as
 * in the paper's Section 4.2 — but in-process instead of on a
 * 200-CPU cluster.
 *
 * Usage:
 *   ./build/examples/evolve_ipv [options]
 *     --family giplr|gippr   substrate (default gippr)
 *     --generations N        GA generations (default 12)
 *     --population N         population per generation (default 48)
 *     --vectors N            duel-set size to select (default 4)
 *     --accesses N           CPU references per simpoint (default 200000)
 *     --threads N            fitness evaluation threads (default 8)
 *     --seed N               GA seed (default 42)
 *     --json PATH            write a gippr-run-report JSON artifact
 *     --checkpoint PATH      save a resumable checkpoint each boundary
 *     --checkpoint-every N   generations between checkpoints (default 1)
 *     --resume               continue from --checkpoint if it exists
 *     --deterministic        pin timestamp, zero timings in the JSON
 *                            artifact (for byte-identity comparisons)
 *
 * An unknown flag or family, or a number that is not a plain unsigned
 * integer, stops the run with a message naming the value.
 *
 * Prints the convergence curve, the best vector, and (for N > 1) the
 * complementary duel set chosen from the final population.
 *
 * Crash safety: with --checkpoint, SIGINT/SIGTERM request a graceful
 * stop at the next generation boundary; the run checkpoints, writes a
 * partial JSON artifact with "interrupted": true, and exits 75
 * (resumable).  Re-running with --resume continues and the final
 * artifact is byte-identical (under --deterministic) to an
 * uninterrupted run's.  I/O failures exit 1 with an error message.
 */

#include <cstdio>
#include <exception>
#include <limits>
#include <string>

#include "core/vectors.hh"
#include "ga/crossval.hh"
#include "policies/lru.hh"
#include "robust/fault_inject.hh"
#include "robust/shutdown.hh"
#include "sim/system.hh"
#include "telemetry/progress.hh"
#include "telemetry/report.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "workloads/suite.hh"

using namespace gippr;

namespace
{

/** Command-line settings, at their defaults until parsed. */
struct Options
{
    IpvFamily family = IpvFamily::Gippr;
    std::string familyName = "gippr";
    unsigned generations = 12;
    uint64_t population = 48;
    unsigned threads = 8;
    uint64_t seed = 42;
    uint64_t vectors = 4;
    uint64_t accesses = 200000;
    std::string jsonPath;
    std::string checkpointPath;
    unsigned checkpointEvery = 1;
    bool resume = false;
    bool deterministic = false;
};

/** Parse argv; an unknown flag or family, or a malformed number, is fatal. */
Options
parseArgs(int argc, char **argv)
{
    Options opts;
    constexpr uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal(arg + " requires an argument");
            return argv[++i];
        };
        auto number = [&](uint64_t max =
                              std::numeric_limits<uint64_t>::max()) {
            return parseUnsigned(arg, value(), max);
        };
        if (arg == "--family") {
            opts.familyName = value();
            if (opts.familyName == "giplr")
                opts.family = IpvFamily::Giplr;
            else if (opts.familyName == "gippr")
                opts.family = IpvFamily::Gippr;
            else
                fatal("--family='" + opts.familyName +
                      "' is not an IPV family; use giplr or gippr");
        } else if (arg == "--generations") {
            opts.generations = static_cast<unsigned>(number(kUnsignedMax));
        } else if (arg == "--population") {
            opts.population = number();
        } else if (arg == "--threads") {
            opts.threads = static_cast<unsigned>(number(kUnsignedMax));
        } else if (arg == "--seed") {
            opts.seed = number();
        } else if (arg == "--vectors") {
            opts.vectors = number();
        } else if (arg == "--accesses") {
            opts.accesses = number();
        } else if (arg == "--json") {
            opts.jsonPath = value();
        } else if (arg == "--checkpoint") {
            opts.checkpointPath = value();
        } else if (arg == "--checkpoint-every") {
            opts.checkpointEvery = static_cast<unsigned>(number(kUnsignedMax));
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--deterministic") {
            opts.deterministic = true;
        } else {
            fatal("unknown argument: " + arg);
        }
    }
    return opts;
}

int
run(int argc, char **argv)
{
    // Parse GIPPR_FAULT_INJECT now, so a malformed spec stops every
    // run, not only one that reaches an atomic write.
    robust::FaultInjector::instance();
    const Options opts = parseArgs(argc, argv);
    const std::string &family_name = opts.familyName;
    const IpvFamily family = opts.family;
    GaParams params;
    params.generations = opts.generations;
    params.population = opts.population;
    params.initialPopulation = params.population * 2;
    params.threads = opts.threads;
    params.seed = opts.seed;
    const size_t n_vectors = opts.vectors;
    const std::string &json_path = opts.jsonPath;
    params.checkpoint.path = opts.checkpointPath;
    params.checkpoint.every = opts.checkpointEvery;
    params.checkpoint.resume = opts.resume;
    const bool deterministic = opts.deterministic;

    telemetry::PhaseTimings timings;
    telemetry::MetricRegistry registry;
    telemetry::StreamProgressSink progress;
    params.progress = &progress;
    params.timings = &timings;

    // Seed generation zero with the known archetypes (classic PLRU,
    // LIP, and the paper's published vectors) so the search starts
    // from the corners of the design space the literature identified.
    params.seedIpvs = {Ipv::lru(16), Ipv::lruInsertion(16),
                       paper_vectors::giplr(),
                       paper_vectors::wiGippr()};
    for (const Ipv &v : paper_vectors::wi4Dgippr())
        params.seedIpvs.push_back(v);

    SuiteParams sp;
    sp.llcBlocks = 16384;
    sp.accessesPerSimpoint = opts.accesses;
    SyntheticSuite suite(sp);

    SystemParams sys;
    sys.hier.llc = CacheConfig::benchLlc();

    std::printf("materializing the %zu-workload suite and filtering "
                "to LLC traces...\n",
                suite.specs().size());
    FitnessEvaluator fitness(
        sys.hier.llc,
        flattenExcept(fitnessWorkloads(suite, {}, sys.hier), ""), {},
        &timings);
    fitness.attachTelemetry(registry, "fitness");

    // SIGINT/SIGTERM now request a graceful stop at the next
    // generation boundary instead of killing the process.
    robust::ShutdownGuard shutdown_guard;

    std::printf("evolving %s vectors: pop %zu, %u generations, "
                "%u threads, seed %lu\n",
                family_name.c_str(), params.population,
                params.generations, params.threads,
                static_cast<unsigned long>(params.seed));
    GaResult result = evolveIpv(fitness, family, params);

    std::printf("\nconvergence (best estimated speedup over LRU):\n");
    for (size_t g = 0; g < result.history.size(); ++g)
        std::printf("  gen %2zu: %.4f\n", g, result.history[g]);

    std::printf("\nbest vector: %s  (fitness %.4f)\n",
                result.best.toString().c_str(), result.bestFitness);

    std::vector<Ipv> duel;
    if (n_vectors > 1 && !result.interrupted) {
        duel = duelSetFromRun(fitness, family, result, params, n_vectors);
        std::printf("\ncomplementary %zu-vector duel set for "
                    "DGIPPR:\n",
                    n_vectors);
        for (const Ipv &v : duel)
            std::printf("  %s\n", v.toString().c_str());
        std::printf("\npaste these into src/core/vectors.cc "
                    "(local_vectors) to refresh the shipped "
                    "defaults.\n");
    }

    if (!json_path.empty()) {
        telemetry::RunReport report("ga", "evolve_ipv");
        // Checkpoint path and resume provenance are deliberately NOT
        // recorded: a resumed run's artifact must be byte-identical
        // to an uninterrupted run's.
        report.setConfig("family", telemetry::JsonValue(family_name));
        report.setConfig("population",
                         telemetry::JsonValue(
                             static_cast<uint64_t>(params.population)));
        report.setConfig(
            "initial_population",
            telemetry::JsonValue(
                static_cast<uint64_t>(params.initialPopulation)));
        report.setConfig(
            "generations",
            telemetry::JsonValue(
                static_cast<uint64_t>(params.generations)));
        report.setConfig(
            "threads",
            telemetry::JsonValue(static_cast<uint64_t>(params.threads)));
        report.setConfig("seed", telemetry::JsonValue(params.seed));
        report.setConfig(
            "replay_backend",
            telemetry::JsonValue(fastpath::defaultReplayEngine().name()));
        report.setConfig(
            "ga_batch",
            telemetry::JsonValue(
                static_cast<uint64_t>(fitness.batchWidth())));
        report.setConfig(
            "memo_capacity",
            telemetry::JsonValue(
                static_cast<uint64_t>(fitness.memoCapacity())));
        telemetry::JsonValue llc = telemetry::JsonValue::object();
        llc.set("size_bytes", telemetry::JsonValue(sys.hier.llc.sizeBytes));
        llc.set("assoc",
                telemetry::JsonValue(
                    static_cast<uint64_t>(sys.hier.llc.assoc)));
        llc.set("block_bytes",
                telemetry::JsonValue(
                    static_cast<uint64_t>(sys.hier.llc.blockBytes)));
        report.setConfig("llc", std::move(llc));
        if (result.interrupted)
            report.setConfig("interrupted",
                             telemetry::JsonValue(true));
        report.setConfig("best_vector",
                         telemetry::JsonValue(result.best.toString()));
        telemetry::JsonValue duel_json = telemetry::JsonValue::array();
        for (const Ipv &v : duel)
            duel_json.push(telemetry::JsonValue(v.toString()));
        report.setConfig("duel_set", std::move(duel_json));

        telemetry::ResultTable convergence;
        convergence.title = "convergence";
        convergence.metric = "estimated speedup over LRU";
        convergence.columns = {"best_fitness", "eval_seconds"};
        for (size_t g = 0; g < result.history.size(); ++g) {
            double secs = g < result.generationSeconds.size()
                              ? result.generationSeconds[g]
                              : 0.0;
            convergence.rows.push_back(
                {"gen " + std::to_string(g),
                 {result.history[g], deterministic ? 0.0 : secs}});
        }
        report.addTable(std::move(convergence));
        if (deterministic) {
            // Wall-clock phases, metrics and the timestamp vary run
            // to run; pin or drop them so resumed and uninterrupted
            // runs can be compared byte for byte.
            report.setTimestamp("1970-01-01T00:00:00Z");
        } else {
            report.setPhases(timings);
            report.setMetrics(registry);
        }
        report.writeFile(json_path);
        std::printf("wrote JSON artifact: %s\n", json_path.c_str());
    }

    if (result.interrupted) {
        std::printf("\nrun interrupted; resume with --checkpoint %s "
                    "--resume\n",
                    params.checkpoint.path.c_str());
        return 75; // EX_TEMPFAIL: partial results, resumable
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
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
