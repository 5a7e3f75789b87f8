/**
 * @file
 * Workload characterization tool.
 *
 * Profiles a suite workload (or a saved GPTR trace file) and prints
 * the numbers the paper reasons about qualitatively: footprint,
 * accesses per kilo-instruction, the stack-distance histogram in
 * cache-relevant bands, the implied fully associative LRU miss-rate
 * curve, and the share of zero-reuse blocks.  It can also save the
 * generated trace for external tools.
 *
 * Usage:
 *   ./build/examples/trace_tool [workload|path.gptr] [--save out.gptr]
 *
 * An unknown flag, a --save with no path, or a second source is fatal.
 */

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "trace/analysis.hh"
#include "trace/trace_io.hh"
#include "util/log.hh"
#include "util/table.hh"
#include "workloads/suite.hh"

using namespace gippr;

namespace
{

struct Options
{
    std::string source = "loop_thrash";
    std::string savePath;
};

/** Parse argv in one pass: at most one source and one --save path. */
Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_source = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--save") {
            if (i + 1 >= argc)
                fatal(arg + " requires an argument");
            opts.savePath = argv[++i];
        } else if (arg[0] == '-') {
            fatal("unknown argument: " + arg);
        } else if (have_source) {
            fatal("second source: " + arg + " (already reading " +
                  opts.source + ")");
        } else {
            opts.source = arg;
            have_source = true;
        }
    }
    return opts;
}

int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const std::string &source = opts.source;

    SuiteParams sp;
    sp.llcBlocks = 16384;
    sp.accessesPerSimpoint = 400000;
    SyntheticSuite suite(sp);

    Trace trace;
    if (source.size() > 5 &&
        source.substr(source.size() - 5) == ".gptr") {
        std::printf("loading trace file %s...\n", source.c_str());
        trace = readTrace(source);
    } else {
        std::printf("generating workload '%s' (first simpoint)...\n",
                    source.c_str());
        Workload w = SyntheticSuite::materialize(suite.spec(source));
        trace = *w.simpoints()[0].trace;
    }
    if (!opts.savePath.empty()) {
        writeTrace(trace, opts.savePath);
        std::printf("saved trace to %s\n", opts.savePath.c_str());
    }

    std::printf("\naccesses:      %zu\n", trace.size());
    std::printf("instructions:  %lu\n",
                static_cast<unsigned long>(trace.instructions()));
    std::printf("accesses/KI:   %.2f\n", trace.accessesPerKiloInst());
    std::printf("writes:        %lu (%.1f%%)\n",
                static_cast<unsigned long>(trace.writes()),
                100.0 * static_cast<double>(trace.writes()) /
                    static_cast<double>(trace.size()));

    std::printf("\nprofiling stack distances...\n");
    TraceProfile prof = profileTrace(trace, 64, 1 << 20);
    std::printf("footprint:     %lu blocks (%.2f MB)\n",
                static_cast<unsigned long>(prof.footprint),
                static_cast<double>(prof.footprint) * 64 /
                    (1024.0 * 1024.0));
    std::printf("cold accesses: %lu (%.1f%%)\n",
                static_cast<unsigned long>(prof.coldAccesses),
                100.0 * static_cast<double>(prof.coldAccesses) /
                    static_cast<double>(prof.accesses));

    // Stack-distance mass in cache-relevant bands (in 64B blocks).
    Table bands({"stack distance (blocks)", "share of accesses"});
    const uint64_t capacities[] = {512,   4096,  8192, 16384,
                                   32768, 65536};
    uint64_t prev = 0;
    for (uint64_t cap : capacities) {
        uint64_t mass = prof.stackDistance.cumulative(cap - 1) -
                        (prev ? prof.stackDistance.cumulative(prev - 1)
                              : 0);
        std::ostringstream label;
        label << prev << " .. " << cap - 1;
        bands.newRow().add(label.str()).add(
            100.0 * static_cast<double>(mass) /
                static_cast<double>(prof.accesses),
            2);
        prev = cap;
    }
    std::ostringstream os;
    bands.print(os);
    std::fputs(os.str().c_str(), stdout);

    // Fully associative LRU miss-rate curve.
    Table curve({"capacity (blocks)", "capacity", "FA-LRU miss rate"});
    for (uint64_t cap : {1024u, 4096u, 16384u, 65536u}) {
        std::ostringstream size_label;
        size_label << (cap * 64 / 1024) << " KB";
        curve.newRow()
            .add(static_cast<uint64_t>(cap))
            .add(size_label.str())
            .add(1.0 - prof.lruHitRate(cap), 4);
    }
    std::printf("\n");
    std::ostringstream os2;
    curve.print(os2);
    std::fputs(os2.str().c_str(), stdout);

    std::printf("\n(the bench LLC holds 16384 blocks; mass beyond "
                "that distance cannot hit under any LRU-like "
                "policy)\n");
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
