/**
 * @file
 * Bench infrastructure implementation.
 */

#include "common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "robust/fault_inject.hh"
#include "util/log.hh"
#include "util/parallel.hh"

namespace gippr::bench
{

namespace
{

/** Parse --json <path> / --json=<path> out of argv; "" when absent. */
std::string
parseJsonFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            if (i + 1 >= argc)
                fatal("--json requires a path argument");
            return argv[i + 1];
        }
        if (std::strncmp(arg, "--json=", 7) == 0)
            return arg + 7;
    }
    return "";
}

/** True when @p s parses fully as a floating-point number. */
bool
isNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end && *end == '\0';
}

/** True when every cell of column @p col parses as a number. */
bool
numericColumn(const Table &table, size_t col)
{
    for (size_t r = 0; r < table.rows(); ++r) {
        if (!isNumeric(table.cell(r, col)))
            return false;
    }
    return table.rows() > 0;
}

} // namespace

Scale
resolveScale()
{
    Scale s;
    const char *env = std::getenv("GIPPR_BENCH_SCALE");
    const std::string name = env ? env : "quick";
    if (name != "quick" && name != "full")
        fatal("GIPPR_BENCH_SCALE='" + name +
              "' is not a scale; use quick or full, or leave it unset "
              "for quick");
    s.quick = name == "quick";
    if (s.quick) {
        s.accessesPerSimpoint = 300'000;
        s.randomSamples = 800;
        s.ga.initialPopulation = 48;
        s.ga.population = 24;
        s.ga.generations = 5;
    } else {
        s.accessesPerSimpoint = 1'000'000;
        s.randomSamples = 15000;
        s.ga.initialPopulation = 400;
        s.ga.population = 128;
        s.ga.generations = 30;
    }
    s.threads = resolveThreads(0);
    s.ga.threads = s.threads;
    return s;
}

SuiteParams
suiteParams(const Scale &scale)
{
    SuiteParams p;
    p.llcBlocks = 16384; // 1MB at 64B lines
    p.accessesPerSimpoint = scale.accessesPerSimpoint;
    p.baseSeed = 0x5eed;
    return p;
}

SystemParams
systemParams()
{
    SystemParams p;
    // Paper-shaped hierarchy scaled with the 1MB LLC: the L1/L2 keep
    // the paper's organizations, only the LLC shrinks (with the
    // workloads scaled to match).
    p.hier.l1 = CacheConfig::paperL1d();
    p.hier.l2 = CacheConfig::paperL2();
    p.hier.llc = CacheConfig::benchLlc();
    return p;
}

ExperimentConfig
experimentConfig(const Scale &scale)
{
    ExperimentConfig cfg;
    cfg.system = systemParams();
    cfg.threads = scale.threads;
    return cfg;
}

Session::Session(int argc, char **argv, const std::string &name,
                 const std::string &kind)
    : jsonPath_(parseJsonFlag(argc, argv)), report_(kind, name)
{
    // Parse GIPPR_FAULT_INJECT now, so a malformed spec stops every
    // bench, not only one that reaches an atomic write.
    robust::FaultInjector::instance();
}

ExperimentConfig
Session::experimentConfig(const Scale &scale)
{
    ExperimentConfig cfg = bench::experimentConfig(scale);
    cfg.registry = &registry_;
    cfg.timings = &timings_;
    cfg.replayEngine = &fastpath::defaultReplayEngine();
    cfg.traceCache = &traceCache_;
    if (!configRecorded_) {
        recordScale(scale);
        setConfig("system", toJson(cfg.system));
        setConfig("replay_backend",
                  telemetry::JsonValue(cfg.replayEngine->name()));
        SuiteParams sp = suiteParams(scale);
        setConfig("base_seed",
                  telemetry::JsonValue(static_cast<uint64_t>(sp.baseSeed)));
        configRecorded_ = true;
    }
    return cfg;
}

void
Session::recordScale(const Scale &scale)
{
    setConfig("scale", toJson(scale));
    setConfig("threads",
              telemetry::JsonValue(static_cast<uint64_t>(scale.threads)));
    setConfig("replay_kernel",
              telemetry::JsonValue(std::string(fastpath::replayKernelName(
                  fastpath::activeReplayKernel()))));
}

void
Session::recordPolicies(const std::vector<PolicyDef> &policies)
{
    telemetry::JsonValue names = telemetry::JsonValue::array();
    for (const PolicyDef &p : policies)
        names.push(telemetry::JsonValue(p.name));
    setConfig("policies", std::move(names));
}

void
Session::setConfig(const std::string &key, telemetry::JsonValue value)
{
    report_.setConfig(key, std::move(value));
}

void
Session::addResult(const std::string &title, const ExperimentResult &r)
{
    report_.addTable(r.toResultTable(title));
}

void
Session::addTable(const std::string &title, const std::string &metric,
                  const Table &table)
{
    telemetry::ResultTable rt;
    rt.title = title;
    rt.metric = metric;
    // Leading non-numeric columns name the rows; numeric columns are
    // the values.  (Purely numeric tables keep column 0 as the name.)
    size_t name_cols = 1;
    while (name_cols < table.columns() &&
           !numericColumn(table, name_cols)) {
        ++name_cols;
    }
    for (size_t c = name_cols; c < table.columns(); ++c)
        rt.columns.push_back(table.header(c));
    for (size_t r = 0; r < table.rows(); ++r) {
        telemetry::ResultRow row;
        for (size_t c = 0; c < name_cols; ++c) {
            if (c > 0)
                row.name += "/";
            row.name += table.cell(r, c);
        }
        for (size_t c = name_cols; c < table.columns(); ++c)
            row.values.push_back(std::strtod(table.cell(r, c).c_str(),
                                             nullptr));
        rt.rows.push_back(std::move(row));
    }
    report_.addTable(std::move(rt));
}

void
Session::emit()
{
    if (jsonPath_.empty())
        return;
    report_.setPhases(timings_);
    report_.setMetrics(registry_);
    report_.writeFile(jsonPath_);
    std::printf("\nwrote JSON artifact: %s\n", jsonPath_.c_str());
}

telemetry::JsonValue
toJson(const CacheConfig &cfg)
{
    telemetry::JsonValue v = telemetry::JsonValue::object();
    v.set("name", telemetry::JsonValue(cfg.name));
    v.set("size_bytes", telemetry::JsonValue(cfg.sizeBytes));
    v.set("assoc", telemetry::JsonValue(static_cast<uint64_t>(cfg.assoc)));
    v.set("block_bytes",
          telemetry::JsonValue(static_cast<uint64_t>(cfg.blockBytes)));
    return v;
}

telemetry::JsonValue
toJson(const SystemParams &sys)
{
    telemetry::JsonValue v = telemetry::JsonValue::object();
    v.set("l1", toJson(sys.hier.l1));
    v.set("l2", toJson(sys.hier.l2));
    v.set("llc", toJson(sys.hier.llc));
    v.set("warmup_fraction", telemetry::JsonValue(sys.warmupFraction));
    return v;
}

telemetry::JsonValue
toJson(const Scale &scale)
{
    telemetry::JsonValue v = telemetry::JsonValue::object();
    v.set("mode", telemetry::JsonValue(scale.quick ? "quick" : "full"));
    v.set("accesses_per_simpoint",
          telemetry::JsonValue(scale.accessesPerSimpoint));
    v.set("random_samples",
          telemetry::JsonValue(static_cast<uint64_t>(scale.randomSamples)));
    telemetry::JsonValue ga = telemetry::JsonValue::object();
    ga.set("initial_population",
           telemetry::JsonValue(
               static_cast<uint64_t>(scale.ga.initialPopulation)));
    ga.set("population",
           telemetry::JsonValue(static_cast<uint64_t>(scale.ga.population)));
    ga.set("generations",
           telemetry::JsonValue(
               static_cast<uint64_t>(scale.ga.generations)));
    ga.set("mutation_rate", telemetry::JsonValue(scale.ga.mutationRate));
    ga.set("seed", telemetry::JsonValue(scale.ga.seed));
    v.set("ga", std::move(ga));
    return v;
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("============================================================\n");
}

void
emitTable(const Table &table, const std::string &csv_label)
{
    std::ostringstream text;
    table.print(text);
    std::fputs(text.str().c_str(), stdout);
    std::printf("\n--- CSV (%s) ---\n", csv_label.c_str());
    std::ostringstream csv;
    table.printCsv(csv);
    std::fputs(csv.str().c_str(), stdout);
}

void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

} // namespace gippr::bench
