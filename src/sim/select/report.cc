/**
 * @file
 * RunReport assembly for selector runs.
 */

#include "sim/select/report.hh"

#include <string>

#include "util/check.hh"

namespace gippr::select
{

namespace
{

using telemetry::JsonValue;
using telemetry::ResultRow;
using telemetry::ResultTable;

double
missRate(uint64_t misses, uint64_t accesses)
{
    if (accesses == 0)
        return 0.0;
    return static_cast<double>(misses) / static_cast<double>(accesses);
}

ResultRow
bankRow(const std::string &name, const fastpath::CounterBank &bank)
{
    return ResultRow{
        name,
        {static_cast<double>(bank.accesses),
         static_cast<double>(bank.hits),
         static_cast<double>(bank.misses),
         static_cast<double>(bank.demandAccesses),
         static_cast<double>(bank.demandMisses),
         missRate(bank.demandMisses, bank.demandAccesses),
         static_cast<double>(bank.evictions),
         static_cast<double>(bank.writebacks)},
    };
}

const std::vector<std::string> &
bankColumns()
{
    static const std::vector<std::string> cols = {
        "accesses",       "hits",
        "misses",         "demand_accesses",
        "demand_misses",  "demand_miss_rate",
        "evictions",      "writebacks",
    };
    return cols;
}

} // namespace

telemetry::RunReport
buildSelectReport(const SelectReportInputs &in)
{
    const SelectResult &res = in.result;
    const size_t cores = res.coreMeasured.size();
    GIPPR_CHECK(res.coreTotal.size() == cores);

    telemetry::RunReport report("select", in.binary);
    if (in.deterministic)
        report.setTimestamp("1970-01-01T00:00:00Z");

    // Config: everything that shaped the run EXCEPT the backend — the
    // equivalence gates byte-compare fast and scalar artifacts.
    report.setConfig("workload", JsonValue(in.workload));
    JsonValue lib = JsonValue::array();
    for (const std::string &arm : res.arms)
        lib.push(JsonValue(arm));
    report.setConfig("library", std::move(lib));
    report.setConfig("bandit",
                     JsonValue(banditKindName(in.cfg.kind)));
    report.setConfig("epoch_length", JsonValue(in.cfg.epochLength));
    report.setConfig("seed", JsonValue(in.cfg.seed));
    JsonValue llc = JsonValue::object();
    llc.set("size_bytes",
            JsonValue(static_cast<uint64_t>(in.llc.sizeBytes)));
    llc.set("assoc", JsonValue(static_cast<uint64_t>(in.llc.assoc)));
    llc.set("block_bytes",
            JsonValue(static_cast<uint64_t>(in.llc.blockBytes)));
    report.setConfig("llc", std::move(llc));
    report.setConfig("warmup_fraction", JsonValue(in.warmupFraction));
    report.setConfig("cores",
                     JsonValue(static_cast<uint64_t>(cores)));
    if (!in.coreWorkloads.empty()) {
        JsonValue names = JsonValue::array();
        for (const std::string &name : in.coreWorkloads)
            names.push(JsonValue(name));
        report.setConfig("core_workloads", std::move(names));
    }

    // Summary: served-stream counters plus the selector's own moves.
    {
        ResultTable table;
        table.title = "summary";
        table.metric = "count";
        table.columns = bankColumns();
        table.columns.push_back("switches");
        table.columns.push_back("drift_resets");
        ResultRow measured = bankRow("measured", res.measured);
        measured.values.push_back(
            static_cast<double>(res.switches));
        measured.values.push_back(
            static_cast<double>(res.driftResets));
        ResultRow total = bankRow("total", res.total);
        total.values.push_back(static_cast<double>(res.switches));
        total.values.push_back(
            static_cast<double>(res.driftResets));
        table.rows.push_back(std::move(measured));
        table.rows.push_back(std::move(total));
        report.addTable(std::move(table));
    }

    // Arms: how often each was chosen and its shadow reward traffic.
    {
        ResultTable table;
        table.title = "arms";
        table.metric = "count";
        table.columns = {"epochs_chosen", "shadow_demand_accesses",
                         "shadow_demand_misses",
                         "shadow_demand_miss_rate"};
        for (size_t a = 0; a < res.arms.size(); ++a) {
            table.rows.push_back(ResultRow{
                res.arms[a],
                {static_cast<double>(res.epochsChosen[a]),
                 static_cast<double>(res.shadowDemandAccesses[a]),
                 static_cast<double>(res.shadowDemandMisses[a]),
                 missRate(res.shadowDemandMisses[a],
                          res.shadowDemandAccesses[a])},
            });
        }
        report.addTable(std::move(table));
    }

    // Static oracle + regret vs the best static arm.
    if (!in.oracle.empty()) {
        ResultTable table;
        table.title = "static_oracle";
        table.metric = "count";
        table.columns = {"demand_accesses", "demand_misses",
                         "demand_miss_rate"};
        for (const StaticOracleRow &row : in.oracle) {
            table.rows.push_back(ResultRow{
                row.name,
                {static_cast<double>(row.measured.demandAccesses),
                 static_cast<double>(row.measured.demandMisses),
                 missRate(row.measured.demandMisses,
                          row.measured.demandAccesses)},
            });
        }
        table.rows.push_back(ResultRow{
            "selector",
            {static_cast<double>(res.measured.demandAccesses),
             static_cast<double>(res.measured.demandMisses),
             res.measuredDemandMissRate()},
        });
        report.addTable(std::move(table));

        const size_t best = bestStaticIndex(in.oracle);
        const double best_misses = static_cast<double>(
            in.oracle[best].measured.demandMisses);
        const double sel_misses =
            static_cast<double>(res.measured.demandMisses);
        ResultTable regret;
        regret.title = "regret";
        regret.metric = "misses";
        regret.columns = {"selector_demand_misses",
                          "best_static_demand_misses",
                          "regret_misses"};
        regret.rows.push_back(ResultRow{
            in.oracle[best].name,
            {sel_misses, best_misses, sel_misses - best_misses},
        });
        report.addTable(std::move(regret));
    }

    // Per-core attribution (one row on single-trace runs).
    {
        ResultTable table;
        table.title = "cores";
        table.metric = "count";
        table.columns = bankColumns();
        for (size_t c = 0; c < cores; ++c) {
            std::string name = "core" + std::to_string(c);
            if (c < in.coreWorkloads.size())
                name += ":" + in.coreWorkloads[c];
            table.rows.push_back(
                bankRow(name, res.coreMeasured[c]));
        }
        report.addTable(std::move(table));
    }

    // Decision timeline, one row per (possibly partial) epoch.
    {
        ResultTable table;
        table.title = "timeline";
        table.metric = "count";
        table.columns = {"chosen", "drift", "accesses",
                         "demand_accesses", "demand_misses"};
        for (size_t e = 0; e < res.timeline.size(); ++e) {
            const EpochRecord &rec = res.timeline[e];
            table.rows.push_back(ResultRow{
                "epoch" + std::to_string(e),
                {static_cast<double>(rec.chosen),
                 static_cast<double>(rec.drift),
                 static_cast<double>(rec.accesses),
                 static_cast<double>(rec.demandAccesses),
                 static_cast<double>(rec.demandMisses)},
            });
        }
        report.addTable(std::move(table));
    }

    return report;
}

} // namespace gippr::select
