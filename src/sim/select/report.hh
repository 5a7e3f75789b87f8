/**
 * @file
 * RunReport assembly for selector runs (kind "select").
 *
 * Written by examples/multicore_sim --select, whichever engine ran
 * (shared-stream, or single-trace under --reference-single).  The
 * backend is deliberately NOT part of the report: the equivalence
 * gates byte-compare fast-vs-scalar (and shared-vs-single-core)
 * artifacts with cmp, which only works if the document is a pure
 * function of the run's semantics.
 */

#ifndef GIPPR_SIM_SELECT_REPORT_HH_
#define GIPPR_SIM_SELECT_REPORT_HH_

#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/select/engine.hh"
#include "sim/select/select.hh"
#include "telemetry/report.hh"

namespace gippr::select
{

/** Everything buildSelectReport() renders. */
struct SelectReportInputs
{
    /** Report name (the producing binary). */
    std::string binary;
    /** Workload or mix display name. */
    std::string workload;
    /** Per-core workload names (size == result.coreMeasured.size()). */
    std::vector<std::string> coreWorkloads;
    SelectConfig cfg;
    CacheConfig llc;
    double warmupFraction = 1.0 / 3.0;
    SelectResult result;
    /** Static regret baselines; empty skips the oracle table. */
    std::vector<StaticOracleRow> oracle;
    /** Pin the timestamp for byte-comparable artifacts. */
    bool deterministic = false;
};

/** Assemble the kind:"select" report. */
telemetry::RunReport buildSelectReport(const SelectReportInputs &in);

} // namespace gippr::select

#endif // GIPPR_SIM_SELECT_REPORT_HH_
