/**
 * @file
 * System simulation implementation.
 */

#include "sim/system.hh"

#include <string>

#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "util/log.hh"
#include "util/stats.hh"

namespace gippr
{

namespace
{

/** The CPU walk, templated over the LLC model (SoaCacheModel or
 *  ScalarModel). */
template <class Model>
SimResult
walk(const Trace &cpu_trace, Model &llc, const SystemParams &params)
{
    Hierarchy hier(params.hier);
    CpuModel cpu(params.cpu);
    auto to_llc = [&llc](uint64_t addr, AccessType type, uint64_t pc) {
        return llc.accessAddr(addr, type, pc).hit;
    };

    const size_t warmup = static_cast<size_t>(
        static_cast<double>(cpu_trace.size()) * params.warmupFraction);

    for (size_t i = 0; i < cpu_trace.size(); ++i) {
        if (i == warmup) {
            llc.markWarmup();
            cpu.clearStats();
        }
        const MemRecord &r = cpu_trace[i];
        cpu.step(r.instGap, hier.access(r, to_llc));
    }
    cpu.drain();

    SimResult result;
    result.ipc = cpu.ipc();
    result.instructions = cpu.instructions();
    result.cycles = cpu.cycles();
    result.llcStats = llc.cacheStats();
    result.llcMisses = result.llcStats.demandMisses;
    result.llcMpki = result.llcStats.mpki(result.instructions);
    return result;
}

} // namespace

void
checkWarmupFraction(const SystemParams &params)
{
    if (!(params.warmupFraction >= 0.0 && params.warmupFraction <= 1.0))
        fatal("SystemParams: warmup fraction " +
              std::to_string(params.warmupFraction) +
              " is outside [0, 1]");
}

SimResult
simulateTrace(const Trace &cpu_trace, const PolicyFactory &llc_policy,
              const SystemParams &params)
{
    checkWarmupFraction(params);
    const CacheConfig &config = params.hier.llc;
    config.validate();
    const fastpath::ReplaySpec *spec = fastpath::specOf(llc_policy);
    if (spec != nullptr &&
        fastpath::SoaCacheModel::supports(*spec, config)) {
        fastpath::SoaCacheModel llc(*spec, config);
        return walk(cpu_trace, llc, params);
    }
    fastpath::ScalarModel llc(config, llc_policy(config));
    return walk(cpu_trace, llc, params);
}

SimResult
simulateWorkload(const Workload &workload,
                 const PolicyFactory &llc_policy,
                 const SystemParams &params)
{
    std::vector<double> ipcs, mpkis;
    SimResult combined;
    for (const Simpoint &sp : workload.simpoints()) {
        SimResult r = simulateTrace(*sp.trace, llc_policy, params);
        ipcs.push_back(r.ipc);
        mpkis.push_back(r.llcMpki);
        combined.instructions += r.instructions;
        combined.cycles += r.cycles;
        combined.llcMisses += r.llcMisses;
        combined.llcStats += r.llcStats;
    }
    combined.ipc = workload.combine(ipcs);
    combined.llcMpki = workload.combine(mpkis);
    return combined;
}

} // namespace gippr
