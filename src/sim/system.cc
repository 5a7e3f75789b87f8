/**
 * @file
 * System simulation implementation.
 */

#include "sim/system.hh"

#include "util/stats.hh"

namespace gippr
{

SimResult
simulateTrace(const Trace &cpu_trace, const PolicyFactory &llc_policy,
              const SystemParams &params)
{
    Hierarchy hier(params.hier);
    SetAssocCache llc(params.hier.llc, llc_policy(params.hier.llc));
    CpuModel cpu(params.cpu);
    auto to_llc = [&llc](uint64_t addr, AccessType type, uint64_t pc) {
        return llc.access(addr, type, pc).hit;
    };

    const size_t warmup = static_cast<size_t>(
        static_cast<double>(cpu_trace.size()) * params.warmupFraction);

    for (size_t i = 0; i < cpu_trace.size(); ++i) {
        if (i == warmup) {
            llc.clearStats();
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
    result.llcStats = llc.stats();
    result.llcMisses = result.llcStats.demandMisses;
    result.llcMpki = result.llcStats.mpki(result.instructions);
    return result;
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
