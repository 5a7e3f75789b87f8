/**
 * @file
 * GA breeding primitives.
 */

#include "ga/breeding.hh"

#include <algorithm>

#include "util/check.hh"

namespace gippr
{

double
evaluatePopulation(const FitnessEvaluator &fitness, IpvFamily family,
                   std::vector<SampledIpv> &pop, size_t from,
                   unsigned threads, telemetry::PhaseTimings *timings)
{
    telemetry::ScopedTimer timer(timings, "ga_eval");
    std::vector<Ipv> ipvs;
    ipvs.reserve(pop.size() - from);
    for (size_t i = from; i < pop.size(); ++i)
        ipvs.push_back(pop[i].ipv);
    const std::vector<double> scores =
        fitness.evaluateAll(ipvs, family, threads);
    for (size_t i = from; i < pop.size(); ++i)
        pop[i].fitness = scores[i - from];
    double seconds = timer.elapsed();
    timer.stop();
    return seconds;
}

void
sortByFitnessDesc(std::vector<SampledIpv> &pop)
{
    std::sort(pop.begin(), pop.end(),
              [](const SampledIpv &a, const SampledIpv &b) {
                  return a.fitness > b.fitness;
              });
}

const SampledIpv &
selectParent(const std::vector<SampledIpv> &pop, unsigned t, Rng &rng)
{
    const SampledIpv *best = &pop[rng.nextBounded(pop.size())];
    for (unsigned i = 1; i < t; ++i) {
        const SampledIpv &cand = pop[rng.nextBounded(pop.size())];
        if (cand.fitness > best->fitness)
            best = &cand;
    }
    return *best;
}

Ipv
crossover(const Ipv &a, const Ipv &b, Rng &rng)
{
    const auto &ea = a.entries();
    const auto &eb = b.entries();
    GIPPR_CHECK(ea.size() == eb.size());
    size_t cut = 1 + rng.nextBounded(ea.size() - 1);
    std::vector<uint8_t> child(ea.begin(),
                               ea.begin() + static_cast<long>(cut));
    child.insert(child.end(), eb.begin() + static_cast<long>(cut),
                 eb.end());
    return Ipv(std::move(child));
}

Ipv
mutate(Ipv v, double rate, unsigned ways, Rng &rng)
{
    if (!rng.nextBool(rate))
        return v;
    std::vector<uint8_t> entries = v.entries();
    size_t idx = rng.nextBounded(entries.size());
    entries[idx] = static_cast<uint8_t>(rng.nextBounded(ways));
    return Ipv(std::move(entries));
}

} // namespace gippr
