/**
 * @file
 * Shared-LLC run driver.
 */

#include "sim/multicore/engine.hh"

#include "cache/replay.hh"
#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "util/bitops.hh"
#include "util/check.hh"
#include "util/log.hh"

namespace gippr::multicore
{

namespace
{

/** Instructions covered by the post-warmup window of a stream. */
uint64_t
measuredInstructionsOf(uint64_t instructions, size_t length,
                       size_t warmup)
{
    if (length == 0)
        return 0;
    const auto span = static_cast<unsigned __int128>(instructions) *
                      (length - warmup);
    return static_cast<uint64_t>(span / length);
}

/**
 * SetAssocCache's way-mask precondition, checked for both backends
 * before any access fills within @p masks: a partial mask needs a
 * total recency order per set, which RRIP and PDP do not keep.
 */
void
checkMasks(const std::vector<uint64_t> &masks, const RunParams &params)
{
    if (fastpath::keepsRecencyOrder(params.policy))
        return;
    const uint64_t all = lowMask(params.llc.assoc);
    for (uint64_t mask : masks)
        if (mask != all)
            fatal(params.llc.name + ": " + params.policy.name() +
                  " keeps no recency order, so it cannot fill within "
                  "a way mask");
}

/**
 * The shared replay loop, templated over the two models
 * (fastpath::SoaCacheModel and its scalar twin ScalarModel).  The
 * loop owns everything per core — counter bank, warmup snapshot, duel
 * domain, way mask — so the models keep only the cache itself.
 */
template <class Model>
void
runLoop(Model &model, const std::vector<CoreStream> &streams,
        const RunParams &params, const std::vector<size_t> &warmups,
        std::vector<uint64_t> &masks, UtilityMonitor *monitor,
        RunResult &result)
{
    const unsigned cores = static_cast<unsigned>(streams.size());
    const bool per_core = params.duelScope == DuelScope::PerCore;
    std::vector<uint64_t> lengths(cores);
    std::vector<uint64_t> weights(cores);
    for (unsigned c = 0; c < cores; ++c) {
        lengths[c] = streams[c].trace->size();
        weights[c] = streams[c].weight;
    }

    std::vector<fastpath::CounterBank> banks(cores);
    std::vector<fastpath::CounterBank> warm(cores);
    Interleaver il(params.schedule, lengths, weights);
    std::vector<size_t> cursor(cores, 0);
    uint64_t tick = 0;
    int c;
    while ((c = il.next()) >= 0) {
        const auto core = static_cast<unsigned>(c);
        const size_t i = cursor[core]++;
        if (i == warmups[core])
            warm[core] = banks[core];
        const MemRecord &r = (*streams[core].trace)[i];
        const AccessType type = recordType(r);
        const bool demand = type != AccessType::Writeback;
        const uint64_t set = model.setIndex(r.addr);
        const uint64_t tag = model.tagOf(r.addr);
        fastpath::countStep(banks[core],
                            model.access(set, tag, type,
                                         per_core ? core : 0,
                                         masks[core]),
                            demand);

        if (monitor != nullptr) {
            if (demand && monitor->sampled(set))
                monitor->observe(core, set, tag);
            if (++tick % params.partition.repartitionEvery == 0) {
                const std::vector<unsigned> counts =
                    monitor->allocate();
                masks = masksFromCounts(counts, model.assoc());
                checkMasks(masks, params);
                monitor->decay();
                result.wayCounts = counts;
                ++result.repartitions;
            }
        }
    }
    // Streams fully consumed as warmup never snapped in the loop
    // (warmup == length), matching the single-core engines.
    for (unsigned k = 0; k < cores; ++k)
        if (warmups[k] == lengths[k])
            warm[k] = banks[k];

    for (unsigned k = 0; k < cores; ++k) {
        fastpath::ReplayStats &s = result.cores[k].stats;
        s.total = banks[k];
        s.measured = banks[k] - warm[k];
        model.duelStats(per_core ? k : 0, s);
    }
}

template <class Model>
void
runBackend(Model &model, const std::vector<CoreStream> &streams,
           const RunParams &params, const std::vector<size_t> &warmups,
           RunResult &result)
{
    const unsigned cores = static_cast<unsigned>(streams.size());
    std::vector<uint64_t> masks(cores, lowMask(model.assoc()));
    UtilityMonitor monitor(model.sets(), model.assoc(), cores,
                           params.partition.sampleEvery);
    UtilityMonitor *active = nullptr;
    switch (params.partition.mode) {
      case PartitionMode::None:
        break;
      case PartitionMode::Static:
        masks = masksFromCounts(params.partition.staticWays,
                                model.assoc());
        result.wayCounts = params.partition.staticWays;
        break;
      case PartitionMode::Utility: {
        // Start from an even split; the monitor refines it.
        const std::vector<unsigned> counts =
            evenSplit(cores, model.assoc());
        masks = masksFromCounts(counts, model.assoc());
        result.wayCounts = counts;
        active = &monitor;
        break;
      }
    }

    checkMasks(masks, params);
    runLoop(model, streams, params, warmups, masks, active, result);
}

} // namespace

Backend
parseBackend(const std::string &text)
{
    if (text == "fast")
        return Backend::Fast;
    if (text == "scalar")
        return Backend::Scalar;
    fatal("unknown backend (want fast|scalar): " + text);
}

const char *
backendName(Backend backend)
{
    return backend == Backend::Scalar ? "scalar" : "fast";
}

const fastpath::ReplayEngine &
replayEngineFor(Backend backend)
{
    static const fastpath::ScalarReplayEngine scalar;
    return backend == Backend::Fast ? fastpath::defaultReplayEngine()
                                    : scalar;
}

DuelScope
parseDuelScope(const std::string &text)
{
    if (text == "global")
        return DuelScope::Global;
    if (text == "per-core" || text == "percore")
        return DuelScope::PerCore;
    fatal("unknown duel scope (want global|per-core): " + text);
}

const char *
duelScopeName(DuelScope scope)
{
    return scope == DuelScope::PerCore ? "per-core" : "global";
}

RunResult
runSharedLlc(const std::vector<CoreStream> &streams,
             const RunParams &params)
{
    if (streams.empty())
        fatal("shared LLC: no core streams");
    params.llc.validate();
    if (!fastpath::SoaCacheModel::supports(params.policy, params.llc))
        fatal("shared LLC: " + params.policy.name() +
              " does not run on the " + std::to_string(params.llc.assoc) +
              "-way, " + std::to_string(params.llc.sets()) + "-set " +
              params.llc.name);
    if (!(params.warmupFraction >= 0.0 && params.warmupFraction <= 1.0))
        fatal("shared LLC: warmup fraction " +
              std::to_string(params.warmupFraction) +
              " is outside [0, 1]");
    for (size_t c = 0; c < streams.size(); ++c)
        if (streams[c].trace == nullptr)
            fatal("shared LLC: core " + std::to_string(c) + " (" +
                  streams[c].workload + ") has no trace");

    const unsigned cores = static_cast<unsigned>(streams.size());
    std::vector<size_t> warmups(cores);
    for (unsigned c = 0; c < cores; ++c)
        warmups[c] = static_cast<size_t>(
            static_cast<double>(streams[c].trace->size()) *
            params.warmupFraction);

    RunResult result;
    result.cores.resize(cores);
    for (unsigned c = 0; c < cores; ++c) {
        CoreResult &cr = result.cores[c];
        cr.workload = streams[c].workload;
        cr.weight = streams[c].weight;
        cr.instructions = streams[c].instructions;
        cr.measuredInstructions = measuredInstructionsOf(
            streams[c].instructions, streams[c].trace->size(),
            warmups[c]);
    }

    // Per-core scope gives every core its own duel domain.
    const unsigned domains =
        params.duelScope == DuelScope::PerCore ? cores : 1;
    if (params.backend == Backend::Fast) {
        fastpath::SoaCacheModel model(params.policy, params.llc, domains);
        runBackend(model, streams, params, warmups, result);
    } else {
        fastpath::ScalarModel model(params.policy, params.llc, domains);
        runBackend(model, streams, params, warmups, result);
    }

    for (const CoreResult &cr : result.cores) {
        result.measured += cr.stats.measured;
        result.total += cr.stats.total;
    }

    if (params.computeSolo) {
        // Solo baselines: the identical trace and warmup boundary
        // through the existing single-core engines, using the same
        // backend family so oracle runs stay backend-pure.
        const fastpath::ReplayEngine &engine =
            replayEngineFor(params.backend);
        std::vector<uint64_t> instructions(cores);
        std::vector<fastpath::CounterBank> shared_banks(cores);
        std::vector<fastpath::CounterBank> solo_banks(cores);
        for (unsigned c = 0; c < cores; ++c) {
            CoreResult &cr = result.cores[c];
            cr.solo = engine.replay(params.policy, params.llc,
                                    *streams[c].trace, warmups[c]);
            instructions[c] = cr.measuredInstructions;
            shared_banks[c] = cr.stats.measured;
            solo_banks[c] = cr.solo.measured;
        }
        result.fairness = computeFairness(params.latency, instructions,
                                          shared_banks, solo_banks);
    }

    return result;
}

RunResult
runSingleCoreReference(const CoreStream &stream,
                       const RunParams &params)
{
    GIPPR_CHECK(stream.trace != nullptr);
    GIPPR_CHECK(params.partition.mode == PartitionMode::None);

    const size_t length = stream.trace->size();
    const auto warmup = static_cast<size_t>(
        static_cast<double>(length) * params.warmupFraction);

    RunResult result;
    result.cores.resize(1);
    CoreResult &cr = result.cores[0];
    cr.workload = stream.workload;
    cr.weight = stream.weight;
    cr.instructions = stream.instructions;
    cr.measuredInstructions =
        measuredInstructionsOf(stream.instructions, length, warmup);

    cr.stats = replayEngineFor(params.backend)
                   .replay(params.policy, params.llc, *stream.trace,
                           warmup);
    cr.solo = cr.stats;
    result.measured += cr.stats.measured;
    result.total += cr.stats.total;
    if (params.computeSolo)
        result.fairness = computeFairness(
            params.latency, {cr.measuredInstructions},
            {cr.stats.measured}, {cr.solo.measured});
    return result;
}

} // namespace gippr::multicore
