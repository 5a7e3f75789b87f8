/**
 * @file
 * Reproduction benchmark driver.
 *
 * Runs one named workload of the reproduction pipeline, timing its
 * set-up (every input trace the body needs) and its body (the
 * simulation proper), and writes a JSON result: the timings of every
 * repetition, peak memory, one digest per simulated output, invariant
 * violations, the configuration that ran and, in traced runs, the
 * per-layer metrics.  perfbench/run.py builds this program, compares
 * the digests with perfbench/expected.json and prints the benchmark
 * result; see perfbench/README.md for the workloads and metrics.
 *
 * Per-layer attribution is done here, outside the library: a traced
 * run wraps each call into a module's public functions in a span and
 * reads the library's existing hooks (PhaseTimings, MetricRegistry,
 * FitnessEvaluator::attachTelemetry).  Where a library entry point
 * hides the calls to be timed, traced repetitions run the benchmark's
 * rebuild of it.  Untraced repetitions pass no hooks and call the
 * entry points themselves (runMissExperiment, simulateWorkload,
 * buildCoreStreams, select::staticOracle), so the end-to-end times are
 * those of the library's own code.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/replay.hh"
#include "core/vectors.hh"
#include "ga/fitness.hh"
#include "ga/genetic.hh"
#include "policies/belady.hh"
#include "sim/experiment.hh"
#include "sim/fastpath/engine.hh"
#include "sim/multicore/engine.hh"
#include "sim/multicore/mix.hh"
#include "sim/policy_zoo.hh"
#include "sim/select/engine.hh"
#include "sim/system.hh"
#include "sim/trace_cache.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timer.hh"
#include "util/parallel.hh"
#include "util/stats.hh"
#include "workloads/suite.hh"

extern char **environ;

namespace
{

using namespace gippr;
using telemetry::JsonValue;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Fixed scale.  Changing any of these changes the simulated outputs,
// so perfbench/expected.json must be re-recorded with them.
// ---------------------------------------------------------------------

/** CPU references per simpoint: the bench "quick" scale for the miss
 *  and shared-LLC workloads; the GA and full-system workloads use
 *  shorter simpoints so one body repetition lasts seconds. */
constexpr uint64_t kAccessesPerSimpoint = 300'000;
constexpr uint64_t kGaAccessesPerSimpoint = 50'000;
constexpr uint64_t kFullSystemAccessesPerSimpoint = 150'000;
/** GA budget (the bench "quick" scale). */
constexpr size_t kGaInitialPopulation = 48;
constexpr size_t kGaPopulation = 24;
constexpr unsigned kGaGenerations = 5;
/** Final-population members offered to duel selection, as in
 *  examples/evolve_ipv. */
constexpr size_t kDuelPool = 24;
constexpr size_t kDuelVectors = 4;
/**
 * Worker threads: half the CPUs this process may use, at most 4.  The
 * CPUs are shared with other tenants; in an interleaved comparison on
 * a 4-vCPU host, four GA searches took 6.5-11.9 s with 4 threads and
 * 13.3-13.9 s with 2 (at twice the work per thread).
 */
constexpr unsigned kMaxThreads = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory and aggregated per repetition.
// ---------------------------------------------------------------------

thread_local int64_t t_currentSpan = -1;

class Tracer
{
  public:
    struct Record
    {
        const char *name;
        int64_t id;
        int64_t parent;
        double begin; ///< seconds since the tracer's epoch
        double end;
    };

    int64_t nextId() { return nextId_.fetch_add(1); }

    double now() const { return secondsSince(epoch_); }

    void
    add(Record r)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(r);
    }

    /** Spans recorded so far (a repetition's spans follow its mark). */
    size_t mark() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** Summed duration of the spans named @p name since @p from. */
    double
    seconds(const std::string &name, size_t from) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double s = 0.0;
        for (size_t i = from; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                s += spans_[i].end - spans_[i].begin;
        return s;
    }

    /**
     * Wall time, since @p from, during which at least one layer span
     * (any span with a parent) was open on some thread.
     */
    double
    coveredSeconds(size_t from) const
    {
        std::vector<std::pair<double, double>> iv;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (size_t i = from; i < spans_.size(); ++i)
                if (spans_[i].parent >= 0)
                    iv.emplace_back(spans_[i].begin, spans_[i].end);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = 0.0, hi = -1.0;
        for (const auto &[b, e] : iv) {
            if (b > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = b;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        return covered;
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::atomic<int64_t> nextId_{0};
    mutable std::mutex mu_;
    std::vector<Record> spans_;
};

/** Times its scope as a child of the thread's current span. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name) : tracer_(tracer), name_(name)
    {
        if (!tracer_)
            return;
        id_ = tracer_->nextId();
        parent_ = t_currentSpan;
        t_currentSpan = id_;
        begin_ = tracer_->now();
    }
    ~Span()
    {
        if (!tracer_)
            return;
        t_currentSpan = parent_;
        tracer_->add({name_, id_, parent_, begin_, tracer_->now()});
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    const char *name_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
    double begin_ = 0.0;
};

/** Makes a pool worker's spans children of the caller's span. */
class ParentScope
{
  public:
    explicit ParentScope(int64_t parent) : saved_(t_currentSpan)
    {
        t_currentSpan = parent;
    }
    ~ParentScope() { t_currentSpan = saved_; }
    ParentScope(const ParentScope &) = delete;
    ParentScope &operator=(const ParentScope &) = delete;

  private:
    int64_t saved_;
};

/** parallelFor whose workers inherit the caller's current span. */
void
tracedParallelFor(size_t n, unsigned threads,
                  const std::function<void(size_t)> &body)
{
    const int64_t parent = t_currentSpan;
    parallelFor(n, threads, [&](size_t i) {
        ParentScope scope(parent);
        body(i);
    });
}

// ---------------------------------------------------------------------
// Output digests.
// ---------------------------------------------------------------------

class Digest
{
  public:
    Digest &
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }
    Digest &u64(uint64_t v) { return bytes(&v, sizeof v); }
    Digest &
    f64(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }
    Digest &
    str(const std::string &s)
    {
        return u64(s.size()).bytes(s.data(), s.size());
    }
    Digest &
    bank(const fastpath::CounterBank &b)
    {
        return u64(b.accesses).u64(b.hits).u64(b.misses).u64(b.evictions)
            .u64(b.writebacks).u64(b.demandAccesses).u64(b.demandMisses);
    }
    Digest &
    ipv(const Ipv &v)
    {
        return u64(v.entries().size())
            .bytes(v.entries().data(), v.entries().size());
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Simulated outputs of one repetition, by name, in a fixed order. */
struct Output
{
    std::vector<std::pair<std::string, std::string>> items;
    /** Violated invariants (each one a failed check). */
    std::vector<std::string> violations;

    void add(std::string name, const Digest &d)
    {
        items.emplace_back(std::move(name), d.hex());
    }
    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
};

/** Per-repetition hooks; all null in untraced repetitions. */
struct Hooks
{
    Tracer *tracer = nullptr;
    telemetry::PhaseTimings *timings = nullptr;
    telemetry::MetricRegistry *registry = nullptr;
    /** First span index of the repetition. */
    size_t mark = 0;

    double span(const std::string &name) const
    {
        return tracer ? tracer->seconds(name, mark) : 0.0;
    }
    double phase(const std::string &name) const
    {
        return timings ? timings->seconds(name) : 0.0;
    }
    double counter(const std::string &name) const
    {
        return registry
                   ? static_cast<double>(registry->counter(name).value())
                   : 0.0;
    }
};

using Layers = std::map<std::string, double>;

/** Every per-layer metric; workloads that bypass a layer report 0. */
const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "workloads.materialize_s",
        "workloads.cpu_mrefs",
        "cache.filter_s",
        "cache.filter_mrefs_per_s",
        "cache.llc_maccesses",
        "trace_cache.hits",
        "trace_cache.misses",
        "fastpath.replay_s",
        "fastpath.replay_maccess_per_s",
        "fastpath.replay_shard1_maccess_per_s",
        "fastpath.replay_shardN_maccess_per_s",
        "fastpath.batch_maccess_per_s",
        "policies.scalar_replay_s",
        "policies.min_s",
        "sim.simulate_s",
        "sim.minst_per_s",
        "sim.llc_maccesses",
        "ga.baseline_s",
        "ga.eval_s",
        "ga.breed_s",
        "ga.duel_select_s",
        "ga.genomes_per_s",
        "ga.evaluations",
        "ga.replays",
        "ga.batch_replays",
        "ga.memo_hits",
        "ga.memo_misses",
        "ga.memo_hit_ratio",
        "multicore.run_s",
        "multicore.maccess_per_s",
        "multicore.repartitions",
        "select.run_s",
        "select.static_oracle_s",
        "select.switches",
        "select.drift_resets",
    };
    return names;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Shared inputs.
// ---------------------------------------------------------------------

SuiteParams
suiteParams(uint64_t seed, uint64_t accesses = kAccessesPerSimpoint)
{
    SuiteParams p;
    p.llcBlocks = 16384; // the 1MB bench LLC
    p.accessesPerSimpoint = accesses;
    p.baseSeed = seed;
    return p;
}

/** The bench system: paper L1/L2, 1MB 16-way LLC, interval CPU. */
SystemParams
systemParams()
{
    SystemParams p;
    p.hier.l1 = CacheConfig::paperL1d();
    p.hier.l2 = CacheConfig::paperL2();
    p.hier.llc = CacheConfig::benchLlc();
    return p;
}

uint64_t
cpuRefs(const WorkloadSpec &spec)
{
    uint64_t n = 0;
    for (const SimpointSpec &sp : spec.simpoints)
        n += sp.accesses;
    return n;
}

size_t
warmupOf(const Trace &trace, double fraction)
{
    return static_cast<size_t>(static_cast<double>(trace.size()) *
                               fraction);
}

/**
 * Replay one policy over an LLC trace as the library's harnesses do:
 * through @p engine when the policy has a fast spec, otherwise through
 * the scalar cache.  Returns the measured (post-warmup) counters.
 */
fastpath::CounterBank
replayMeasured(const PolicyDef &policy, const CacheConfig &llc,
               const Trace &trace, size_t warmup,
               const fastpath::ReplayEngine &engine, Tracer *tracer)
{
    if (policy.fastSpec) {
        Span span(tracer, "fastpath.replay");
        return engine.replay(*policy.fastSpec, llc, trace, warmup).measured;
    }
    Span span(tracer, "policies.scalar_replay");
    SetAssocCache cache(llc, policy.make(llc));
    replayTrace(cache, trace, warmup);
    const CacheStats &st = cache.stats();
    return {st.accesses,   st.hits,           st.misses,      st.evictions,
            st.writebacks, st.demandAccesses, st.demandMisses};
}

/** Sharded-replay throughput curve point: GIPPR over @p traces. */
double
shardedReplayMaccessPerS(unsigned shards, const CacheConfig &llc,
                         const std::vector<const Trace *> &traces)
{
    const fastpath::FastReplayEngine engine(shards);
    const fastpath::ReplaySpec spec =
        fastpath::gipprSpec(local_vectors::gippr());
    uint64_t accesses = 0;
    const auto t0 = Clock::now();
    for (const Trace *t : traces) {
        engine.replay(spec, llc, *t, warmupOf(*t, 1.0 / 3.0));
        accesses += t->size();
    }
    return ratio(static_cast<double>(accesses) / 1e6, secondsSince(t0));
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

class Bench
{
  public:
    virtual ~Bench() = default;
    /** Build every input trace the body needs (replacing old ones). */
    virtual void setup(const Hooks &hooks) = 0;
    virtual Output body(const Hooks &hooks) = 0;
    /** Layer metrics of the repetition that just ran with @p hooks. */
    virtual void setupLayers(const Hooks &hooks, Layers &out) const = 0;
    virtual void bodyLayers(const Hooks &hooks, Layers &out) const = 0;
    /** Traces for the sharded-replay curve (empty: not measured). */
    virtual std::vector<const Trace *> replayTraces() const { return {}; }
    /** The suite the workload's inputs come from. */
    virtual const SyntheticSuite &suite() const = 0;
    /** Extra configuration to record. */
    virtual void describe(JsonValue &) const {}
};

/**
 * miss_sweep: the Fig. 10/11 miss experiment — every suite workload's
 * LLC trace under the paper's policy set plus Belady MIN.
 */
class MissSweep : public Bench
{
  public:
    MissSweep(uint64_t seed, unsigned threads)
        : suite_(suiteParams(seed)), threads_(threads),
          engine_(fastpath::defaultReplayEngine())
    {
        policies_ = {
            lruDef(),
            plruDef(),
            gipprDef("GIPPR", local_vectors::gippr()),
            dgipprDef("2-DGIPPR", local_vectors::dgippr2()),
            dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
            drripDef(),
            pdpDef(),
        };
    }

    void
    setup(const Hooks &hooks) override
    {
        entries_.clear();
        cache_ = std::make_unique<LlcTraceCache>();
        const auto &specs = suite_.specs();
        entries_.resize(specs.size());
        tracedParallelFor(specs.size(), threads_, [&](size_t i) {
            Span span(hooks.tracer, "trace_cache.get");
            entries_[i] = cache_->get(specs[i], sys_.hier, hooks.timings);
        });
    }

    Output
    body(const Hooks &hooks) override
    {
        const auto &specs = suite_.specs();
        std::vector<std::vector<double>> rows(specs.size());
        if (hooks.tracer) {
            tracedParallelFor(specs.size(), threads_, [&](size_t i) {
                rows[i] = row(*entries_[i], hooks.tracer);
            });
        } else {
            // The set-up's trace cache makes every lookup a hit.
            ExperimentConfig cfg;
            cfg.system = sys_;
            cfg.threads = threads_;
            cfg.includeMin = true;
            cfg.replayEngine = &engine_;
            cfg.traceCache = cache_.get();
            ExperimentResult r = runMissExperiment(suite_, policies_, cfg);
            for (size_t i = 0; i < specs.size(); ++i)
                rows[i] = std::move(r.rows[i].values);
        }
        Output out;
        for (size_t i = 0; i < specs.size(); ++i) {
            Digest d;
            for (double v : rows[i]) {
                d.f64(v);
                out.require(std::isfinite(v) && v >= 0.0,
                            "non-finite or negative MPKI on " +
                                specs[i].name);
            }
            out.add("mpki/" + specs[i].name, d);
        }
        return out;
    }

    void
    setupLayers(const Hooks &hooks, Layers &out) const override
    {
        double cpu = 0.0, llc = 0.0;
        for (const WorkloadSpec &spec : suite_.specs())
            cpu += static_cast<double>(cpuRefs(spec)) / 1e6;
        for (const Trace *t : replayTraces())
            llc += static_cast<double>(t->size()) / 1e6;
        out["workloads.materialize_s"] = hooks.phase("materialize");
        out["workloads.cpu_mrefs"] = cpu;
        out["cache.filter_s"] = hooks.phase("llc_filter");
        out["cache.filter_mrefs_per_s"] =
            ratio(cpu, hooks.phase("llc_filter"));
        out["cache.llc_maccesses"] = llc;
        out["trace_cache.hits"] = static_cast<double>(cache_->hits());
        out["trace_cache.misses"] = static_cast<double>(cache_->misses());
    }

    void
    bodyLayers(const Hooks &hooks, Layers &out) const override
    {
        uint64_t fast_accesses = 0;
        size_t fast_policies = 0;
        for (const PolicyDef &p : policies_)
            fast_policies += p.fastSpec ? 1 : 0;
        for (const Trace *t : replayTraces())
            fast_accesses += t->size() * fast_policies;
        const double replay_s = hooks.span("fastpath.replay");
        out["fastpath.replay_s"] = replay_s;
        out["fastpath.replay_maccess_per_s"] =
            ratio(static_cast<double>(fast_accesses) / 1e6, replay_s);
        out["policies.scalar_replay_s"] =
            hooks.span("policies.scalar_replay");
        out["policies.min_s"] = hooks.span("policies.min");
    }

    std::vector<const Trace *>
    replayTraces() const override
    {
        std::vector<const Trace *> out;
        for (const auto &e : entries_)
            for (const LlcTraceCache::Entry &x : *e)
                out.push_back(x.demandTrace.get());
        return out;
    }

    const SyntheticSuite &suite() const override { return suite_; }

    void
    describe(JsonValue &cfg) const override
    {
        JsonValue names = JsonValue::array();
        for (const PolicyDef &p : policies_)
            names.push(JsonValue(p.name));
        names.push(JsonValue("MIN"));
        cfg.set("policies", std::move(names));
    }

  private:
    /**
     * One workload's MPKI row, formed as runMissExperiment forms it,
     * with every replay in a layer span.  Traced and untraced
     * repetitions are checked against the same digests.
     */
    std::vector<double>
    row(const LlcTraceCache::Entries &entries, Tracer *tracer) const
    {
        const CacheConfig &llc = sys_.hier.llc;
        const size_t columns = policies_.size() + 1;
        std::vector<std::vector<double>> per_simpoint(columns);
        std::vector<double> weights;
        for (const LlcTraceCache::Entry &entry : entries) {
            const Trace &trace = *entry.demandTrace;
            weights.push_back(entry.weight);
            const size_t warmup = warmupOf(trace, sys_.warmupFraction);
            uint64_t inst = static_cast<uint64_t>(
                static_cast<double>(entry.instructions) *
                (1.0 - sys_.warmupFraction));
            if (inst == 0)
                inst = 1;
            auto mpki = [inst](uint64_t misses) {
                return 1000.0 * static_cast<double>(misses) /
                       static_cast<double>(inst);
            };
            for (size_t p = 0; p < policies_.size(); ++p)
                per_simpoint[p].push_back(
                    mpki(replayMeasured(policies_[p], llc, trace, warmup,
                                        engine_, tracer)
                             .demandMisses));
            Span span(tracer, "policies.min");
            per_simpoint[policies_.size()].push_back(
                mpki(runMinMisses(llc, trace, warmup)));
        }
        std::vector<double> row;
        for (size_t c = 0; c < columns; ++c)
            row.push_back(weightedMean(per_simpoint[c], weights));
        return row;
    }

    SystemParams sys_ = systemParams();
    SyntheticSuite suite_;
    unsigned threads_;
    const fastpath::ReplayEngine &engine_;
    std::unique_ptr<LlcTraceCache> cache_;
    std::vector<std::shared_ptr<const LlcTraceCache::Entries>> entries_;
    std::vector<PolicyDef> policies_;
};

/**
 * ga_search: the paper's search loop — evolve a GIPPR vector over
 * every suite simpoint's filtered LLC trace, then pick a 4-vector
 * duel set.
 */
class GaSearch : public Bench
{
  public:
    GaSearch(uint64_t seed, unsigned threads)
        : suite_(suiteParams(seed, kGaAccessesPerSimpoint)), seed_(seed),
          threads_(threads)
    {
    }

    void
    setup(const Hooks &hooks) override
    {
        traces_.clear();
        const auto &specs = suite_.specs();
        std::vector<std::vector<FitnessTrace>> per(specs.size());
        tracedParallelFor(specs.size(), threads_, [&](size_t i) {
            std::vector<gippr::Workload> single;
            {
                Span span(hooks.tracer, "workloads.materialize");
                single.push_back(SyntheticSuite::materialize(specs[i]));
            }
            Span span(hooks.tracer, "cache.filter");
            per[i] = buildFitnessTraces(single, sys_.hier);
        });
        for (auto &v : per)
            for (FitnessTrace &t : v)
                traces_.push_back(std::move(t));
    }

    Output
    body(const Hooks &hooks) override
    {
        std::unique_ptr<FitnessEvaluator> fitness;
        {
            Span span(hooks.tracer, "ga.baseline");
            fitness = std::make_unique<FitnessEvaluator>(
                sys_.hier.llc, traces_, CpiModel{}, hooks.timings);
        }
        if (hooks.registry)
            fitness->attachTelemetry(*hooks.registry, "ga");
        batchWidth_ = fitness->batchWidth();
        memoCapacity_ = fitness->memoCapacity();

        GaParams params;
        params.initialPopulation = kGaInitialPopulation;
        params.population = kGaPopulation;
        params.generations = kGaGenerations;
        params.threads = threads_;
        params.seed = seed_;
        params.timings = hooks.timings;
        params.seedIpvs = seedIpvs();

        GaResult ga;
        {
            Span span(hooks.tracer, "ga.evolve");
            ga = evolveIpv(*fitness, IpvFamily::Gippr, params);
        }
        // Snapshot the search's own counters before duel selection
        // evaluates more vectors through the same evaluator.
        evolveCounters_.clear();
        for (const char *c : {"evaluations", "replays", "batch_replays",
                              "memo_hits", "memo_misses"})
            evolveCounters_[c] = hooks.counter(std::string("ga.") + c);
        evalSeconds_ = hooks.phase("ga_eval");

        // The best of the final population plus the archetypes, as
        // examples/evolve_ipv offers them to duel selection.
        std::vector<Ipv> pool;
        const size_t take = std::min(ga.finalPopulation.size(), kDuelPool);
        for (size_t i = 0; i < take; ++i)
            pool.push_back(ga.finalPopulation[i].ipv);
        for (const Ipv &v : params.seedIpvs)
            pool.push_back(v);
        std::vector<Ipv> duel;
        {
            Span span(hooks.tracer, "ga.duel_select");
            duel = selectDuelSet(*fitness, IpvFamily::Gippr, pool,
                                 kDuelVectors);
        }

        Output out;
        out.add("ga/best", Digest().ipv(ga.best).f64(ga.bestFitness));
        Digest history;
        for (double f : ga.history)
            history.f64(f);
        out.add("ga/history", history);
        out.require(ga.history.size() == kGaGenerations + 1,
                    "GA history length");
        out.require(std::is_sorted(ga.history.begin(), ga.history.end()),
                    "GA best fitness decreased across generations");
        out.require(!ga.history.empty() &&
                        ga.history.back() == ga.bestFitness,
                    "GA best fitness differs from its history");
        Digest duel_digest;
        for (const Ipv &v : duel)
            duel_digest.ipv(v);
        out.add("ga/duel", duel_digest);
        out.require(duel.size() == kDuelVectors, "duel set size");
        return out;
    }

    void
    setupLayers(const Hooks &hooks, Layers &out) const override
    {
        double cpu = 0.0;
        for (const WorkloadSpec &spec : suite_.specs())
            cpu += static_cast<double>(cpuRefs(spec)) / 1e6;
        const double filter_s = hooks.span("cache.filter");
        out["workloads.materialize_s"] =
            hooks.span("workloads.materialize");
        out["workloads.cpu_mrefs"] = cpu;
        out["cache.filter_s"] = filter_s;
        out["cache.filter_mrefs_per_s"] = ratio(cpu, filter_s);
        out["cache.llc_maccesses"] = llcMaccesses();
    }

    void
    bodyLayers(const Hooks &hooks, Layers &out) const override
    {
        const double evolve_s = hooks.span("ga.evolve");
        const double evals = evolveCounters_.at("evaluations");
        const double hits = evolveCounters_.at("memo_hits");
        const double misses = evolveCounters_.at("memo_misses");
        // A batched replay is one (genome, trace) pass; every genome
        // replays every training trace.
        const double batch_maccesses =
            ratio(evolveCounters_.at("batch_replays"),
                  static_cast<double>(traces_.size())) *
            llcMaccesses();
        out["fastpath.batch_maccess_per_s"] =
            ratio(batch_maccesses, evalSeconds_);
        out["ga.baseline_s"] = hooks.span("ga.baseline");
        out["ga.eval_s"] = evalSeconds_;
        out["ga.breed_s"] = evolve_s - evalSeconds_;
        out["ga.duel_select_s"] = hooks.span("ga.duel_select");
        out["ga.genomes_per_s"] = ratio(evals, evalSeconds_);
        for (const auto &[name, value] : evolveCounters_)
            out["ga." + name] = value;
        out["ga.memo_hit_ratio"] = ratio(hits, hits + misses);
    }

    std::vector<const Trace *>
    replayTraces() const override
    {
        std::vector<const Trace *> out;
        for (const FitnessTrace &t : traces_)
            out.push_back(t.llcTrace.get());
        return out;
    }

    const SyntheticSuite &suite() const override { return suite_; }

    void
    describe(JsonValue &cfg) const override
    {
        JsonValue ga = JsonValue::object();
        ga.set("family", JsonValue("GIPPR"));
        ga.set("initial_population",
               JsonValue(static_cast<uint64_t>(kGaInitialPopulation)));
        ga.set("population",
               JsonValue(static_cast<uint64_t>(kGaPopulation)));
        ga.set("generations",
               JsonValue(static_cast<uint64_t>(kGaGenerations)));
        ga.set("duel_pool", JsonValue(static_cast<uint64_t>(kDuelPool)));
        ga.set("duel_vectors",
               JsonValue(static_cast<uint64_t>(kDuelVectors)));
        ga.set("batch_width", JsonValue(static_cast<uint64_t>(batchWidth_)));
        ga.set("memo_capacity",
               JsonValue(static_cast<uint64_t>(memoCapacity_)));
        ga.set("training_traces",
               JsonValue(static_cast<uint64_t>(traces_.size())));
        cfg.set("ga", std::move(ga));
    }

  private:
    /** The archetype seeds evolve_ipv starts its search from. */
    static std::vector<Ipv>
    seedIpvs()
    {
        std::vector<Ipv> seeds = {Ipv::lru(16), Ipv::lruInsertion(16),
                                  paper_vectors::giplr(),
                                  paper_vectors::wiGippr()};
        for (const Ipv &v : paper_vectors::wi4Dgippr())
            seeds.push_back(v);
        return seeds;
    }

    double
    llcMaccesses() const
    {
        double n = 0.0;
        for (const FitnessTrace &t : traces_)
            n += static_cast<double>(t.llcTrace->size()) / 1e6;
        return n;
    }

    SystemParams sys_ = systemParams();
    SyntheticSuite suite_;
    uint64_t seed_;
    unsigned threads_;
    std::vector<FitnessTrace> traces_;
    std::map<std::string, double> evolveCounters_;
    double evalSeconds_ = 0.0;
    unsigned batchWidth_ = 0;
    size_t memoCapacity_ = 0;
};

/**
 * full_system: the Fig. 13 performance experiment — every suite
 * workload through the L1/L2/LLC hierarchy and the interval CPU model.
 */
class FullSystem : public Bench
{
  public:
    FullSystem(uint64_t seed, unsigned threads)
        : suite_(suiteParams(seed, kFullSystemAccessesPerSimpoint)),
          threads_(threads)
    {
        policies_ = {
            lruDef(),
            drripDef(),
            pdpDef(),
            dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
        };
    }

    void
    setup(const Hooks &hooks) override
    {
        const auto &specs = suite_.specs();
        workloads_.clear();
        workloads_.resize(specs.size());
        tracedParallelFor(specs.size(), threads_, [&](size_t i) {
            Span span(hooks.tracer, "workloads.materialize");
            workloads_[i] = SyntheticSuite::materialize(specs[i]);
        });
    }

    Output
    body(const Hooks &hooks) override
    {
        std::vector<std::vector<SimResult>> results(workloads_.size());
        std::vector<uint64_t> llc_accesses(workloads_.size(), 0);
        if (hooks.tracer) {
            tracedParallelFor(workloads_.size(), threads_, [&](size_t i) {
                results[i] = simulateTraced(workloads_[i], hooks.tracer,
                                            llc_accesses[i]);
            });
        } else {
            parallelFor(workloads_.size(), threads_, [&](size_t i) {
                for (const PolicyDef &p : policies_)
                    results[i].push_back(
                        simulateWorkload(workloads_[i], p.make, sys_));
            });
        }
        Output out;
        llcAccesses_ = 0;
        for (size_t i = 0; i < workloads_.size(); ++i) {
            Digest d;
            for (const SimResult &r : results[i]) {
                d.f64(r.ipc).f64(r.llcMpki).u64(r.instructions)
                    .f64(r.cycles).u64(r.llcMisses);
                out.require(std::isfinite(r.ipc) && r.ipc > 0.0,
                            "non-positive IPC on " + workloads_[i].name());
            }
            out.add("ipc/" + workloads_[i].name(), d);
            llcAccesses_ += llc_accesses[i];
        }
        return out;
    }

    void
    setupLayers(const Hooks &hooks, Layers &out) const override
    {
        double cpu = 0.0;
        for (const WorkloadSpec &spec : suite_.specs())
            cpu += static_cast<double>(cpuRefs(spec)) / 1e6;
        out["workloads.materialize_s"] =
            hooks.span("workloads.materialize");
        out["workloads.cpu_mrefs"] = cpu;
    }

    void
    bodyLayers(const Hooks &hooks, Layers &out) const override
    {
        double inst = 0.0;
        for (const gippr::Workload &w : workloads_)
            for (const Simpoint &sp : w.simpoints())
                inst += static_cast<double>(sp.trace->instructions());
        inst *= static_cast<double>(policies_.size());
        const double simulate_s = hooks.span("sim.simulate");
        out["sim.simulate_s"] = simulate_s;
        out["sim.minst_per_s"] = ratio(inst / 1e6, simulate_s);
        out["sim.llc_maccesses"] = static_cast<double>(llcAccesses_) / 1e6;
    }

    const SyntheticSuite &suite() const override { return suite_; }

    void
    describe(JsonValue &cfg) const override
    {
        JsonValue names = JsonValue::array();
        for (const PolicyDef &p : policies_)
            names.push(JsonValue(p.name));
        cfg.set("policies", std::move(names));
    }

  private:
    /**
     * simulateWorkload for every policy, rebuilt so that each policy's
     * run is a layer span and each simpoint's LLC accesses, which
     * simulateWorkload drops, are counted into @p llc_accesses.
     * Traced and untraced repetitions are checked against the same
     * digests.
     */
    std::vector<SimResult>
    simulateTraced(const gippr::Workload &w, Tracer *tracer,
                   uint64_t &llc_accesses) const
    {
        std::vector<SimResult> results;
        for (const PolicyDef &p : policies_) {
            Span span(tracer, "sim.simulate");
            std::vector<double> ipcs, mpkis;
            SimResult combined;
            for (const Simpoint &sp : w.simpoints()) {
                const SimResult r = simulateTrace(*sp.trace, p.make, sys_);
                ipcs.push_back(r.ipc);
                mpkis.push_back(r.llcMpki);
                combined.instructions += r.instructions;
                combined.cycles += r.cycles;
                combined.llcMisses += r.llcMisses;
                llc_accesses += r.llcStats.accesses;
            }
            combined.ipc = w.combine(ipcs);
            combined.llcMpki = w.combine(mpkis);
            results.push_back(combined);
        }
        return results;
    }

    SystemParams sys_ = systemParams();
    SyntheticSuite suite_;
    unsigned threads_;
    std::vector<PolicyDef> policies_;
    std::vector<gippr::Workload> workloads_;
    uint64_t llcAccesses_ = 0;
};

/**
 * shared_select: every preset 4-core mix through one shared LLC under
 * 4-DGIPPR (global duel, utility way partitioning), then the online
 * policy selector over the four phase-shift workloads.
 */
class SharedSelect : public Bench
{
  public:
    SharedSelect(uint64_t seed, unsigned threads)
        : suite_(suiteParams(seed)), threads_(threads),
          library_(select::parseLibrary(select::defaultLibrarySpec()))
    {
        for (const auto &spec : kvCacheFamily(suite_.params()))
            extraSpecs_.push_back(spec);
        for (const auto &spec : phaseShiftFamily(suite_.params())) {
            extraSpecs_.push_back(spec);
            phaseShift_.push_back(spec.name);
        }
        params_.llc = sys_.hier.llc;
        params_.policy = fastpath::dgipprSpec(local_vectors::dgippr4());
        params_.duelScope = multicore::DuelScope::Global;
        params_.partition = multicore::parsePartition(
            "utility", static_cast<unsigned>(kCores));
        backend_ = select::resolveBackend(library_, sys_.hier.llc,
                                          select::Backend::Fast);
    }

    void
    setup(const Hooks &hooks) override
    {
        // Every stream comes through one trace cache, so tenants shared
        // between mixes are cache hits.  Each ps_* workload is a
        // 1-tenant mix, as examples/select_sim builds it.
        mixStreams_.clear();
        selectStreams_.clear();
        cpuMrefs_ = 0.0;
        cache_ = std::make_unique<LlcTraceCache>();
        std::vector<multicore::MixSpec> mixes = multicore::presetMixes();
        for (const std::string &name : phaseShift_)
            mixes.push_back({name, {{name, 1}}});
        for (const multicore::MixSpec &mix : mixes) {
            std::vector<multicore::CoreStream> streams;
            if (hooks.tracer) {
                for (const multicore::TenantSpec &t : mix.tenants)
                    streams.push_back(stream(t, hooks));
            } else {
                streams = multicore::buildCoreStreams(mix, suite_, sys_.hier,
                                                      cache_.get());
            }
            if (mixStreams_.size() < multicore::presetMixes().size())
                mixStreams_.push_back(std::move(streams));
            else
                selectStreams_.push_back(std::move(streams.front()));
        }
    }

    Output
    body(const Hooks &hooks) override
    {
        const auto &mixes = multicore::presetMixes();
        const size_t tasks = mixes.size() + selectStreams_.size();
        std::vector<multicore::RunResult> mix_results(mixes.size());
        std::vector<select::SelectResult> sel_results(selectStreams_.size());
        std::vector<std::vector<select::StaticOracleRow>> oracles(
            selectStreams_.size());
        tracedParallelFor(tasks, threads_, [&](size_t i) {
            if (i < mixes.size()) {
                Span span(hooks.tracer, "multicore.run");
                mix_results[i] =
                    multicore::runSharedLlc(mixStreams_[i], params_);
                return;
            }
            const size_t s = i - mixes.size();
            const Trace &trace = *selectStreams_[s].trace;
            const size_t warmup = warmupOf(trace, kWarmup);
            {
                Span span(hooks.tracer, "select.run");
                sel_results[s] =
                    select::runSelect(library_, select::SelectConfig{},
                                      sys_.hier.llc, trace, warmup,
                                      backend_);
            }
            Span span(hooks.tracer, "select.static_oracle");
            oracles[s] = hooks.tracer
                             ? staticOracle(trace, warmup, hooks.tracer)
                             : select::staticOracle(library_, sys_.hier.llc,
                                                    trace, warmup, backend_);
        });

        Output out;
        sharedAccesses_ = 0;
        repartitions_ = 0;
        switches_ = 0;
        driftResets_ = 0;
        for (size_t m = 0; m < mixes.size(); ++m) {
            const multicore::RunResult &r = mix_results[m];
            Digest d;
            fastpath::CounterBank sum;
            for (const multicore::CoreResult &c : r.cores) {
                d.str(c.workload).bank(c.stats.measured)
                    .bank(c.stats.total).bank(c.solo.measured)
                    .u64(c.stats.finalWinner);
                for (uint64_t v : c.stats.duelCounters)
                    d.u64(v);
                sum += c.stats.measured;
            }
            d.bank(r.measured).bank(r.total).u64(r.repartitions);
            for (unsigned w : r.wayCounts)
                d.u64(w);
            out.add("mix/" + mixes[m].name, d);
            out.require(sum == r.measured,
                        "per-core banks do not sum on " + mixes[m].name);
            out.require(r.total.hits + r.total.misses == r.total.accesses,
                        "hits + misses != accesses on " + mixes[m].name);
            sharedAccesses_ += r.total.accesses;
            repartitions_ += r.repartitions;
        }
        for (size_t s = 0; s < sel_results.size(); ++s) {
            const select::SelectResult &r = sel_results[s];
            Digest d;
            d.bank(r.measured).bank(r.total).u64(r.switches)
                .u64(r.driftResets);
            for (const select::EpochRecord &e : r.timeline)
                d.u64(e.chosen).u64(e.drift).u64(e.demandMisses);
            for (size_t a = 0; a < r.arms.size(); ++a)
                d.u64(r.epochsChosen[a]).u64(r.shadowDemandMisses[a]);
            for (const select::StaticOracleRow &row : oracles[s])
                d.str(row.name).bank(row.measured);
            out.add("select/" + phaseShift_[s], d);
            uint64_t epochs = 0, accesses = 0;
            for (uint64_t e : r.epochsChosen)
                epochs += e;
            for (const select::EpochRecord &e : r.timeline)
                accesses += e.accesses;
            out.require(epochs == r.timeline.size() &&
                            accesses == r.total.accesses,
                        "selector timeline inconsistent on " +
                            phaseShift_[s]);
            switches_ += r.switches;
            driftResets_ += r.driftResets;
        }
        return out;
    }

    void
    setupLayers(const Hooks &hooks, Layers &out) const override
    {
        double llc = 0.0;
        for (const auto &streams : mixStreams_)
            for (const multicore::CoreStream &s : streams)
                llc += static_cast<double>(s.trace->size()) / 1e6;
        for (const multicore::CoreStream &s : selectStreams_)
            llc += static_cast<double>(s.trace->size()) / 1e6;
        out["workloads.materialize_s"] = hooks.phase("materialize");
        out["workloads.cpu_mrefs"] = cpuMrefs_;
        out["cache.filter_s"] = hooks.phase("llc_filter");
        out["cache.filter_mrefs_per_s"] =
            ratio(cpuMrefs_, hooks.phase("llc_filter"));
        out["cache.llc_maccesses"] = llc;
        out["trace_cache.hits"] = static_cast<double>(cache_->hits());
        out["trace_cache.misses"] = static_cast<double>(cache_->misses());
    }

    void
    bodyLayers(const Hooks &hooks, Layers &out) const override
    {
        uint64_t fast_accesses = 0;
        size_t fast_arms = 0;
        for (const PolicyDef &p : library_)
            fast_arms += p.fastSpec ? 1 : 0;
        for (const multicore::CoreStream &s : selectStreams_)
            fast_accesses += s.trace->size() * fast_arms;
        const double replay_s = hooks.span("fastpath.replay");
        const double run_s = hooks.span("multicore.run");
        out["fastpath.replay_s"] = replay_s;
        out["fastpath.replay_maccess_per_s"] =
            ratio(static_cast<double>(fast_accesses) / 1e6, replay_s);
        out["policies.scalar_replay_s"] =
            hooks.span("policies.scalar_replay");
        out["multicore.run_s"] = run_s;
        out["multicore.maccess_per_s"] =
            ratio(static_cast<double>(sharedAccesses_) / 1e6, run_s);
        out["multicore.repartitions"] = static_cast<double>(repartitions_);
        out["select.run_s"] = hooks.span("select.run");
        out["select.static_oracle_s"] = hooks.span("select.static_oracle");
        out["select.switches"] = static_cast<double>(switches_);
        out["select.drift_resets"] = static_cast<double>(driftResets_);
    }

    std::vector<const Trace *>
    replayTraces() const override
    {
        std::vector<const Trace *> out;
        for (const multicore::CoreStream &s : selectStreams_)
            out.push_back(s.trace.get());
        return out;
    }

    const SyntheticSuite &suite() const override { return suite_; }

    void
    describe(JsonValue &cfg) const override
    {
        JsonValue mc = JsonValue::object();
        mc.set("policy", JsonValue("4-DGIPPR"));
        mc.set("duel_scope",
               JsonValue(multicore::duelScopeName(params_.duelScope)));
        mc.set("partition", JsonValue("utility"));
        mc.set("cores", JsonValue(static_cast<uint64_t>(kCores)));
        cfg.set("multicore", std::move(mc));
        JsonValue sel = JsonValue::object();
        sel.set("library", JsonValue(select::libraryName(library_)));
        sel.set("backend", JsonValue(select::backendName(backend_)));
        cfg.set("select", std::move(sel));
    }

  private:
    static constexpr size_t kCores = 4;
    static constexpr double kWarmup = 1.0 / 3.0;

    const WorkloadSpec &
    resolve(const std::string &name) const
    {
        for (const auto &spec : suite_.specs())
            if (spec.name == name)
                return spec;
        for (const auto &spec : extraSpecs_)
            if (spec.name == name)
                return spec;
        throw std::runtime_error("unknown workload " + name);
    }

    /**
     * First simpoint's filtered stream, formed as buildCoreStreams
     * forms it, with the trace-cache lookup in a layer span and its
     * phases in the repetition's PhaseTimings.
     */
    multicore::CoreStream
    stream(const multicore::TenantSpec &tenant, const Hooks &hooks)
    {
        const WorkloadSpec &spec = resolve(tenant.workload);
        const uint64_t misses = cache_->misses();
        std::shared_ptr<const LlcTraceCache::Entries> entries;
        {
            Span span(hooks.tracer, "trace_cache.get");
            entries = cache_->get(spec, sys_.hier, hooks.timings);
        }
        if (cache_->misses() != misses)
            cpuMrefs_ += static_cast<double>(cpuRefs(spec)) / 1e6;
        const LlcTraceCache::Entry &e = entries->front();
        return {tenant.workload, e.demandTrace, e.instructions,
                tenant.weight};
    }

    /** select::staticOracle's replays (fast backend, one shard),
     *  each in a layer span. */
    std::vector<select::StaticOracleRow>
    staticOracle(const Trace &trace, size_t warmup, Tracer *tracer) const
    {
        const fastpath::FastReplayEngine engine(1);
        std::vector<select::StaticOracleRow> rows;
        for (const PolicyDef &def : library_)
            rows.push_back({def.name, replayMeasured(def, sys_.hier.llc,
                                                     trace, warmup, engine,
                                                     tracer)});
        return rows;
    }

    SystemParams sys_ = systemParams();
    SyntheticSuite suite_;
    unsigned threads_;
    std::vector<PolicyDef> library_;
    std::vector<WorkloadSpec> extraSpecs_;
    std::vector<std::string> phaseShift_;
    multicore::RunParams params_;
    select::Backend backend_ = select::Backend::Fast;
    std::unique_ptr<LlcTraceCache> cache_;
    double cpuMrefs_ = 0.0;
    std::vector<std::vector<multicore::CoreStream>> mixStreams_;
    std::vector<multicore::CoreStream> selectStreams_;
    uint64_t sharedAccesses_ = 0;
    uint64_t repartitions_ = 0;
    uint64_t switches_ = 0;
    uint64_t driftResets_ = 0;
};

std::unique_ptr<Bench>
makeBench(const std::string &name, uint64_t seed, unsigned threads)
{
    if (name == "miss_sweep")
        return std::make_unique<MissSweep>(seed, threads);
    if (name == "ga_search")
        return std::make_unique<GaSearch>(seed, threads);
    if (name == "full_system")
        return std::make_unique<FullSystem>(seed, threads);
    if (name == "shared_select")
        return std::make_unique<SharedSelect>(seed, threads);
    throw std::runtime_error("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned setupReps = 3;
    unsigned minReps = 3;
    std::string out;
    /** expected.json; outputs of seeds it records compare exactly. */
    std::string expected;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed") {
            o.seed = std::stoull(value());
            have_seed = true;
        } else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (arg == "--setup-reps")
            o.setupReps = static_cast<unsigned>(std::stoul(value()));
        else if (arg == "--min-reps")
            o.minReps = static_cast<unsigned>(std::stoul(value()));
        else if (arg == "--out")
            o.out = value();
        else if (arg == "--expected")
            o.expected = value();
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    if (o.workload.empty() || !have_seed || o.out.empty())
        throw std::runtime_error(
            "usage: perfbench --workload W --seed N --out PATH "
            "[--seconds S] [--trace 0|1] [--expected PATH] "
            "[--setup-reps K] [--min-reps M]");
    if (o.setupReps == 0 || o.minReps == 0)
        throw std::runtime_error("--setup-reps and --min-reps must be >= 1");
    return o;
}

/** Knobs the library reads from GIPPR_* variables would change what
 *  is measured, silently; refuse to run under any of them. */
void
refuseGipprEnvironment()
{
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "GIPPR_", 6) == 0)
            throw std::runtime_error(
                std::string("refusing to run with ") + *e +
                " set: GIPPR_* variables change what is measured");
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

JsonValue
configJson(const Options &o, unsigned threads, unsigned nproc,
           const Bench &w)
{
    const fastpath::ReplayEngine &engine = fastpath::defaultReplayEngine();
    const auto *fast =
        dynamic_cast<const fastpath::FastReplayEngine *>(&engine);
    JsonValue cfg = JsonValue::object();
    cfg.set("workload", JsonValue(o.workload));
    cfg.set("seed", JsonValue(std::to_string(o.seed)));
    cfg.set("accesses_per_simpoint",
            JsonValue(w.suite().params().accessesPerSimpoint));
    cfg.set("replay_backend", JsonValue(engine.name()));
    cfg.set("replay_kernel",
            JsonValue(std::string(fastpath::replayKernelName(
                fastpath::activeReplayKernel()))));
    cfg.set("replay_shards",
            JsonValue(static_cast<uint64_t>(fast ? fast->shards() : 1)));
    cfg.set("threads", JsonValue(static_cast<uint64_t>(threads)));
    cfg.set("nproc", JsonValue(static_cast<uint64_t>(nproc)));
    cfg.set("hardware_threads",
            JsonValue(static_cast<uint64_t>(resolveThreads(0))));
    cfg.set("avx2", JsonValue(__builtin_cpu_supports("avx2") != 0));
    cfg.set("avx512bw", JsonValue(__builtin_cpu_supports("avx512bw") != 0));
    cfg.set("traced", JsonValue(o.trace));
    w.describe(cfg);
    return cfg;
}

JsonValue
toJson(const std::vector<double> &v)
{
    JsonValue a = JsonValue::array();
    for (double x : v)
        a.push(JsonValue(x));
    return a;
}

/**
 * Digests recorded in @p path (perfbench/expected.json) for
 * @p workload at @p seed; empty when the file records none for them.
 */
std::map<std::string, std::string>
loadExpected(const std::string &path, const std::string &workload,
             const std::string &seed)
{
    std::map<std::string, std::string> out;
    if (path.empty())
        return out;
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << is.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const JsonValue &all = doc.at("workloads");
    if (!all.has(workload) || !all.at(workload).at("seeds").has(seed))
        return out;
    const JsonValue &names = all.at(workload).at("items");
    const JsonValue &digests = all.at(workload).at("seeds").at(seed);
    if (names.size() != digests.size())
        throw std::runtime_error(path + ": digest count of " + workload +
                                 " seed " + seed + " differs from its items");
    for (size_t i = 0; i < names.size(); ++i)
        out[names.at(i).asString()] = digests.at(i).asString();
    return out;
}

/** Hooks for one repetition; the repetition is traced when @p on. */
struct RepHooks
{
    telemetry::PhaseTimings timings;
    telemetry::MetricRegistry registry;
    Hooks hooks;

    RepHooks(Tracer &tracer, bool on)
    {
        if (!on)
            return;
        hooks.tracer = &tracer;
        hooks.timings = &timings;
        hooks.registry = &registry;
        hooks.mark = tracer.mark();
    }
};

/** Times of one repetition plus, when traced, its span coverage. */
struct RepTime
{
    double wall = 0.0;
    double covered = 0.0;
};

int
run(const Options &o)
{
    refuseGipprEnvironment();
    const unsigned nproc = onlineCpus();
    const unsigned threads = std::clamp(nproc / 2, 1u, kMaxThreads);
    std::unique_ptr<Bench> w = makeBench(o.workload, o.seed, threads);

    Tracer tracer;
    // Traced runs alternate traced and untraced repetitions so the
    // tracing overhead is measured against an untraced median of the
    // same process.  Untraced repetitions call the library's entry
    // points; traced ones the benchmark's span-timed rebuild of them.
    // The last set-up is traced, so the check of every body covers
    // both set-up paths (an untraced run covers the untraced one) and
    // both body paths.
    auto traced_setup = [&](unsigned rep) { return o.trace && rep % 2; };
    auto traced = [&](unsigned rep) { return o.trace && rep % 2 == 0; };
    auto timed = [&](const char *root, RepHooks &rh, auto &&fn) {
        RepTime t;
        const auto t0 = Clock::now();
        {
            Span span(rh.hooks.tracer, root);
            fn();
        }
        t.wall = secondsSince(t0);
        if (rh.hooks.tracer)
            t.covered = tracer.coveredSeconds(rh.hooks.mark);
        return t;
    };

    std::vector<Layers> setup_layers, body_layers;
    std::vector<RepTime> setup_t[2], body_t[2]; // [untraced, traced]
    // Set-up repeats at least setupReps times and for a quarter of the
    // body's time, so short set-ups still yield a steady median.
    const unsigned setup_reps = o.trace ? 2 * o.setupReps : o.setupReps;
    const auto setup_start = Clock::now();
    for (unsigned rep = 0; rep < setup_reps ||
                           secondsSince(setup_start) < o.seconds / 4 ||
                           traced_setup(rep);
         ++rep) {
        RepHooks rh(tracer, traced_setup(rep));
        setup_t[traced_setup(rep)].push_back(
            timed("setup", rh, [&] { w->setup(rh.hooks); }));
        if (traced_setup(rep)) {
            Layers l;
            w->setupLayers(rh.hooks, l);
            setup_layers.push_back(std::move(l));
        }
    }

    // A repetition that throws is one failed check; the others go on.
    std::vector<Output> outputs;
    std::vector<std::string> failures;
    uint64_t attempted = 0;
    const unsigned min_reps = o.trace ? 2 * o.minReps : o.minReps;
    const auto body_start = Clock::now();
    for (unsigned rep = 0;
         rep < min_reps || secondsSince(body_start) < o.seconds; ++rep) {
        RepHooks rh(tracer, traced(rep));
        try {
            body_t[traced(rep)].push_back(timed(
                "body", rh, [&] { outputs.push_back(w->body(rh.hooks)); }));
        } catch (const std::exception &e) {
            ++attempted;
            failures.push_back("rep " + std::to_string(rep) +
                               " threw: " + e.what());
            continue;
        }
        if (traced(rep)) {
            Layers l;
            w->bodyLayers(rh.hooks, l);
            body_layers.push_back(std::move(l));
        }
    }
    if (outputs.empty())
        throw std::runtime_error("every repetition threw: " +
                                 failures.front());

    JsonValue result = JsonValue::object();
    result.set("config", configJson(o, threads, nproc, *w));

    auto walls = [](const std::vector<RepTime> &v) {
        std::vector<double> out;
        for (const RepTime &t : v)
            out.push_back(t.wall);
        return out;
    };
    const unsigned slot = o.trace ? 1 : 0;
    result.set("setup_s", toJson(walls(setup_t[slot])));
    result.set("run_s", toJson(walls(body_t[slot])));
    result.set("peak_rss_mb", JsonValue(peakRssMb()));

    // Each output item of each repetition is one checked operation,
    // and so is each repetition's set of invariants.  Items compare
    // exactly with the digests recorded for the seed when there are
    // some, otherwise with the first repetition's.
    const std::string seed = std::to_string(o.seed);
    const std::map<std::string, std::string> recorded =
        loadExpected(o.expected, o.workload, seed);
    const std::map<std::string, std::string> reference =
        recorded.empty()
            ? std::map<std::string, std::string>(
                  outputs.front().items.begin(),
                  outputs.front().items.end())
            : recorded;
    const std::string against =
        recorded.empty() ? "the first repetition"
                         : "the digest recorded for seed " + seed;
    for (size_t r = 0; r < outputs.size(); ++r) {
        const std::string rep = "rep " + std::to_string(r) + ": ";
        const std::map<std::string, std::string> got(
            outputs[r].items.begin(), outputs[r].items.end());
        for (const auto &[name, digest] : reference) {
            ++attempted;
            auto it = got.find(name);
            if (it == got.end())
                failures.push_back(rep + name + " missing");
            else if (it->second != digest)
                failures.push_back(rep + name + " differs from " + against);
        }
        for (const auto &[name, digest] : got)
            if (!reference.count(name)) {
                ++attempted;
                failures.push_back(rep + name + " has no reference");
            }
        ++attempted;
        if (!outputs[r].violations.empty()) {
            std::string all = rep + "invariants violated:";
            for (const std::string &v : outputs[r].violations)
                all += " [" + v + "]";
            failures.push_back(all);
        }
    }
    JsonValue items = JsonValue::object();
    for (const auto &[name, digest] : outputs.front().items)
        items.set(name, JsonValue(digest));
    result.set("items", std::move(items));
    result.set("check", JsonValue(recorded.empty() ? "repeatability"
                                                   : "expected"));
    result.set("attempted", JsonValue(attempted));
    JsonValue failed = JsonValue::array();
    for (const std::string &f : failures)
        failed.push(JsonValue(f));
    result.set("failures", std::move(failed));

    if (o.trace) {
        Layers merged;
        for (const std::string &name : layerNames())
            merged[name] = 0.0;
        auto fold = [&merged](const std::vector<Layers> &reps) {
            std::map<std::string, std::vector<double>> by_name;
            for (const Layers &l : reps)
                for (const auto &[k, v] : l)
                    by_name[k].push_back(v);
            for (const auto &[k, v] : by_name) {
                if (!merged.count(k))
                    throw std::runtime_error("undeclared layer metric " + k);
                merged[k] = median(v);
            }
        };
        fold(setup_layers);
        fold(body_layers);
        const std::vector<const Trace *> traces = w->replayTraces();
        if (!traces.empty()) {
            const CacheConfig llc = CacheConfig::benchLlc();
            merged["fastpath.replay_shard1_maccess_per_s"] =
                shardedReplayMaccessPerS(1, llc, traces);
            merged["fastpath.replay_shardN_maccess_per_s"] =
                shardedReplayMaccessPerS(nproc, llc, traces);
        }
        JsonValue layers = JsonValue::object();
        for (const auto &[k, v] : merged)
            layers.set(k, JsonValue(v));
        result.set("layers", std::move(layers));

        auto wall_of = [&](int t) {
            return median(walls(setup_t[t])) + median(walls(body_t[t]));
        };
        result.set("tracing_overhead_frac",
                   JsonValue(wall_of(1) / wall_of(0) - 1.0));
        double covered = 0.0, wall = 0.0;
        for (const auto *v : {&setup_t[1], &body_t[1]})
            for (const RepTime &t : *v) {
                covered += t.covered;
                wall += t.wall;
            }
        result.set("span_coverage_frac", JsonValue(ratio(covered, wall)));
    }

    std::ofstream os(o.out);
    os << result.dump(2) << "\n";
    if (!os)
        throw std::runtime_error("cannot write " + o.out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
