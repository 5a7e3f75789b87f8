/**
 * @file
 * LlcTraceCache implementation.
 */

#include "sim/trace_cache.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>

#include <unistd.h>

#include "util/check.hh"
#include "util/rng.hh"

namespace gippr
{

namespace
{

/**
 * CPU records generated per chunk.  A chunk (48 KB) stays in the host's
 * caches between the generator writing it and the cascade reading it.
 */
constexpr size_t kChunkRecords = 2048;

/** Chunks in flight between the generator and the cascade. */
constexpr size_t kRingChunks = 4;

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

/** Records in the chunk that starts @p done records into a simpoint. */
size_t
chunkRecords(const SimpointSpec &sp, uint64_t done)
{
    return static_cast<size_t>(
        std::min<uint64_t>(kChunkRecords, sp.accesses - done));
}

/**
 * A thread that runs one generator stage at a time, with its chunk
 * ring, and parks between them.  Helpers live until the process
 * exits, each keeping the malloc arena it first allocated from.  A helper
 * started and joined per build handed its arena back on exit, the
 * next set-up's workers took such arenas up, and the demand traces
 * they build spread over twice the arenas: the reproduction
 * benchmark's miss_sweep, which rebuilds its traces every repetition,
 * peaked at 500-570 MB instead of 320 MB.
 */
class Helper
{
  public:
    Helper() : thread_([this] { loop(); }) {}

    ~Helper()
    {
        quit_ = true;
        go_.release();
        thread_.join();
    }

    Helper(const Helper &) = delete;
    Helper &operator=(const Helper &) = delete;

    /** Run @p job on the helper thread; wait() returns once it has. */
    void
    start(std::function<void()> job)
    {
        job_ = std::move(job);
        go_.release();
    }

    void wait() { done_.acquire(); }

    /** Chunk ring of the stage the helper runs. */
    std::vector<MemRecord> ring =
        std::vector<MemRecord>(kRingChunks * kChunkRecords);

  private:
    void
    loop()
    {
        for (;;) {
            go_.acquire();
            if (quit_)
                return;
            job_();
            done_.release();
        }
    }

    /** Written by the owner before it posts go_. */
    std::function<void()> job_;
    bool quit_ = false;
    std::binary_semaphore go_{0};
    std::binary_semaphore done_{0};
    /** Started last, once the members it uses exist. */
    std::thread thread_;
};

/**
 * Every helper the process started, never more than the most builds
 * that ran at once; the idle ones park until a build takes them.  The
 * pool joins its helpers at exit.  A forked child has none of its
 * parent's threads, so it forgets the parent's helpers (leaking them)
 * instead of handing them builds or joining them.
 */
class HelperPool
{
  public:
    static HelperPool &
    instance()
    {
        static HelperPool pool;
        return pool;
    }

    ~HelperPool()
    {
        std::lock_guard<std::mutex> lock(mu_);
        forgetIfForked();
    }

    Helper &
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        forgetIfForked();
        if (idle_.empty()) {
            helpers_.push_back(std::make_unique<Helper>());
            return *helpers_.back();
        }
        Helper &helper = *idle_.back();
        idle_.pop_back();
        return helper;
    }

    void
    release(Helper &helper)
    {
        std::lock_guard<std::mutex> lock(mu_);
        idle_.push_back(&helper);
    }

  private:
    void
    forgetIfForked()
    {
        if (pid_ == ::getpid())
            return;
        pid_ = ::getpid();
        for (std::unique_ptr<Helper> &helper : helpers_)
            (void)helper.release();
        helpers_.clear();
        idle_.clear();
    }

    /** Guards the members below. */
    std::mutex mu_;
    std::vector<std::unique_ptr<Helper>> helpers_;
    std::vector<Helper *> idle_;
    /** The process the helpers were started in. */
    pid_t pid_ = ::getpid();
};

/**
 * The generator stage of a build: a helper thread runs every
 * simpoint's generator, in simpoint order, into a ring of kRingChunks
 * chunks that the calling thread's cascade reads in the same order, so
 * chunk k of the build always sits in slot k % kRingChunks.  free_
 * counts the slots the generator may fill and filled_ the slots the
 * cascade may read.
 *
 * A failing stage stops the other.  The generator publishes its
 * exception and posts one filled count, on which the cascade's
 * nextChunk() waits for the helper to finish and rethrows; a cascade
 * that throws unwinds through the destructor, which raises stop_,
 * posts one free count and waits for the helper.  Each semaphore holds
 * one count beyond the ring for that wake-up.
 */
class GeneratorStage
{
  public:
    explicit GeneratorStage(const std::vector<SimpointSpec> &simpoints)
        : helper_(HelperPool::instance().acquire())
    {
        helper_.start([this, &simpoints] { run(simpoints); });
    }

    ~GeneratorStage()
    {
        if (running_) {
            stop_.store(true, std::memory_order_release);
            free_.release();
            helper_.wait();
        }
        HelperPool::instance().release(helper_);
    }

    GeneratorStage(const GeneratorStage &) = delete;
    GeneratorStage &operator=(const GeneratorStage &) = delete;

    /** The next filled chunk; rethrows the generator's exception. */
    const MemRecord *
    nextChunk()
    {
        filled_.acquire();
        if (failed_.load(std::memory_order_acquire))
            finish();
        return slot(read_++);
    }

    /** Hand the chunk nextChunk() returned back to the generator. */
    void doneWithChunk() { free_.release(); }

    /**
     * Wait for the helper to finish the stage and return the
     * generator's busy seconds; rethrows the generator's exception.
     */
    double
    finish()
    {
        helper_.wait();
        running_ = false;
        if (error_)
            std::rethrow_exception(error_);
        return seconds_;
    }

  private:
    MemRecord *
    slot(uint64_t chunk)
    {
        return helper_.ring.data() + (chunk % kRingChunks) * kChunkRecords;
    }

    void
    run(const std::vector<SimpointSpec> &simpoints)
    {
        try {
            uint64_t written = 0;
            for (const SimpointSpec &sp : simpoints) {
                const std::unique_ptr<AccessGenerator> gen = sp.make();
                Rng rng(sp.seed);
                for (uint64_t done = 0; done < sp.accesses;) {
                    const size_t n = chunkRecords(sp, done);
                    free_.acquire();
                    if (stop_.load(std::memory_order_acquire))
                        return;
                    const Clock::time_point start = Clock::now();
                    MemRecord *chunk = slot(written++);
                    for (size_t i = 0; i < n; ++i)
                        chunk[i] = gen->next(rng);
                    seconds_ += Seconds(Clock::now() - start).count();
                    filled_.release();
                    done += n;
                }
            }
        } catch (...) {
            error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
            filled_.release();
        }
    }

    std::counting_semaphore<kRingChunks + 1> free_{kRingChunks};
    std::counting_semaphore<kRingChunks + 1> filled_{0};
    /** Raised by a failing cascade; the generator stops at its next chunk. */
    std::atomic<bool> stop_{false};
    /** Raised once error_ holds the generator's exception. */
    std::atomic<bool> failed_{false};
    /** Helper-thread state, read by the caller only after finish(). */
    std::exception_ptr error_;
    double seconds_ = 0.0;
    /** Chunks the cascade has taken (calling thread only). */
    uint64_t read_ = 0;
    /** Whether the helper may still touch this stage. */
    bool running_ = true;
    Helper &helper_;
};

/**
 * One simpoint's demand-only LLC trace: @p gen's chunks streamed
 * through a fresh L1/L2 and an LlcRecorder that drops writebacks.  The
 * result equals demandOnlyTrace(filterToLlc(materialize(...))) record
 * for record, without the CPU trace or the full LLC stream ever being
 * held.  @p seconds receives the cascade's busy time.
 */
LlcTraceCache::Entry
filterSimpoint(const SimpointSpec &sp, const HierarchyConfig &hier,
               GeneratorStage &gen, double &seconds)
{
    Hierarchy cascade(hier);
    auto demand = std::make_shared<Trace>();
    demand->reserve(sp.accesses);
    LlcRecorder record(*demand, /*keep_writebacks=*/false);
    uint64_t instructions = 0;
    for (uint64_t done = 0; done < sp.accesses;) {
        const size_t n = chunkRecords(sp, done);
        const MemRecord *chunk = gen.nextChunk();
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < n; ++i) {
            instructions += chunk[i].instGap;
            record.addGap(chunk[i].instGap);
            cascade.access(chunk[i], record);
        }
        seconds += Seconds(Clock::now() - start).count();
        gen.doneWithChunk();
        done += n;
    }
    return {std::move(demand), instructions, sp.weight};
}

void
appendGeometry(std::string &key, const CacheConfig &config)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%llu/%u/%u",
                  static_cast<unsigned long long>(config.sizeBytes),
                  config.assoc, config.blockBytes);
    key += buf;
}

} // namespace

std::string
LlcTraceCache::keyOf(const WorkloadSpec &spec, const HierarchyConfig &hier)
{
    std::string key = spec.name;
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "@%llu",
                      static_cast<unsigned long long>(spec.capacityBlocks));
        key += buf;
    }
    for (const SimpointSpec &sp : spec.simpoints) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "|%llu:%llu:%.17g",
                      static_cast<unsigned long long>(sp.seed),
                      static_cast<unsigned long long>(sp.accesses),
                      sp.weight);
        key += buf;
    }
    // The build reads only the L1 and L2 (Hierarchy leaves the LLC to
    // its caller), so every LLC geometry shares one entry.
    appendGeometry(key, hier.l1);
    appendGeometry(key, hier.l2);
    return key;
}

std::shared_ptr<const LlcTraceCache::Entries>
LlcTraceCache::get(const WorkloadSpec &spec, const HierarchyConfig &hier,
                   telemetry::PhaseTimings *timings)
{
    const std::string key = keyOf(spec, hier);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
    }

    // Build outside the lock so concurrent workers make progress; a
    // rare duplicate build for the same key is benign (the first
    // published entry wins and both are equivalent).  An exception in
    // either stage leaves get() before anything is published.
    for (const SimpointSpec &sp : spec.simpoints) {
        // Workload::addSimpoint's condition, which materializing checks.
        GIPPR_CHECK(sp.weight > 0.0);
    }
    auto entries = std::make_shared<Entries>();
    entries->reserve(spec.simpoints.size());
    std::vector<double> filter(spec.simpoints.size());
    double generate = 0.0;
    {
        GeneratorStage gen(spec.simpoints);
        for (size_t i = 0; i < spec.simpoints.size(); ++i)
            entries->push_back(
                filterSimpoint(spec.simpoints[i], hier, gen, filter[i]));
        generate = gen.finish();
    }
    if (timings) {
        // One "materialize" per build and one "llc_filter" per
        // simpoint, the counts of the materialize-then-filter build;
        // each is its stage's busy thread-seconds.
        timings->record("materialize", generate);
        for (double s : filter)
            timings->record("llc_filter", s);
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.emplace(key, std::move(entries));
    (void)inserted;
    return it->second;
}

uint64_t
LlcTraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
LlcTraceCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

} // namespace gippr
