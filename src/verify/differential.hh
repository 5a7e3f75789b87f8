/**
 * @file
 * Differential policy checking: production policy vs. reference oracle.
 *
 * A DifferentialChecker is itself a ReplacementPolicy that wraps the
 * policy under test and its reference oracle.  Installed into a real
 * SetAssocCache, it forwards every event to both models and, after
 * each state-changing event, compares the full per-set recency state
 * (and any auxiliary global state such as the duel winner).  Victim
 * choices are compared on every eviction.  The first divergence is
 * captured with the access index and both models' state dumps —
 * everything needed to reproduce the failing access — and further
 * comparison stops so the report stays readable.
 *
 * replayDifferential() drives a mirror through an access trace with
 * optional periodic invalidations (exercising the onInvalidate path
 * that workload replay alone never reaches).
 */

#ifndef GIPPR_VERIFY_DIFFERENTIAL_HH_
#define GIPPR_VERIFY_DIFFERENTIAL_HH_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cache/cache.hh"
#include "cache/replacement.hh"
#include "trace/trace.hh"
#include "verify/oracle.hh"

namespace gippr::verify
{

/** First point where the two models disagreed. */
struct Divergence
{
    /** Events processed before the divergence (0-based index). */
    uint64_t eventIndex = 0;
    uint64_t set = 0;
    /** What disagreed: "victim", "positions" or "aux". */
    std::string kind;
    /** Side-by-side dump of both models. */
    std::string detail;

    std::string toString() const;
};

/** Reads way -> position state out of a production policy. */
using PositionProbe =
    std::function<std::vector<unsigned>(const ReplacementPolicy &,
                                        uint64_t set)>;

/**
 * The probe of any policy with a recency order: each of @p ways ways'
 * ReplacementPolicy::recencyPosition in the set.
 */
PositionProbe recencyProbe(unsigned ways);

/** Reads auxiliary global state ("" when none) out of a policy. */
using AuxProbe = std::function<std::string(const ReplacementPolicy &)>;

/** Policy-under-test + oracle, event-locked and compared. */
class DifferentialChecker : public ReplacementPolicy
{
  public:
    DifferentialChecker(std::unique_ptr<ReplacementPolicy> inner,
                        std::unique_ptr<ReferenceOracle> oracle,
                        PositionProbe probe, AuxProbe aux = {});

    unsigned victim(const AccessInfo &info) override;
    void onMiss(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;

    std::string name() const override;
    size_t stateBitsPerSet() const override;

    /** First disagreement, if any. */
    const std::optional<Divergence> &divergence() const
    {
        return divergence_;
    }

    /** Individual state comparisons performed. */
    uint64_t comparisons() const { return comparisons_; }

    /** Events (victim/miss/insert/hit/invalidate) processed. */
    uint64_t events() const { return events_; }

    const ReplacementPolicy &inner() const { return *inner_; }
    const ReferenceOracle &oracle() const { return *oracle_; }

  private:
    /** Compare per-set positions (+ aux state) after an event. */
    void compareState(uint64_t set);

    void recordDivergence(uint64_t set, const std::string &kind,
                          const std::string &detail);

    std::unique_ptr<ReplacementPolicy> inner_;
    std::unique_ptr<ReferenceOracle> oracle_;
    PositionProbe probe_;
    AuxProbe aux_;
    std::optional<Divergence> divergence_;
    uint64_t comparisons_ = 0;
    uint64_t events_ = 0;
};

/**
 * Mirror registry: builds a production policy + matching oracle pair
 * by name.  Supported names: LRU, LIP, GIPLR, PLRU, GIPPR, DGIPPR2,
 * DGIPPR4.  At 16 ways the IPV-driven mirrors use the locally evolved
 * vectors; at other associativities a deterministic nontrivial vector
 * is synthesized so every geometry is checkable.
 */
std::unique_ptr<DifferentialChecker>
makeMirror(const std::string &policy, const CacheConfig &config);

/** Names makeMirror accepts, in canonical order. */
std::vector<std::string> mirrorNames();

/** Replay knobs. */
struct ReplayOptions
{
    /** Invalidate a recently touched block every N demand accesses
     *  (0 disables); exercises the onInvalidate path. */
    uint64_t invalidateEvery = 0;
    /** Seed for choosing which block to invalidate. */
    uint64_t invalidateSeed = 0x1234;
};

/** Outcome of one differential replay. */
struct DifferentialResult
{
    std::string policy;
    std::string stream;
    uint64_t accesses = 0;
    uint64_t invalidates = 0;
    uint64_t comparisons = 0;
    std::optional<Divergence> divergence;

    bool ok() const { return !divergence.has_value(); }
};

/**
 * Replay @p trace through a checker-wrapped cache of geometry
 * @p config.  The checker's first divergence (if any) is returned in
 * the result; the replay itself always completes.
 */
DifferentialResult
replayDifferential(const std::string &policy, const CacheConfig &config,
                   const Trace &trace, const ReplayOptions &opts = {});

} // namespace gippr::verify

#endif // GIPPR_VERIFY_DIFFERENTIAL_HH_
