/**
 * @file
 * Lock-step equivalence oracle: scalar simulator vs fast replay model.
 *
 * The fast backend's headline guarantee is access-for-access equality
 * with the scalar simulator: same hits, same fill ways, same victims,
 * same writeback decisions, same duel outcomes.  Engine-level tests
 * can only compare final counters; this oracle drives one
 * SetAssocCache (with the spec's production policy) and one
 * SoaCacheModel through the same access stream and compares the
 * outcome of EVERY access, plus the full per-set replacement state
 * (recency positions, RRPVs, or PDP protection and reuse bits) and
 * the duel state (Dgippr, DRRIP) at a configurable cadence.  The
 * first divergence is captured with the access index and a
 * side-by-side dump of both models' set state — everything needed to
 * reproduce the failing access — reusing the differential harness's
 * Divergence record.
 *
 * Streams can be fed back-to-back through one oracle; state carries
 * over, exactly as it would across the phases of a real trace.
 */

#ifndef GIPPR_VERIFY_FASTPATH_ORACLE_HH_
#define GIPPR_VERIFY_FASTPATH_ORACLE_HH_

#include <optional>
#include <string>

#include "cache/cache.hh"
#include "sim/fastpath/soa_cache.hh"
#include "trace/trace.hh"
#include "verify/differential.hh"

namespace gippr::verify
{

/** Outcome of one lock-step replay. */
struct FastpathResult
{
    std::string policy;
    std::string stream;
    uint64_t accesses = 0;
    uint64_t comparisons = 0;
    std::optional<Divergence> divergence;

    bool ok() const { return !divergence.has_value(); }
    std::string toString() const;
};

/** Scalar SetAssocCache and SoaCacheModel, event-locked and compared. */
class FastpathOracle
{
  public:
    FastpathOracle(const fastpath::ReplaySpec &spec,
                   const CacheConfig &config);

    /**
     * Replay @p trace through both models.  Per-access outcomes are
     * compared on every access; full per-set line state (and the duel
     * state) every @p state_check_every accesses and once at the end.
     * Comparison stops at the first divergence; the replay completes
     * either way so final counters remain meaningful.
     */
    FastpathResult run(const Trace &trace, const std::string &stream,
                       uint64_t state_check_every = 997);

    const fastpath::SoaCacheModel &model() const { return model_; }
    const SetAssocCache &scalar() const { return scalar_; }

  private:
    /** Side-by-side dump of set @p set in both models. */
    std::string dumpBoth(uint64_t set) const;

    /** The scalar twin of SoaCacheModel::lineState(@p set). */
    std::vector<unsigned> scalarLineState(uint64_t set) const;

    /** Empty when both duel states (scalarDuelStats / duelStats)
     *  agree, else a rendering of the two. */
    std::string duelMismatch() const;

    void record(FastpathResult &result, uint64_t index, uint64_t set,
                const std::string &kind, const std::string &detail);

    void compareState(FastpathResult &result, uint64_t index,
                      uint64_t set);

    fastpath::ReplaySpec spec_;
    CacheConfig config_;
    SetAssocCache scalar_;
    fastpath::SoaCacheModel model_;
    uint64_t accessesSoFar_ = 0;
};

} // namespace gippr::verify

#endif // GIPPR_VERIFY_FASTPATH_ORACLE_HH_
