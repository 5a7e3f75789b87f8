/**
 * @file
 * Interval-style out-of-order CPU model.
 *
 * Stands in for the paper's CMP$im configuration (4-wide, 8-stage,
 * 128-entry instruction window, 200-cycle DRAM).  The model charges
 * issue bandwidth for the instruction gaps between memory references
 * and tracks outstanding long-latency accesses: an access can start as
 * soon as issue reaches it, but the window stalls when the oldest
 * outstanding access falls more than the ROB size behind — giving the
 * first-order memory-level-parallelism behaviour that distinguishes
 * overlapping misses from serialized ones.  A finite MSHR pool bounds
 * outstanding misses.
 *
 * This is the fidelity class the paper itself uses: CMP$im is "accurate
 * to within 4% of a detailed cycle-accurate simulator", and the GA
 * fitness model ignores MLP entirely.
 *
 * step() runs once per CPU reference, so it is inline: the outstanding
 * accesses live in a fixed power-of-two ring indexed by mask, and the
 * per-level latencies in a table indexed by HitLevel.
 */

#ifndef GIPPR_SIM_CPU_MODEL_HH_
#define GIPPR_SIM_CPU_MODEL_HH_

#include <cstdint>
#include <vector>

#include "sim/fastpath/hierarchy.hh"

namespace gippr
{

/** CPU model parameters (defaults follow the paper's Section 4.5). */
struct CpuParams
{
    /** Issue width, instructions per cycle. */
    unsigned width = 4;
    /** Instruction window (ROB) size. */
    unsigned robSize = 128;
    /** Outstanding-miss registers. */
    unsigned mshrs = 16;
    /** Extra cycles for an L2 hit (beyond pipelined L1). */
    double latL2 = 12.0;
    /** Extra cycles for an LLC hit. */
    double latLlc = 35.0;
    /** Extra cycles for DRAM (the paper's 200-cycle latency). */
    double latMemory = 200.0;
};

/** Accumulated timing state for one simulated segment. */
class CpuModel
{
  public:
    /** A zero width or a zero MSHR count is fatal. */
    explicit CpuModel(CpuParams params = {});

    /**
     * Account one memory reference that hit at @p level after
     * @p inst_gap instructions of issue.
     */
    void step(uint32_t inst_gap, HitLevel level);

    /** Retire every outstanding access (end of segment). */
    void drain();

    /** Zero counters but keep in-flight state (post-warmup). */
    void clearStats();

    uint64_t instructions() const { return instructions_; }
    double cycles() const { return cycles_; }

    double
    ipc() const
    {
        return cycles_ > 0.0
                   ? static_cast<double>(instructions_) / cycles_
                   : 0.0;
    }

  private:
    /** One outstanding long-latency access. */
    struct Outstanding
    {
        uint64_t instIndex;   ///< instruction count when issued
        double completeCycle; ///< cycle its data returns
    };

    /** The @p i-th oldest outstanding access; at i == count_, the
     *  slot the next one fills. */
    Outstanding &
    inflight(uint32_t i)
    {
        return ring_[(head_ + i) & mask_];
    }

    void
    popOldest()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    CpuParams params_;
    /** Extra cycles per HitLevel (0 for the pipelined L1). */
    double latency_[4];
    double cycles_ = 0.0;
    uint64_t instructions_ = 0;
    uint64_t totalInstructions_ = 0; // includes pre-clearStats work
    /** Outstanding accesses, oldest at head_.  Its power-of-two size
     *  exceeds params_.mshrs, the most step() leaves outstanding. */
    std::vector<Outstanding> ring_;
    uint32_t mask_ = 0;
    uint32_t head_ = 0;
    uint32_t count_ = 0;
};

inline void
CpuModel::step(uint32_t inst_gap, HitLevel level)
{
    // Issue the intervening instructions at full width.
    instructions_ += inst_gap;
    totalInstructions_ += inst_gap;
    const double issue = static_cast<double>(inst_gap) /
                         static_cast<double>(params_.width);
    cycles_ += issue;

    // Window constraint: the access cannot issue while an outstanding
    // access older than robSize instructions is still pending.
    while (count_ != 0) {
        const Outstanding &oldest = inflight(0);
        const bool outside_window =
            totalInstructions_ - oldest.instIndex >
            static_cast<uint64_t>(params_.robSize);
        if (oldest.completeCycle <= cycles_) {
            popOldest();
        } else if (outside_window || count_ >= params_.mshrs) {
            // Stall until the blocking access returns.
            cycles_ = oldest.completeCycle;
            popOldest();
        } else {
            break;
        }
    }

    const double lat = latency_[static_cast<unsigned>(level)];
    if (lat > 0.0) {
        inflight(count_) = {totalInstructions_, cycles_ + lat};
        ++count_;
    }
}

} // namespace gippr

#endif // GIPPR_SIM_CPU_MODEL_HH_
