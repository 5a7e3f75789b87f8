/**
 * @file
 * In-memory memory-reference trace.
 */

#ifndef GIPPR_TRACE_TRACE_HH_
#define GIPPR_TRACE_TRACE_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace gippr
{

/**
 * A sequence of memory references plus bookkeeping totals.
 *
 * Traces are the interchange format between workload generators, the
 * hierarchy filter (which turns a CPU-level trace into an LLC-level
 * trace), the GA fitness function and the performance simulator.
 * Records are held by value, 24 bytes each (see MemRecord), so a trace
 * of N references holds 24N bytes plus the vector's slack.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::vector<MemRecord> records);

    /** Append one record, maintaining totals. */
    void append(const MemRecord &rec);

    /** Pre-allocate capacity. */
    void reserve(size_t n) { records_.reserve(n); }

    const std::vector<MemRecord> &records() const { return records_; }
    size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const MemRecord &operator[](size_t i) const { return records_[i]; }

    /** Total instructions covered by the trace. */
    uint64_t instructions() const { return instructions_; }

    /** Number of store and writeback records. */
    uint64_t writes() const { return writes_; }

    /** Count of distinct 64-byte blocks touched (computed on demand). */
    size_t footprintBlocks(unsigned block_bytes = 64) const;

    /** Records per kilo-instruction. */
    double accessesPerKiloInst() const;

    std::vector<MemRecord>::const_iterator
    begin() const
    {
        return records_.begin();
    }

    std::vector<MemRecord>::const_iterator
    end() const
    {
        return records_.end();
    }

  private:
    std::vector<MemRecord> records_;
    uint64_t instructions_ = 0;
    uint64_t writes_ = 0;
};

} // namespace gippr

#endif // GIPPR_TRACE_TRACE_HH_
