/**
 * @file
 * The unit of a memory trace.
 *
 * Mirrors what the paper collects with its modified Valgrind: one entry
 * per memory reference, carrying the instruction-count gap since the
 * previous reference (so the performance model can reconstruct CPI and
 * window occupancy), the byte address and the access kind.  None of
 * the paper's policies reads the referencing instruction's address, so
 * a record carries none.
 */

#ifndef GIPPR_TRACE_RECORD_HH_
#define GIPPR_TRACE_RECORD_HH_

#include <cstdint>

namespace gippr
{

/**
 * Kind of access presented to a cache level.
 *
 * The trace layer owns this decision: a generated CPU trace holds
 * loads and stores, and a filtered LLC trace also holds the L2's
 * dirty evictions as writebacks.
 */
enum class AccessType : uint8_t
{
    Load,      ///< demand read
    Store,     ///< demand write (write-allocate)
    Writeback, ///< dirty eviction arriving from the level above
};

/**
 * One memory reference in a trace.
 *
 * The fields are ordered widest first so a record is 16 bytes with 3
 * bytes of tail padding.  Every layer that holds a trace (materialized
 * workloads, LLC traces, the trace cache, replay, MIN, the GA's
 * fitness traces, shared-LLC core streams) stores records by value,
 * so this size sets their footprint.  Records are built member by
 * member (see the constructor).  The on-disk layout is trace_io's,
 * written field by field, and does not follow this order.
 */
struct MemRecord
{
    /** Declared so MemRecord is no aggregate: a positional
     *  MemRecord{addr, gap, ...} does not compile. */
    MemRecord() = default;

    /** Byte address referenced. */
    uint64_t addr = 0;
    /** Instructions retired since the previous record (>= 1). */
    uint32_t instGap = 1;
    /** Load, store or writeback. */
    AccessType type = AccessType::Load;

    bool
    operator==(const MemRecord &o) const
    {
        return instGap == o.instGap && addr == o.addr && type == o.type;
    }
};

static_assert(sizeof(MemRecord) == 16,
              "MemRecord must stay 16 bytes: every trace stores it by value");

} // namespace gippr

#endif // GIPPR_TRACE_RECORD_HH_
