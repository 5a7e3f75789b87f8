/**
 * @file
 * The unit of a memory trace.
 *
 * Mirrors what the paper collects with its modified Valgrind: one entry
 * per memory reference, carrying the instruction-count gap since the
 * previous reference (so the performance model can reconstruct CPI and
 * window occupancy), the byte address, the access kind, and the address
 * of the memory instruction (the "PC"), which signature-based policies
 * such as SHiP consume.
 */

#ifndef GIPPR_TRACE_RECORD_HH_
#define GIPPR_TRACE_RECORD_HH_

#include <cstdint>

namespace gippr
{

/**
 * One memory reference in a trace.
 *
 * The fields are ordered widest first so a record is 24 bytes with 3
 * bytes of tail padding (a gap-first order pads to 32).  Every layer
 * that holds a trace (materialized workloads, LLC traces, the trace
 * cache, replay, MIN, the GA's fitness traces, shared-LLC core streams)
 * stores records by value, so this size sets their footprint.
 * Records are built member by member (see the constructor).  The
 * on-disk layout is trace_io's, written field by field, and does not
 * follow this order.
 */
struct MemRecord
{
    /** Declared so MemRecord is no aggregate: a positional
     *  MemRecord{gap, addr, ...} does not compile. */
    MemRecord() = default;

    /** Byte address referenced. */
    uint64_t addr = 0;
    /** Address of the referencing instruction (for PC-based policies). */
    uint64_t pc = 0;
    /** Instructions retired since the previous record (>= 1). */
    uint32_t instGap = 1;
    /** True for stores. */
    bool isWrite = false;

    bool
    operator==(const MemRecord &o) const
    {
        return instGap == o.instGap && addr == o.addr && pc == o.pc &&
               isWrite == o.isWrite;
    }
};

static_assert(sizeof(MemRecord) == 24,
              "MemRecord must stay 24 bytes: every trace stores it by value");

} // namespace gippr

#endif // GIPPR_TRACE_RECORD_HH_
