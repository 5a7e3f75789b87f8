/**
 * @file
 * Cache hierarchy implementation.
 */

#include "cache/hierarchy.hh"

#include "util/check.hh"

namespace gippr
{

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     const PolicyFactory &l1_policy,
                     const PolicyFactory &l2_policy,
                     const PolicyFactory &llc_policy)
    : inclusive_(config.inclusiveLlc)
{
    l1_ = std::make_unique<SetAssocCache>(config.l1,
                                          l1_policy(config.l1));
    l2_ = std::make_unique<SetAssocCache>(config.l2,
                                          l2_policy(config.l2));
    llc_ = std::make_unique<SetAssocCache>(config.llc,
                                           llc_policy(config.llc));
}

void
Hierarchy::backInvalidate(uint64_t block_addr)
{
    const uint64_t byte_addr = block_addr << llc_->config().blockShift();
    l1_->invalidate(byte_addr);
    l2_->invalidate(byte_addr);
}

HitLevel
Hierarchy::access(uint64_t byte_addr, bool is_write, uint64_t pc)
{
    const AccessType type =
        is_write ? AccessType::Store : AccessType::Load;

    GIPPR_CHECK(type != AccessType::Writeback);
    // Under inclusion a line absent from the LLC must also be absent
    // above it, so an LLC demand miss can never follow an upper hit.
    // Checked before the access: the L1/L2 fills below precede the
    // LLC fill, so mid-access the upper copies are briefly ahead.
    GIPPR_DCHECK(!inclusive_ || llc_->probe(byte_addr) ||
                 (!l1_->probe(byte_addr) && !l2_->probe(byte_addr)));
    AccessResult r1 = l1_->access(byte_addr, type, pc);
    if (r1.hit)
        return HitLevel::L1;

    // L1 victim writes back into L2.
    if (r1.evictedBlock && r1.evictedDirty) {
        uint64_t wb_addr = *r1.evictedBlock << l1_->config().blockShift();
        AccessResult wb = l2_->access(wb_addr, AccessType::Writeback, 0);
        if (wb.evictedBlock && wb.evictedDirty) {
            uint64_t wb2 = *wb.evictedBlock << l2_->config().blockShift();
            AccessResult wbr = llc_->access(wb2, AccessType::Writeback, 0);
            if (inclusive_ && wbr.evictedBlock)
                backInvalidate(*wbr.evictedBlock);
        }
    }

    AccessResult r2 = l2_->access(byte_addr, type, pc);
    if (r2.evictedBlock && r2.evictedDirty) {
        uint64_t wb_addr = *r2.evictedBlock << l2_->config().blockShift();
        AccessResult wbr = llc_->access(wb_addr, AccessType::Writeback, 0);
        if (inclusive_ && wbr.evictedBlock)
            backInvalidate(*wbr.evictedBlock);
    }
    if (r2.hit)
        return HitLevel::L2;

    AccessResult r3 = llc_->access(byte_addr, type, pc);
    // LLC dirty victims go to memory.  Under inclusion, an LLC
    // eviction also back-invalidates the line from the levels above
    // (any dirty upper-level copy is modelled as written through to
    // memory with the victim).
    if (inclusive_ && r3.evictedBlock)
        backInvalidate(*r3.evictedBlock);
    return r3.hit ? HitLevel::Llc : HitLevel::Memory;
}

void
Hierarchy::clearStats()
{
    l1_->clearStats();
    l2_->clearStats();
    llc_->clearStats();
}

Trace
Hierarchy::filterToLlc(const Trace &cpu_trace,
                       const HierarchyConfig &config,
                       const PolicyFactory &l1_policy,
                       const PolicyFactory &l2_policy)
{
    SetAssocCache l1(config.l1, l1_policy(config.l1));
    SetAssocCache l2(config.l2, l2_policy(config.l2));

    Trace llc_trace;
    uint64_t pending_gap = 0;

    auto emit = [&](uint64_t addr, uint64_t pc, bool is_write) {
        MemRecord rec;
        // The first emitted record absorbs the accumulated gap; a gap
        // of zero is bumped to one only for the very first record so
        // instruction totals stay faithful otherwise.
        rec.instGap = static_cast<uint32_t>(pending_gap);
        pending_gap = 0;
        rec.addr = addr;
        rec.pc = pc;
        rec.isWrite = is_write;
        llc_trace.append(rec);
    };

    for (const auto &rec : cpu_trace.records()) {
        pending_gap += rec.instGap;
        const AccessType type =
            rec.isWrite ? AccessType::Store : AccessType::Load;

        AccessResult r1 = l1.access(rec.addr, type, rec.pc);
        if (r1.hit)
            continue;

        if (r1.evictedBlock && r1.evictedDirty) {
            uint64_t wb_addr = *r1.evictedBlock
                               << config.l1.blockShift();
            AccessResult wb = l2.access(wb_addr, AccessType::Writeback, 0);
            if (wb.evictedBlock && wb.evictedDirty) {
                emit(*wb.evictedBlock << config.l2.blockShift(), 0, true);
            }
        }

        AccessResult r2 = l2.access(rec.addr, type, rec.pc);
        if (r2.evictedBlock && r2.evictedDirty)
            emit(*r2.evictedBlock << config.l2.blockShift(), 0, true);
        if (!r2.hit)
            emit(rec.addr, rec.pc, rec.isWrite);
    }

    return llc_trace;
}

} // namespace gippr
