/**
 * @file
 * Trace implementation.
 */

#include "trace/trace.hh"

#include <unordered_set>

#include "util/bitops.hh"

namespace gippr
{

Trace::Trace(std::vector<MemRecord> records)
{
    records_.reserve(records.size());
    for (const auto &r : records)
        append(r);
}

void
Trace::append(const MemRecord &rec)
{
    records_.push_back(rec);
    instructions_ += rec.instGap;
    if (rec.type != AccessType::Load)
        ++writes_;
}

size_t
Trace::footprintBlocks(unsigned block_bytes) const
{
    const unsigned shift = floorLog2(block_bytes);
    std::unordered_set<uint64_t> blocks;
    blocks.reserve(records_.size() / 4 + 16);
    for (const auto &r : records_)
        blocks.insert(r.addr >> shift);
    return blocks.size();
}

double
Trace::accessesPerKiloInst() const
{
    if (instructions_ == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(records_.size()) /
           static_cast<double>(instructions_);
}

} // namespace gippr
