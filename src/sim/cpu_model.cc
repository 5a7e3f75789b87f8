/**
 * @file
 * CPU model implementation.
 */

#include "sim/cpu_model.hh"

#include <algorithm>

namespace gippr
{

CpuModel::CpuModel(CpuParams params)
    : params_(params)
{
}

double
CpuModel::latencyOf(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1:
        return 0.0; // pipelined into the base issue rate
      case HitLevel::L2:
        return params_.latL2;
      case HitLevel::Llc:
        return params_.latLlc;
      case HitLevel::Memory:
        return params_.latMemory;
    }
    return 0.0;
}

void
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
    while (!inflight_.empty()) {
        const Outstanding &oldest = inflight_.front();
        bool outside_window =
            totalInstructions_ - oldest.instIndex >
            static_cast<uint64_t>(params_.robSize);
        if (oldest.completeCycle <= cycles_) {
            inflight_.pop_front();
        } else if (outside_window || inflight_.size() >= params_.mshrs) {
            // Stall until the blocking access returns.
            cycles_ = oldest.completeCycle;
            inflight_.pop_front();
        } else {
            break;
        }
    }

    const double lat = latencyOf(level);
    if (lat > 0.0)
        inflight_.push_back({totalInstructions_, cycles_ + lat});
}

void
CpuModel::drain()
{
    if (!inflight_.empty()) {
        double last = cycles_;
        for (const Outstanding &o : inflight_)
            last = std::max(last, o.completeCycle);
        cycles_ = last;
        inflight_.clear();
    }
}

void
CpuModel::clearStats()
{
    cycles_ = 0.0;
    instructions_ = 0;
    // In-flight accesses keep absolute completion cycles; rebase them
    // so the measured region starts at cycle zero.
    if (!inflight_.empty()) {
        double base = inflight_.front().completeCycle;
        for (Outstanding &o : inflight_)
            o.completeCycle = std::max(0.0, o.completeCycle - base);
    }
}

} // namespace gippr
