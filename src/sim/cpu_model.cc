/**
 * @file
 * CPU model implementation.
 */

#include "sim/cpu_model.hh"

#include <algorithm>
#include <bit>

#include "util/log.hh"

namespace gippr
{

namespace
{

/** @p params, once the model can run it. */
const CpuParams &
checkedParams(const CpuParams &params)
{
    if (params.width == 0)
        fatal("CpuParams: width must be at least 1 instruction per "
              "cycle");
    if (params.mshrs == 0)
        fatal("CpuParams: mshrs must be at least 1");
    return params;
}

} // namespace

CpuModel::CpuModel(CpuParams params)
    : params_(checkedParams(params)),
      latency_{0.0, // L1: pipelined into the base issue rate
               params.latL2, params.latLlc, params.latMemory},
      ring_(std::bit_ceil(uint64_t{params.mshrs} + 1)),
      mask_(static_cast<uint32_t>(ring_.size() - 1))
{
    static_assert(static_cast<unsigned>(HitLevel::L1) == 0 &&
                  static_cast<unsigned>(HitLevel::L2) == 1 &&
                  static_cast<unsigned>(HitLevel::Llc) == 2 &&
                  static_cast<unsigned>(HitLevel::Memory) == 3);
}

void
CpuModel::drain()
{
    if (count_ != 0) {
        double last = cycles_;
        for (uint32_t i = 0; i < count_; ++i)
            last = std::max(last, inflight(i).completeCycle);
        cycles_ = last;
        head_ = 0;
        count_ = 0;
    }
}

void
CpuModel::clearStats()
{
    cycles_ = 0.0;
    instructions_ = 0;
    // In-flight accesses keep absolute completion cycles; rebase them
    // so the measured region starts at cycle zero.
    if (count_ != 0) {
        double base = inflight(0).completeCycle;
        for (uint32_t i = 0; i < count_; ++i) {
            Outstanding &o = inflight(i);
            o.completeCycle = std::max(0.0, o.completeCycle - base);
        }
    }
}

} // namespace gippr
