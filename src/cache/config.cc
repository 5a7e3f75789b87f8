/**
 * @file
 * Cache geometry implementation.
 */

#include "cache/config.hh"

#include "util/bitops.hh"
#include "util/log.hh"

namespace gippr
{

uint64_t
CacheConfig::sets() const
{
    return sizeBytes / (static_cast<uint64_t>(assoc) * blockBytes);
}

unsigned
CacheConfig::blockShift() const
{
    return floorLog2(blockBytes);
}

unsigned
CacheConfig::setShift() const
{
    return floorLog2(sets());
}

void
CacheConfig::validate() const
{
    if (blockBytes < 8 || !isPow2(blockBytes))
        fatal(name + ": block size must be a power of two >= 8");
    if (assoc < 1)
        fatal(name + ": associativity must be >= 1");
    if (sizeBytes == 0 ||
        sizeBytes % (static_cast<uint64_t>(assoc) * blockBytes) != 0) {
        fatal(name + ": size must be a multiple of assoc * blockBytes");
    }
    if (!isPow2(sets()))
        fatal(name + ": number of sets must be a power of two");
}

AddressDecode::AddressDecode(const CacheConfig &config)
    : blockShift(config.blockShift()), setShift(config.setShift()),
      setMask(config.sets() - 1)
{
}

CacheConfig
CacheConfig::paperLlc()
{
    return {"LLC", 4ULL * 1024 * 1024, 16, 64};
}

CacheConfig
CacheConfig::paperL1d()
{
    return {"L1D", 32ULL * 1024, 8, 64};
}

CacheConfig
CacheConfig::paperL2()
{
    return {"L2", 256ULL * 1024, 8, 64};
}

CacheConfig
CacheConfig::benchLlc()
{
    return {"LLC", 1ULL * 1024 * 1024, 16, 64};
}

} // namespace gippr
