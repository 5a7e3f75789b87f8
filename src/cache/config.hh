/**
 * @file
 * Cache geometry configuration.
 */

#ifndef GIPPR_CACHE_CONFIG_HH_
#define GIPPR_CACHE_CONFIG_HH_

#include <cstdint>
#include <string>

namespace gippr
{

/**
 * Geometry of one set-associative cache.
 *
 * All fields are validated by validate(); sizes and block size must be
 * powers of two and consistent with the associativity.
 */
struct CacheConfig
{
    std::string name = "cache";
    /** Total capacity in bytes. */
    uint64_t sizeBytes = 4 * 1024 * 1024;
    /** Ways per set. */
    unsigned assoc = 16;
    /** Line size in bytes. */
    unsigned blockBytes = 64;

    /** Number of sets implied by the geometry. */
    uint64_t sets() const;

    /** log2(blockBytes). */
    unsigned blockShift() const;

    /** log2(sets()). */
    unsigned setShift() const;

    /** Throws std::runtime_error (via fatal) on inconsistent geometry. */
    void validate() const;

    /** The paper's LLC: 4MB, 16-way, 64B lines. */
    static CacheConfig paperLlc();
    /** The paper's L1 data cache: 32KB, 8-way. */
    static CacheConfig paperL1d();
    /** The paper's unified L2: 256KB, 8-way. */
    static CacheConfig paperL2();
    /**
     * A scaled-down LLC (1MB, 16-way) used by default in the benches so
     * full-suite experiments finish quickly; the workloads are scaled
     * with it.
     */
    static CacheConfig benchLlc();
};

/**
 * The address-to-line mapping of one validated geometry, with its
 * shifts and set mask computed once: the only place a byte address is
 * split into block, set and tag.
 */
struct AddressDecode
{
    unsigned blockShift = 0;
    unsigned setShift = 0;
    uint64_t setMask = 0;

    AddressDecode() = default;
    explicit AddressDecode(const CacheConfig &config);

    /** Byte address with the block offset stripped. */
    uint64_t
    blockAddr(uint64_t byte_addr) const
    {
        return byte_addr >> blockShift;
    }

    uint64_t
    setIndex(uint64_t byte_addr) const
    {
        return blockAddr(byte_addr) & setMask;
    }

    /** Block address with the set bits stripped. */
    uint64_t
    tag(uint64_t byte_addr) const
    {
        return blockAddr(byte_addr) >> setShift;
    }

    /** Block address of the line holding @p tag in @p set. */
    uint64_t
    blockOf(uint64_t set, uint64_t tag) const
    {
        return (tag << setShift) | set;
    }
};

} // namespace gippr

#endif // GIPPR_CACHE_CONFIG_HH_
