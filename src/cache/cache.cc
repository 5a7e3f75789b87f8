/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache/cache.hh"

#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

SetAssocCache::SetAssocCache(const CacheConfig &config,
                             std::unique_ptr<ReplacementPolicy> policy)
    : config_(config), policy_(std::move(policy))
{
    config_.validate();
    decode_ = AddressDecode(config_);
    if (!policy_)
        fatal(config_.name + ": null replacement policy");
    lines_.resize(config_.sets() * config_.assoc);
}

SetAssocCache::Line &
SetAssocCache::line(uint64_t set, unsigned way)
{
    GIPPR_CHECK(set <= decode_.setMask);
    GIPPR_CHECK(way < config_.assoc);
    return lines_[set * config_.assoc + way];
}

const SetAssocCache::Line &
SetAssocCache::line(uint64_t set, unsigned way) const
{
    GIPPR_CHECK(set <= decode_.setMask);
    GIPPR_CHECK(way < config_.assoc);
    return lines_[set * config_.assoc + way];
}

unsigned
SetAssocCache::findWay(uint64_t set, uint64_t tag) const
{
    for (unsigned w = 0; w < config_.assoc; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag)
            return w;
    }
    return config_.assoc;
}

unsigned
SetAssocCache::findInvalidWay(uint64_t set) const
{
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!line(set, w).valid)
            return w;
    }
    return config_.assoc;
}

AccessResult
SetAssocCache::access(uint64_t byte_addr, AccessType type, uint64_t pc)
{
    const uint64_t set = decode_.setIndex(byte_addr);
    const uint64_t tag = decode_.tag(byte_addr);
    const bool demand = type != AccessType::Writeback;

    AccessInfo info;
    info.set = set;
    info.blockAddr = decode_.blockAddr(byte_addr);
    info.pc = pc;
    info.type = type;
    info.sequence = sequence_++;

    ++stats_.accesses;
    if (demand)
        ++stats_.demandAccesses;

    AccessResult result;
    unsigned way = findWay(set, tag);
    if (way != config_.assoc) {
        // Hit.
        ++stats_.hits;
        if (live_.hits)
            live_.hits->increment();
        result.hit = true;
        result.way = way;
        if (type != AccessType::Load)
            line(set, way).dirty = true;
        policy_->onHit(way, info);
        return result;
    }

    // Miss.
    ++stats_.misses;
    if (demand) {
        ++stats_.demandMisses;
        if (live_.demandMisses)
            live_.demandMisses->increment();
    }
    policy_->onMiss(info);

    if (demand && policy_->shouldBypass(info)) {
        ++stats_.bypasses;
        if (live_.bypasses)
            live_.bypasses->increment();
        result.bypassed = true;
        result.way = config_.assoc; // sentinel: not resident
        return result;
    }

    way = findInvalidWay(set);
    if (way == config_.assoc) {
        way = policy_->victim(info);
        if (way >= config_.assoc)
            panic(config_.name + ": policy returned way out of range");
        Line &victim_line = line(set, way);
        GIPPR_CHECK(victim_line.valid);
        ++stats_.evictions;
        if (live_.evictions)
            live_.evictions->increment();
        result.evictedBlock = decode_.blockOf(set, victim_line.tag);
        result.evictedDirty = victim_line.dirty;
        if (victim_line.dirty) {
            ++stats_.writebacks;
            if (live_.writebacks)
                live_.writebacks->increment();
        }
    }

    Line &l = line(set, way);
    l.tag = tag;
    l.valid = true;
    l.dirty = type != AccessType::Load;
    result.way = way;
    policy_->onInsert(way, info);
    return result;
}

bool
SetAssocCache::probe(uint64_t byte_addr) const
{
    return findWay(decode_.setIndex(byte_addr), decode_.tag(byte_addr)) !=
           config_.assoc;
}

void
SetAssocCache::invalidate(uint64_t byte_addr)
{
    const uint64_t set = decode_.setIndex(byte_addr);
    unsigned way = findWay(set, decode_.tag(byte_addr));
    if (way == config_.assoc)
        return;
    line(set, way).valid = false;
    line(set, way).dirty = false;
    policy_->onInvalidate(set, way);
}

void
SetAssocCache::reset()
{
    for (uint64_t s = 0; s < config_.sets(); ++s) {
        for (unsigned w = 0; w < config_.assoc; ++w) {
            if (line(s, w).valid) {
                line(s, w).valid = false;
                line(s, w).dirty = false;
                policy_->onInvalidate(s, w);
            }
        }
    }
    clearStats();
}

void
SetAssocCache::clearStats()
{
    stats_ = CacheStats{};
}

void
SetAssocCache::attachTelemetry(telemetry::MetricRegistry &registry,
                               const std::string &prefix)
{
    live_.hits = &registry.counter(prefix + ".hits");
    live_.demandMisses = &registry.counter(prefix + ".demand_misses");
    live_.bypasses = &registry.counter(prefix + ".bypasses");
    live_.evictions = &registry.counter(prefix + ".evictions");
    live_.writebacks = &registry.counter(prefix + ".writebacks");
    policy_->attachTelemetry(registry, prefix);
}

unsigned
SetAssocCache::validCount(uint64_t set) const
{
    unsigned n = 0;
    for (unsigned w = 0; w < config_.assoc; ++w)
        if (line(set, w).valid)
            ++n;
    return n;
}

std::optional<uint64_t>
SetAssocCache::blockAt(uint64_t set, unsigned way) const
{
    const Line &l = line(set, way);
    if (!l.valid)
        return std::nullopt;
    return decode_.blockOf(set, l.tag);
}

} // namespace gippr
