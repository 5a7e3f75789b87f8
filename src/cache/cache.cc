/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache/cache.hh"

#include <algorithm>

#include "util/bitops.hh"
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
    // Way masks are 64 bits wide; wider caches take only full masks.
    allWays_ = lowMask(std::min(config_.assoc, 64u));
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
SetAssocCache::findInvalidWay(uint64_t set, uint64_t mask) const
{
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!line(set, w).valid &&
            (mask == allWays_ || ((mask >> w) & 1) != 0))
            return w;
    }
    return config_.assoc;
}

unsigned
SetAssocCache::maskedVictim(uint64_t set, uint64_t mask) const
{
    // Positions are a permutation, so the maximum is unique.
    unsigned best = 0;
    unsigned best_pos = 0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
        const auto w = static_cast<unsigned>(countTrailingZeros(m));
        const unsigned p = *policy_->recencyPosition(set, w);
        if (p >= best_pos) {
            best = w;
            best_pos = p;
        }
    }
    return best;
}

AccessResult
SetAssocCache::access(uint64_t byte_addr, AccessType type, unsigned domain,
                      uint64_t way_mask)
{
    const uint64_t set = decode_.setIndex(byte_addr);
    const uint64_t tag = decode_.tag(byte_addr);
    const bool demand = type != AccessType::Writeback;

    AccessInfo info;
    info.set = set;
    info.blockAddr = decode_.blockAddr(byte_addr);
    info.type = type;
    info.sequence = sequence_++;
    info.domain = domain;
    info.wayMask = way_mask & allWays_;
    const bool partial = info.wayMask != allWays_;
    if (partial) {
        if (info.wayMask == 0)
            fatal(config_.name + ": access with an empty way mask");
        if (config_.assoc > 64 ||
            !policy_->recencyPosition(set, 0).has_value())
            fatal(config_.name + ": " + policy_->name() +
                  " keeps no recency order, so it cannot fill within "
                  "a way mask");
    }

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

    way = findInvalidWay(set, info.wayMask);
    if (way == config_.assoc) {
        way = partial ? maskedVictim(set, info.wayMask)
                      : policy_->victim(info);
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
