/**
 * @file
 * Way-partitioning implementation.
 */

#include "sim/multicore/partition.hh"

#include <algorithm>
#include <limits>
#include <string_view>

#include "util/check.hh"
#include "util/env.hh"
#include "util/log.hh"

namespace gippr::multicore
{

const char *
partitionModeName(PartitionMode mode)
{
    switch (mode) {
      case PartitionMode::None:
        return "none";
      case PartitionMode::Static:
        return "static";
      case PartitionMode::Utility:
        return "utility";
    }
    return "?";
}

PartitionConfig
parsePartition(const std::string &text, unsigned cores)
{
    PartitionConfig cfg;
    if (text.empty() || text == "none")
        return cfg;

    if (text.rfind("static:", 0) == 0) {
        cfg.mode = PartitionMode::Static;
        std::string list = text.substr(7);
        size_t pos = 0;
        while (pos <= list.size()) {
            size_t comma = list.find(',', pos);
            size_t end = comma == std::string::npos ? list.size() : comma;
            cfg.staticWays.push_back(static_cast<unsigned>(parseUnsigned(
                "static partition way count",
                std::string_view(list).substr(pos, end - pos),
                std::numeric_limits<unsigned>::max())));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (cfg.staticWays.size() != cores)
            fatal("static partition needs one way count per core");
        for (unsigned w : cfg.staticWays)
            if (w == 0)
                fatal("static partition way counts must be >= 1");
        return cfg;
    }

    if (text == "utility" || text.rfind("utility:", 0) == 0) {
        cfg.mode = PartitionMode::Utility;
        if (text.size() > 8) {
            cfg.repartitionEvery = parseUnsigned(
                "utility repartition interval",
                std::string_view(text).substr(8));
            if (cfg.repartitionEvery == 0)
                fatal("utility repartition interval must be >= 1");
        }
        return cfg;
    }

    fatal("unknown partition spec (want none|static:...|utility): " +
          text);
}

std::vector<uint64_t>
masksFromCounts(const std::vector<unsigned> &counts, unsigned assoc)
{
    // Hard (always-on) validation: counts come straight from user
    // partition specs, and an overflowing sum would silently wrap the
    // leftover-way arithmetic below in builds without GIPPR_CHECK.
    if (counts.empty())
        fatal("way partition needs at least one count");
    unsigned total = 0;
    for (unsigned c : counts) {
        if (c < 1)
            fatal("way partition counts must be >= 1");
        total += c;
    }
    if (total > assoc)
        fatal("way partition counts sum to " + std::to_string(total) +
              " but the cache has " + std::to_string(assoc) + " ways");

    std::vector<uint64_t> masks(counts.size(), 0);
    unsigned way = 0;
    for (size_t core = 0; core < counts.size(); ++core) {
        unsigned n = counts[core];
        // Leftover ways join the last core so every way has an owner.
        if (core + 1 == counts.size())
            n += assoc - total;
        for (unsigned k = 0; k < n; ++k)
            masks[core] |= uint64_t{1} << (way + k);
        way += n;
    }
    return masks;
}

std::vector<unsigned>
evenSplit(unsigned cores, unsigned assoc)
{
    GIPPR_CHECK(cores >= 1 && cores <= assoc);
    std::vector<unsigned> counts(cores, assoc / cores);
    for (unsigned c = 0; c < assoc % cores; ++c)
        ++counts[c];
    return counts;
}

UtilityMonitor::UtilityMonitor(uint64_t sets, unsigned assoc,
                               unsigned cores, uint64_t sample_every)
    : assoc_(assoc)
{
    GIPPR_CHECK(sample_every >= 1);
    GIPPR_CHECK(cores >= 1);
    sampledSets_ = (sets + sample_every - 1) / sample_every;
    GIPPR_CHECK(sampledSets_ >= 1 && sampledSets_ < kUnsampled);
    rowOf_.assign(sets, kUnsampled);
    for (uint64_t row = 0; row < sampledSets_; ++row)
        rowOf_[row * sample_every] = static_cast<uint32_t>(row);
    tags_.assign(cores * sampledSets_ * assoc, 0);
    fill_.assign(cores * sampledSets_, 0);
    hits_.assign(cores, std::vector<uint64_t>(assoc, 0));
    misses_.assign(cores, 0);
}

void
UtilityMonitor::observe(unsigned core, uint64_t set, uint64_t tag)
{
    GIPPR_DCHECK(sampled(set));
    const uint64_t row = core * sampledSets_ + rowOf_[set];
    uint64_t *tags = tags_.data() + row * assoc_;
    unsigned &fill = fill_[row];
    unsigned pos = 0;
    while (pos < fill && tags[pos] != tag)
        ++pos;
    if (pos < fill) {
        ++hits_[core][pos];
    } else {
        // A miss fills the next free slot, or evicts the LRU tag of a
        // full row; either way the tags above it move down one.
        ++misses_[core];
        if (fill < assoc_)
            ++fill;
        pos = fill - 1;
    }
    std::copy_backward(tags, tags + pos, tags + pos + 1);
    tags[0] = tag;
}

std::vector<unsigned>
UtilityMonitor::allocate() const
{
    const auto cores = static_cast<unsigned>(hits_.size());
    GIPPR_CHECK(cores <= assoc_);
    std::vector<unsigned> counts(cores, 1);
    for (unsigned given = cores; given < assoc_; ++given) {
        unsigned best = 0;
        uint64_t best_gain = 0;
        bool found = false;
        for (unsigned c = 0; c < cores; ++c) {
            if (counts[c] >= assoc_)
                continue;
            // Marginal utility of the core's next way: the shadow
            // hits it would capture at that stack position.
            const uint64_t gain = hits_[c][counts[c]];
            if (!found || gain > best_gain) {
                best = c;
                best_gain = gain;
                found = true;
            }
        }
        GIPPR_CHECK(found);
        ++counts[best];
    }
    return counts;
}

uint64_t
UtilityMonitor::missesAt(unsigned core, unsigned ways) const
{
    uint64_t m = misses_[core];
    for (unsigned p = ways; p < assoc_; ++p)
        m += hits_[core][p];
    return m;
}

void
UtilityMonitor::decay()
{
    for (auto &h : hits_)
        for (uint64_t &v : h)
            v >>= 1;
    for (uint64_t &m : misses_)
        m >>= 1;
}

} // namespace gippr::multicore
