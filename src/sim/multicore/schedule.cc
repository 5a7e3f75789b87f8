/**
 * @file
 * Interleaving schedule implementations.
 */

#include "sim/multicore/schedule.hh"

#include "util/check.hh"
#include "util/log.hh"

namespace gippr::multicore
{

Schedule
parseSchedule(const std::string &text)
{
    if (text == "rr" || text == "round-robin")
        return Schedule::RoundRobin;
    if (text == "weighted")
        return Schedule::Weighted;
    fatal("unknown schedule (want rr|weighted): " + text);
}

const char *
scheduleName(Schedule sched)
{
    switch (sched) {
      case Schedule::RoundRobin:
        return "rr";
      case Schedule::Weighted:
        return "weighted";
    }
    return "?";
}

Interleaver::Interleaver(Schedule sched, std::vector<uint64_t> lengths,
                         std::vector<uint64_t> weights)
    : sched_(sched), lengths_(std::move(lengths)),
      weights_(std::move(weights)), issued_(lengths_.size(), 0)
{
    GIPPR_CHECK(!lengths_.empty());
    GIPPR_CHECK(weights_.size() == lengths_.size());
    for (uint64_t w : weights_)
        GIPPR_CHECK(w >= 1);
}

int
Interleaver::next()
{
    const unsigned n = static_cast<unsigned>(lengths_.size());

    if (sched_ == Schedule::RoundRobin) {
        // Wrap by compare: this runs once per shared-LLC access.
        unsigned c = cursor_;
        for (unsigned k = 0; k < n; ++k) {
            if (issued_[c] < lengths_[c]) {
                cursor_ = c + 1 == n ? 0 : c + 1;
                ++issued_[c];
                return static_cast<int>(c);
            }
            if (++c == n)
                c = 0;
        }
        return -1;
    }

    // Weighted stride scheduling: issue to the live core with the
    // smallest virtual time (issued+1)/weight.  The comparison is
    // done by exact integer cross-multiplication (128-bit product) so
    // the order is identical on every platform; ties go to the lowest
    // core id by scan order.
    int best = -1;
    for (unsigned c = 0; c < n; ++c) {
        if (issued_[c] >= lengths_[c])
            continue;
        if (best < 0) {
            best = static_cast<int>(c);
            continue;
        }
        auto lhs = static_cast<unsigned __int128>(issued_[c] + 1) *
                   weights_[static_cast<unsigned>(best)];
        auto rhs = static_cast<unsigned __int128>(
                       issued_[static_cast<unsigned>(best)] + 1) *
                   weights_[c];
        if (lhs < rhs)
            best = static_cast<int>(c);
    }
    if (best >= 0)
        ++issued_[static_cast<unsigned>(best)];
    return best;
}

} // namespace gippr::multicore
