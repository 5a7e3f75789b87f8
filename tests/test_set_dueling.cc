/**
 * @file
 * Tests for leader-set assignment and the tournament selector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "policies/set_dueling.hh"

namespace gippr
{
namespace
{

TEST(LeaderSets, ExactLeaderCounts)
{
    LeaderSets ls(1024, 2, 32);
    int counts[2] = {0, 0};
    int followers = 0;
    for (uint64_t s = 0; s < 1024; ++s) {
        int o = ls.owner(s);
        if (o == LeaderSets::kFollower)
            ++followers;
        else
            ++counts[o];
    }
    EXPECT_EQ(counts[0], 32);
    EXPECT_EQ(counts[1], 32);
    EXPECT_EQ(followers, 1024 - 64);
}

TEST(LeaderSets, FourPolicyCounts)
{
    LeaderSets ls(4096, 4, 32);
    int counts[4] = {0, 0, 0, 0};
    for (uint64_t s = 0; s < 4096; ++s) {
        int o = ls.owner(s);
        if (o != LeaderSets::kFollower)
            ++counts[o];
    }
    for (int p = 0; p < 4; ++p)
        EXPECT_EQ(counts[p], 32) << p;
}

TEST(LeaderSets, LeadersAreSpreadAcrossConstituencies)
{
    LeaderSets ls(1024, 2, 32);
    // Each constituency (32 sets) holds exactly one leader per policy.
    for (unsigned c = 0; c < 32; ++c) {
        int found[2] = {0, 0};
        for (uint64_t s = c * 32; s < (c + 1) * 32; ++s) {
            int o = ls.owner(s);
            if (o != LeaderSets::kFollower)
                ++found[o];
        }
        EXPECT_EQ(found[0], 1) << c;
        EXPECT_EQ(found[1], 1) << c;
    }
}

TEST(LeaderSets, DeterministicAssignment)
{
    LeaderSets a(512, 2, 16), b(512, 2, 16);
    for (uint64_t s = 0; s < 512; ++s)
        EXPECT_EQ(a.owner(s), b.owner(s));
}

TEST(LeaderSets, RejectsTooManyPolicies)
{
    // Constituency size 2 cannot host 4 distinct leaders.
    EXPECT_THROW(LeaderSets(16, 4, 8), std::runtime_error);
}

TEST(LeaderSets, RejectsIndivisibleLeaderCount)
{
    EXPECT_THROW(LeaderSets(100, 2, 32), std::runtime_error);
}

TEST(Tournament, TwoPolicyPrefersLessMissing)
{
    TournamentSelector t(2, 8);
    for (int i = 0; i < 50; ++i)
        t.recordMiss(0);
    EXPECT_EQ(t.winner(), 1u); // policy 0 misses more -> pick 1
    for (int i = 0; i < 200; ++i)
        t.recordMiss(1);
    EXPECT_EQ(t.winner(), 0u);
}

TEST(Tournament, FourPolicyPicksGlobalBest)
{
    TournamentSelector t(4, 8);
    // Policy 2 misses least; others miss heavily.
    for (int i = 0; i < 100; ++i) {
        t.recordMiss(0);
        t.recordMiss(1);
        t.recordMiss(3);
    }
    EXPECT_EQ(t.winner(), 2u);
}

TEST(Tournament, FourPolicyEachCanWin)
{
    for (unsigned best = 0; best < 4; ++best) {
        TournamentSelector t(4, 8);
        for (int i = 0; i < 100; ++i)
            for (unsigned p = 0; p < 4; ++p)
                if (p != best)
                    t.recordMiss(p);
        EXPECT_EQ(t.winner(), best) << best;
    }
}

TEST(Tournament, EightPolicyTournament)
{
    TournamentSelector t(8, 8);
    for (int i = 0; i < 200; ++i)
        for (unsigned p = 0; p < 8; ++p)
            if (p != 5)
                t.recordMiss(p);
    EXPECT_EQ(t.winner(), 5u);
}

TEST(Tournament, StateBitsMatchPaperAccounting)
{
    // Paper Section 3.6: 2-DGIPPR one 11-bit counter; 4-DGIPPR three
    // 11-bit counters (33 bits).
    EXPECT_EQ(TournamentSelector(2, 11).stateBits(), 11u);
    EXPECT_EQ(TournamentSelector(4, 11).stateBits(), 33u);
    EXPECT_EQ(TournamentSelector(8, 11).stateBits(), 77u);
}

TEST(Tournament, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(TournamentSelector(3), std::runtime_error);
    EXPECT_THROW(TournamentSelector(1), std::runtime_error);
}

TEST(Tournament, SwitchesWhenBehaviourFlips)
{
    TournamentSelector t(2, 6);
    for (int i = 0; i < 100; ++i)
        t.recordMiss(0);
    EXPECT_EQ(t.winner(), 1u);
    for (int i = 0; i < 200; ++i)
        t.recordMiss(1);
    EXPECT_EQ(t.winner(), 0u);
    for (int i = 0; i < 200; ++i)
        t.recordMiss(0);
    EXPECT_EQ(t.winner(), 1u);
}

TEST(LeaderSets, DomainOwnersRotateTheBaseMap)
{
    // Every domain's table is a rotation of the base map, so each
    // keeps its exact leader counts; domain 0's rotation is zero, and
    // the domains sample different sets.
    const uint64_t sets = 256;
    const unsigned domains = 3;
    LeaderSets ls(sets, 4, 8);
    const std::vector<int8_t> owners = ls.domainOwners(domains);
    ASSERT_EQ(owners.size(), domains * sets);
    for (unsigned d = 0; d < domains; ++d) {
        const auto table = owners.begin() + d * sets;
        bool rotated = false;
        for (uint64_t r = 0; r < sets && !rotated; ++r) {
            rotated = true;
            for (uint64_t s = 0; s < sets && rotated; ++s)
                rotated = table[s] == ls.owner((s + r) % sets);
        }
        EXPECT_TRUE(rotated) << "domain " << d;
        EXPECT_EQ(std::count_if(table, table + sets,
                                [](int8_t o) {
                                    return o != LeaderSets::kFollower;
                                }),
                  4 * 8)
            << "domain " << d;
        for (unsigned e = 0; e < d; ++e)
            EXPECT_FALSE(std::equal(table, table + sets,
                                    owners.begin() + e * sets))
                << "domains " << e << " and " << d;
    }
    for (uint64_t s = 0; s < sets; ++s)
        EXPECT_EQ(owners[s], ls.owner(s));
}

} // namespace
} // namespace gippr
