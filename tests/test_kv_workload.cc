/**
 * @file
 * Tests for the multi-tenant KV-cache workload family.
 *
 * The family feeds the shared-LLC serving simulator, so its streams
 * must be seed-deterministic and stable across refactors: a golden
 * FNV-1a digest pins every record of every family member at a small
 * pinned scale (the test_suite_digest idiom — an accidental generator
 * change would silently shift every multicore result table, so it
 * must fail loudly here instead).  Structural tests cover the
 * generator's contract directly: disjoint per-tenant block ranges,
 * mixed GET/SET traffic, key churn rotating the live key set, and
 * seed sensitivity.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hh"
#include "workloads/generators.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
foldU64(uint64_t h, uint64_t v)
{
    return fnv1a(h, &v, sizeof(v));
}

/** Digest of one materialized workload (every record). */
uint64_t
digestOf(const Workload &w)
{
    uint64_t h = kFnvOffset;
    for (const Simpoint &sp : w.simpoints()) {
        h = foldU64(h, sp.trace->size());
        for (const MemRecord &rec : sp.trace->records()) {
            h = foldU64(h, rec.instGap);
            h = foldU64(h, rec.addr);
            h = foldU64(h, static_cast<uint64_t>(rec.type));
            h = foldU64(h, rec.type != AccessType::Load ? 1 : 0);
        }
    }
    return h;
}

/** Pinned scale for the golden digests (small but eviction-heavy). */
SuiteParams
pinnedParams()
{
    SuiteParams p;
    p.llcBlocks = 256;
    p.accessesPerSimpoint = 2000;
    p.baseSeed = 0x5eed;
    return p;
}

const WorkloadSpec &
familySpec(const std::vector<WorkloadSpec> &family,
           const std::string &name)
{
    for (const WorkloadSpec &spec : family)
        if (spec.name == name)
            return spec;
    ADD_FAILURE() << "missing KV workload " << name;
    return family.front();
}

TEST(KvWorkload, FamilyShape)
{
    const std::vector<WorkloadSpec> family = kvCacheFamily(pinnedParams());
    ASSERT_EQ(family.size(), 4u);
    EXPECT_EQ(family[0].name, "kv_zipf_4t");
    EXPECT_EQ(family[1].name, "kv_hot_tenant");
    EXPECT_EQ(family[2].name, "kv_churn");
    EXPECT_EQ(family[3].name, "kv_scan_victim");
    for (const WorkloadSpec &spec : family) {
        const Workload w = SyntheticSuite::materialize(spec);
        ASSERT_FALSE(w.simpoints().empty()) << spec.name;
        for (const Simpoint &sp : w.simpoints())
            EXPECT_EQ(sp.trace->size(), 2000u) << spec.name;
    }
}

TEST(KvWorkload, MaterializationIsDeterministic)
{
    const std::vector<WorkloadSpec> family = kvCacheFamily(pinnedParams());
    for (const WorkloadSpec &spec : family) {
        const uint64_t a = digestOf(SyntheticSuite::materialize(spec));
        const uint64_t b = digestOf(SyntheticSuite::materialize(spec));
        EXPECT_EQ(a, b) << spec.name;
    }
}

/**
 * Golden digests at pinnedParams().  These pin the generated streams
 * byte-for-byte; regenerate deliberately (and only deliberately) by
 * reading the actual values off the failure output.
 */
TEST(KvWorkload, GoldenDigests)
{
    struct Golden
    {
        const char *name;
        uint64_t digest;
    };
    const std::vector<Golden> goldens = {
        {"kv_zipf_4t", 0xbb5318eeed94fbceull},
        {"kv_hot_tenant", 0xd6083544ea0fdf63ull},
        {"kv_churn", 0x05297d9ffbadbb17ull},
        {"kv_scan_victim", 0x8ab5a6904432d398ull},
    };
    const std::vector<WorkloadSpec> family = kvCacheFamily(pinnedParams());
    for (const Golden &g : goldens) {
        const WorkloadSpec &spec = familySpec(family, g.name);
        const uint64_t actual =
            digestOf(SyntheticSuite::materialize(spec));
        EXPECT_EQ(actual, g.digest)
            << g.name << " digest 0x" << std::hex << actual;
    }
}

TEST(KvWorkload, SeedChangesEveryStream)
{
    SuiteParams a = pinnedParams();
    SuiteParams b = pinnedParams();
    b.baseSeed = 0xbeef;
    const std::vector<WorkloadSpec> fa = kvCacheFamily(a);
    const std::vector<WorkloadSpec> fb = kvCacheFamily(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t i = 0; i < fa.size(); ++i)
        EXPECT_NE(digestOf(SyntheticSuite::materialize(fa[i])),
                  digestOf(SyntheticSuite::materialize(fb[i])))
            << fa[i].name;
}

TEST(KvWorkload, MixesReadsAndWrites)
{
    const std::vector<WorkloadSpec> family = kvCacheFamily(pinnedParams());
    const Workload w =
        SyntheticSuite::materialize(familySpec(family, "kv_zipf_4t"));
    uint64_t reads = 0;
    uint64_t writes = 0;
    for (const Simpoint &sp : w.simpoints())
        for (const MemRecord &rec : sp.trace->records())
            (rec.type == AccessType::Load ? reads : writes) += 1;
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, 0u);
    EXPECT_GT(reads, writes); // GETs dominate a serving mix
}

TEST(KvWorkload, TenantBlockRangesAreDisjoint)
{
    GenParams params;
    params.regionBase = 0;
    const uint64_t keys = 64;
    KvCacheGenerator gen(params,
                         {{keys, 0.9, 1.0, 0.0}, {keys, 0.5, 1.0, 0.0}},
                         /*seed=*/7);
    // Tenant 0 owns blocks [0, keys); tenant 1 starts at keys + 4096.
    const uint64_t blockBytes = 64;
    const uint64_t t1_base = (keys + 4096) * blockBytes;
    Rng rng(42);
    bool saw_t0 = false;
    bool saw_t1 = false;
    for (int i = 0; i < 4000; ++i) {
        const MemRecord rec = gen.next(rng);
        if (rec.addr < keys * blockBytes) {
            saw_t0 = true;
        } else {
            EXPECT_GE(rec.addr, t1_base);
            EXPECT_LT(rec.addr, t1_base + keys * blockBytes);
            saw_t1 = true;
        }
    }
    EXPECT_TRUE(saw_t0);
    EXPECT_TRUE(saw_t1);
}

TEST(KvWorkload, ChurnRotatesKeys)
{
    GenParams params;
    const KvCacheGenerator::Tenant tenant = {256, 0.9, 1.0, 0.0};
    KvCacheGenerator stable(params, {tenant}, /*seed=*/7,
                            /*churn_every=*/0);
    KvCacheGenerator churning(params, {tenant}, /*seed=*/7,
                              /*churn_every=*/100);
    Rng ra(42);
    Rng rb(42);
    // Epoch 0 is identical: the epoch salt is zero either way.
    for (int i = 0; i < 100; ++i) {
        const MemRecord a = stable.next(ra);
        const MemRecord b = churning.next(rb);
        EXPECT_EQ(a.addr, b.addr) << "record " << i;
        EXPECT_EQ(a.type, b.type);
    }
    // Later epochs remap ranks to fresh blocks.
    uint64_t diverged = 0;
    for (int i = 0; i < 400; ++i) {
        const MemRecord a = stable.next(ra);
        const MemRecord b = churning.next(rb);
        diverged += a.addr != b.addr;
    }
    EXPECT_GT(diverged, 0u);
}

} // namespace
} // namespace gippr
