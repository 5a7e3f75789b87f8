/**
 * @file
 * Suite definition.
 */

#include "workloads/suite.hh"

#include <cassert>

#include "util/log.hh"

namespace gippr
{

namespace
{

/** Distinct address regions per simpoint, far apart. */
uint64_t
regionFor(unsigned workload_idx, unsigned simpoint_idx)
{
    // 1 TB apart in block units (2^24 blocks = 1 GB of 64B lines).
    return (static_cast<uint64_t>(workload_idx) * 8 + simpoint_idx + 1)
           << 26;
}

} // namespace

SyntheticSuite::SyntheticSuite(SuiteParams params)
    : params_(params)
{
    const uint64_t C = params_.llcBlocks; // LLC capacity in blocks
    const uint64_t N = params_.accessesPerSimpoint;
    const uint64_t seed0 = params_.baseSeed;
    unsigned widx = 0;

    // Helper to register one workload with a list of generator makers.
    auto add = [&](const std::string &name,
                   std::vector<std::pair<
                       std::function<std::unique_ptr<AccessGenerator>(
                           GenParams)>,
                       double>> sims) {
        WorkloadSpec spec;
        spec.name = name;
        spec.capacityBlocks = C;
        unsigned sidx = 0;
        for (auto &sim : sims) {
            GenParams gp;
            gp.regionBase = regionFor(widx, sidx);
            SimpointSpec sp;
            auto maker = sim.first;
            sp.make = [maker, gp]() { return maker(gp); };
            sp.accesses = N;
            sp.weight = sim.second;
            sp.seed = seed0 + widx * 131 + sidx * 7;
            spec.simpoints.push_back(std::move(sp));
            ++sidx;
        }
        specs_.push_back(std::move(spec));
        ++widx;
    };

    using G = GenParams;

    // ---- Streaming (zero reuse; insertion policy is everything) ----
    add("stream_pure",
        {{[C](G gp) {
              return std::make_unique<StreamGenerator>(gp, 1, 64 * C);
          },
          1.0}});
    add("stream_strided",
        {{[C](G gp) {
              return std::make_unique<StreamGenerator>(gp, 4, 64 * C);
          },
          1.0}});

    // ---- Loops over fixed working sets --------------------------------
    add("loop_fit",
        {{[C](G gp) {
              return std::make_unique<LoopGenerator>(gp, (C * 6) / 10);
          },
          1.0}});
    add("loop_thrash",
        {{[C](G gp) {
              return std::make_unique<LoopGenerator>(gp, (C * 5) / 4);
          },
          1.0}});
    add("loop_thrash2x",
        {{[C](G gp) {
              return std::make_unique<LoopGenerator>(gp, 2 * C);
          },
          1.0}});
    add("loop_l2fit",
        {{[C](G gp) {
              // Fits comfortably in the L2: near-zero LLC demand.
              return std::make_unique<LoopGenerator>(gp, C / 8);
          },
          1.0}});

    // ---- Pointer chasing ----------------------------------------------
    add("chase_small",
        {{[C](G gp) {
              return std::make_unique<PointerChaseGenerator>(gp,
                                                             (C * 3) / 4,
                                                             97);
          },
          1.0}});
    add("chase_medium",
        {{[C](G gp) {
              return std::make_unique<PointerChaseGenerator>(
                  gp, (C * 12) / 10, 131);
          },
          1.0}});
    add("chase_large",
        {{[C](G gp) {
              return std::make_unique<PointerChaseGenerator>(gp, 4 * C,
                                                             173);
          },
          1.0}});

    // ---- Skewed popularity --------------------------------------------
    add("zipf_hot",
        {{[C](G gp) {
              return std::make_unique<ZipfGenerator>(gp, 4 * C, 0.9, 11);
          },
          1.0}});
    add("zipf_flat",
        {{[C](G gp) {
              return std::make_unique<ZipfGenerator>(gp, 8 * C, 0.5, 13);
          },
          1.0}});
    add("zipf_twophase",
        {{[C](G gp) {
              return std::make_unique<ZipfGenerator>(gp, 2 * C, 1.1, 17);
          },
          0.7},
         {[C](G gp) {
              return std::make_unique<ZipfGenerator>(gp, 6 * C, 0.6, 19);
          },
          0.3}});

    // ---- Hot set + pollution ------------------------------------------
    add("hotcold_stream",
        {{[C](G gp) {
              return std::make_unique<HotColdGenerator>(gp, C / 4, 0.6,
                                                        64 * C);
          },
          1.0}});
    add("hotcold_scan",
        {{[C](G gp) {
              return std::make_unique<HotColdGenerator>(gp, C / 2, 0.75,
                                                        2 * C);
          },
          1.0}});
    add("hotcold_heavy",
        {{[C](G gp) {
              return std::make_unique<HotColdGenerator>(gp, (C * 3) / 4,
                                                        0.5, 16 * C);
          },
          1.0}});

    // ---- Stencils ------------------------------------------------------
    add("stencil_rows",
        {{[C](G gp) {
              return std::make_unique<StencilGenerator>(gp, C / 16, 24);
          },
          1.0}});
    add("stencil_wide",
        {{[C](G gp) {
              return std::make_unique<StencilGenerator>(gp, C / 2, 6);
          },
          1.0}});

    // ---- Explicit reuse-distance profiles ------------------------------
    using Band = SdProfileGenerator::Band;
    add("sd_bimodal",
        {{[C](G gp) {
              // Mass just inside the L2 shadow plus mass just beyond
              // the LLC: the classic shape where MRU insertion loses.
              std::vector<Band> bands = {
                  {16, C / 16, 3.0},
                  {(C * 5) / 4, 2 * C, 4.0},
              };
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          1.0);
          },
          1.0}});
    add("sd_uniform",
        {{[C](G gp) {
              std::vector<Band> bands = {{1, 2 * C, 6.0}};
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          1.0);
          },
          1.0}});
    add("sd_heavytail",
        {{[C](G gp) {
              std::vector<Band> bands = {
                  {1, 64, 6.0},
                  {65, C / 2, 2.0},
                  {C / 2 + 1, 4 * C, 1.5},
              };
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          0.5);
          },
          1.0}});
    add("sd_lrufriendly",
        {{[C](G gp) {
              // Reuse safely inside capacity under real cold-stream
              // pressure (~30%): LRU is near-optimal, and policies
              // that evict early (random IPVs, aggressive demotion)
              // forfeit hits — the majority behaviour of SPEC under
              // the paper's 4MB LLC.
              std::vector<Band> bands = {
                  {C / 4, (C * 5) / 8, 6.0},
              };
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          2.5);
          },
          1.0}});
    add("sd_nearcap",
        {{[C](G gp) {
              // Reuse just under capacity: LRU barely holds on; any
              // mismanagement forfeits the hits.
              std::vector<Band> bands = {
                  {C / 2, (C * 15) / 16, 8.0},
              };
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          0.5);
          },
          1.0}});
    add("sd_midrange",
        {{[C](G gp) {
              // Almost everything reusable if protected for long
              // enough: PDP's sweet spot.
              std::vector<Band> bands = {
                  {C / 2, (C * 9) / 8, 8.0},
              };
              return std::make_unique<SdProfileGenerator>(gp, bands,
                                                          1.0);
          },
          1.0}});

    // ---- Phase-changing workloads (set-dueling must adapt) -------------
    add("phase_loopstream",
        {{[C, N](G gp) {
              std::vector<PhasedGenerator::Phase> phases;
              GenParams gp_a = gp;
              GenParams gp_b = gp;
              gp_b.regionBase += 32 * C;
              phases.push_back({std::make_unique<LoopGenerator>(
                                    gp_a, (C * 7) / 10),
                                N / 8});
              phases.push_back({std::make_unique<StreamGenerator>(
                                    gp_b, 1, 64 * C),
                                N / 8});
              return std::make_unique<PhasedGenerator>(std::move(phases));
          },
          1.0}});
    add("phase_thrashzipf",
        {{[C, N](G gp) {
              std::vector<PhasedGenerator::Phase> phases;
              GenParams gp_a = gp;
              GenParams gp_b = gp;
              gp_b.regionBase += 32 * C;
              phases.push_back({std::make_unique<LoopGenerator>(
                                    gp_a, (C * 3) / 2),
                                N / 6});
              phases.push_back({std::make_unique<ZipfGenerator>(
                                    gp_b, 2 * C, 0.95, 23),
                                N / 6});
              return std::make_unique<PhasedGenerator>(std::move(phases));
          },
          1.0}});

    // ---- Mixes ----------------------------------------------------------
    add("mix_streamchase",
        {{[C](G gp) {
              std::vector<MixGenerator::Component> comps;
              GenParams gp_a = gp;
              GenParams gp_b = gp;
              gp_b.regionBase += 32 * C;
              comps.push_back({std::make_unique<StreamGenerator>(
                                   gp_a, 1, 64 * C),
                               0.5});
              comps.push_back({std::make_unique<PointerChaseGenerator>(
                                   gp_b, C / 2, 211),
                               0.5});
              return std::make_unique<MixGenerator>(std::move(comps));
          },
          1.0}});
    add("mix_zipfscan",
        {{[C](G gp) {
              std::vector<MixGenerator::Component> comps;
              GenParams gp_a = gp;
              GenParams gp_b = gp;
              gp_b.regionBase += 32 * C;
              comps.push_back({std::make_unique<ZipfGenerator>(
                                   gp_a, 2 * C, 1.0, 29),
                               0.7});
              comps.push_back({std::make_unique<StreamGenerator>(
                                   gp_b, 1, 32 * C),
                               0.3});
              return std::make_unique<MixGenerator>(std::move(comps));
          },
          1.0}});

    // ---- Odds and ends ---------------------------------------------------
    add("write_heavy",
        {{[C](G gp) {
              GenParams gp_w = gp;
              gp_w.writeFrac = 0.5;
              return std::make_unique<LoopGenerator>(gp_w, (C * 9) / 10);
          },
          1.0}});
    add("tiny_ws",
        {{[C](G gp) {
              // Essentially lives in the L1/L2; the LLC barely matters.
              return std::make_unique<LoopGenerator>(gp, C / 64);
          },
          1.0}});
    add("multiphase_mix",
        {{[C](G gp) {
              return std::make_unique<LoopGenerator>(gp, (C * 11) / 10);
          },
          0.5},
         {[C](G gp) {
              return std::make_unique<StreamGenerator>(gp, 1, 64 * C);
          },
          0.3},
         {[C](G gp) {
              return std::make_unique<ZipfGenerator>(gp, 3 * C, 0.8, 37);
          },
          0.2}});
}

const WorkloadSpec &
SyntheticSuite::spec(const std::string &name) const
{
    for (const auto &s : specs_)
        if (s.name == name)
            return s;
    fatal("no such workload in suite: " + name);
}

Workload
SyntheticSuite::materialize(const WorkloadSpec &spec)
{
    Workload w(spec.name);
    for (const auto &sp : spec.simpoints) {
        auto gen = sp.make();
        Rng rng(sp.seed);
        auto trace = std::make_shared<Trace>(
            generateTrace(*gen, sp.accesses, rng));
        w.addSimpoint(std::move(trace), sp.weight);
    }
    return w;
}

std::vector<std::string>
SyntheticSuite::names() const
{
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const auto &s : specs_)
        out.push_back(s.name);
    return out;
}

std::vector<WorkloadSpec>
kvCacheFamily(SuiteParams params)
{
    const uint64_t C = params.llcBlocks;
    const uint64_t N = params.accessesPerSimpoint;
    const uint64_t seed0 = params.baseSeed;
    using Tenant = KvCacheGenerator::Tenant;

    std::vector<WorkloadSpec> specs;
    unsigned widx = 64; // region indices clear of the 30-suite range

    auto add = [&](const std::string &name,
                   std::function<std::unique_ptr<AccessGenerator>(
                       GenParams, uint64_t)> maker) {
        GenParams gp;
        gp.regionBase = regionFor(widx, 0);
        SimpointSpec sp;
        uint64_t seed = seed0 + 0x4b00 + widx * 131;
        sp.make = [maker, gp, seed]() { return maker(gp, seed); };
        sp.accesses = N;
        sp.weight = 1.0;
        sp.seed = seed;
        WorkloadSpec spec;
        spec.name = name;
        spec.capacityBlocks = C;
        spec.simpoints.push_back(std::move(sp));
        specs.push_back(std::move(spec));
        ++widx;
    };

    // Four tenants with YCSB-style skews and unequal request shares.
    add("kv_zipf_4t", [C](GenParams gp, uint64_t seed) {
        std::vector<Tenant> t = {{C / 2, 0.99, 4.0, 0.10},
                                 {C, 0.80, 2.0, 0.20},
                                 {2 * C, 0.70, 1.0, 0.30},
                                 {4 * C, 0.50, 1.0, 0.05}};
        return std::make_unique<KvCacheGenerator>(gp, std::move(t),
                                                  seed);
    });
    // One dominant hot tenant against three cold long-tail tenants.
    add("kv_hot_tenant", [C](GenParams gp, uint64_t seed) {
        std::vector<Tenant> t = {{C / 2, 0.99, 8.0, 0.10},
                                 {4 * C, 0.20, 1.0, 0.20},
                                 {4 * C, 0.20, 1.0, 0.20},
                                 {4 * C, 0.20, 1.0, 0.20}};
        return std::make_unique<KvCacheGenerator>(gp, std::move(t),
                                                  seed);
    });
    // TTL-style key churn: the rank->block map rotates 8 times.
    add("kv_churn", [C, N](GenParams gp, uint64_t seed) {
        std::vector<Tenant> t = {{C, 0.90, 3.0, 0.15},
                                 {2 * C, 0.60, 1.0, 0.25}};
        return std::make_unique<KvCacheGenerator>(gp, std::move(t),
                                                  seed, N / 8);
    });
    // A small hot tenant polluted by a near-uniform huge tenant.
    add("kv_scan_victim", [C](GenParams gp, uint64_t seed) {
        std::vector<Tenant> t = {{C / 4, 0.95, 2.0, 0.10},
                                 {16 * C, 0.05, 1.0, 0.00}};
        return std::make_unique<KvCacheGenerator>(gp, std::move(t),
                                                  seed);
    });

    return specs;
}

std::vector<WorkloadSpec>
phaseShiftFamily(SuiteParams params)
{
    const uint64_t C = params.llcBlocks;
    const uint64_t N = params.accessesPerSimpoint;
    const uint64_t seed0 = params.baseSeed;
    using Phase = PhasedGenerator::Phase;

    std::vector<WorkloadSpec> specs;
    unsigned widx = 80; // clear of the 30-suite and the KV family

    auto add = [&](const std::string &name,
                   std::function<std::unique_ptr<AccessGenerator>(
                       GenParams, uint64_t)> maker) {
        GenParams gp;
        gp.regionBase = regionFor(widx, 0);
        SimpointSpec sp;
        uint64_t seed = seed0 + 0x9500 + widx * 131;
        sp.make = [maker, gp, seed]() { return maker(gp, seed); };
        sp.accesses = N;
        sp.weight = 1.0;
        sp.seed = seed;
        WorkloadSpec spec;
        spec.name = name;
        spec.capacityBlocks = C;
        spec.simpoints.push_back(std::move(sp));
        specs.push_back(std::move(spec));
        ++widx;
    };

    // Each phase gets its own region so a regime change is also an
    // address-space change (the working-set trigger's food).
    auto phaseParams = [C](GenParams gp, unsigned phase) {
        gp.regionBase += static_cast<uint64_t>(phase) * 64 * C;
        return gp;
    };

    // The flagship: scan -> skewed Zipf -> thrashing loop -> scan.
    // Every regime has a different best-in-library policy (bypass-ish
    // insertion for the scans, protection for the Zipf core, LIP-like
    // anti-thrash for the loop), so no static arm wins all four.
    add("ps_quad", [C, N, phaseParams](GenParams gp, uint64_t seed) {
        const uint64_t L = N / 4;
        std::vector<Phase> ph;
        ph.push_back({std::make_unique<StreamGenerator>(
                          phaseParams(gp, 0), 1, 64 * C),
                      L});
        ph.push_back({std::make_unique<ZipfGenerator>(
                          phaseParams(gp, 1), 2 * C, 1.05, seed),
                      L});
        ph.push_back({std::make_unique<LoopGenerator>(
                          phaseParams(gp, 2), (C * 5) / 4),
                      L});
        ph.push_back({std::make_unique<StreamGenerator>(
                          phaseParams(gp, 3), 1, 64 * C),
                      L});
        return std::make_unique<PhasedGenerator>(std::move(ph));
    });
    // Cache-friendly loop against a big skewless-ish Zipf, twice.
    add("ps_loop_zipf",
        [C, N, phaseParams](GenParams gp, uint64_t seed) {
            const uint64_t L = N / 4;
            std::vector<Phase> ph;
            ph.push_back({std::make_unique<LoopGenerator>(
                              phaseParams(gp, 0), (C * 6) / 10),
                          L});
            ph.push_back({std::make_unique<ZipfGenerator>(
                              phaseParams(gp, 1), 4 * C, 0.9, seed),
                          L});
            ph.push_back({std::make_unique<LoopGenerator>(
                              phaseParams(gp, 2), (C * 6) / 10),
                          L});
            ph.push_back({std::make_unique<ZipfGenerator>(
                              phaseParams(gp, 3), 4 * C, 0.9,
                              seed + 1),
                          L});
            return std::make_unique<PhasedGenerator>(std::move(ph));
        });
    // Identical access statistics, shifting address regions: the miss
    // rate barely moves, only the working-set signature sees it.
    add("ps_zipf_drift",
        [C, N, phaseParams](GenParams gp, uint64_t seed) {
            const uint64_t L = N / 4;
            std::vector<Phase> ph;
            for (unsigned p = 0; p < 4; ++p) {
                ph.push_back({std::make_unique<ZipfGenerator>(
                                  phaseParams(gp, p), 2 * C, 0.9,
                                  seed + p),
                              L});
            }
            return std::make_unique<PhasedGenerator>(std::move(ph));
        });
    // Near-zero LLC demand, then a sudden thrashing storm.
    add("ps_calm_storm",
        [C, N, phaseParams](GenParams gp, uint64_t seed) {
            (void)seed;
            std::vector<Phase> ph;
            ph.push_back({std::make_unique<LoopGenerator>(
                              phaseParams(gp, 0), C / 8),
                          N / 2});
            ph.push_back({std::make_unique<LoopGenerator>(
                              phaseParams(gp, 1), 2 * C),
                          N / 2});
            return std::make_unique<PhasedGenerator>(std::move(ph));
        });

    return specs;
}

} // namespace gippr
