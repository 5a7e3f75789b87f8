/**
 * @file
 * Search-driver checkpoint (de)serialization.
 */

#include "ga/ga_checkpoint.hh"

#include "robust/checkpoint.hh"
#include "util/log.hh"

namespace gippr
{

namespace
{

constexpr const char *kEvolveKind = "ga-evolve";
constexpr uint32_t kEvolveVersion = 1;
constexpr const char *kRandomKind = "ga-random";
constexpr uint32_t kRandomVersion = 1;
constexpr const char *kHillKind = "ga-hillclimb";
constexpr uint32_t kHillVersion = 1;
constexpr const char *kWn1Kind = "ga-wn1";
constexpr uint32_t kWn1Version = 1;

/**
 * Digest checks shared by every loader: reject a checkpoint written
 * against different training data or a different search
 * configuration with messages that say which, so an operator can
 * tell a corrupted resume from a mistaken one.
 */
void
validateDigests(const std::string &path, const std::string &what,
                uint64_t got_suite, uint64_t want_suite,
                uint64_t got_config, uint64_t want_config)
{
    if (got_suite != want_suite)
        fatal(what + " checkpoint " + path +
              " was written against a different training suite "
              "(digest mismatch); refusing to resume");
    if (got_config != want_config)
        fatal(what + " checkpoint " + path +
              " was written under a different search configuration "
              "(seed/population/operator digest mismatch); refusing "
              "to resume");
}

} // namespace

uint64_t
digestMix(uint64_t digest, uint64_t word)
{
    // FNV-1a over the word's eight bytes.
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xffu;
        digest *= 0x100000001b3ULL;
    }
    return digest;
}

void
saveGaCheckpoint(const std::string &path, const GaCheckpoint &ck)
{
    robust::ByteWriter w;
    w.u64(ck.configDigest);
    w.u64(ck.suiteDigest);
    for (uint64_t word : ck.rngState)
        w.u64(word);
    w.u64(ck.generation);
    w.u32(static_cast<uint32_t>(ck.population.size()));
    for (const SampledIpv &s : ck.population) {
        w.bytes(s.ipv.entries());
        w.f64(s.fitness);
    }
    w.u32(static_cast<uint32_t>(ck.history.size()));
    for (double h : ck.history)
        w.f64(h);
    w.u32(static_cast<uint32_t>(ck.generationSeconds.size()));
    for (double s : ck.generationSeconds)
        w.f64(s);
    robust::writeCheckpointFile(path, kEvolveKind, kEvolveVersion,
                                w.data());
}

GaCheckpoint
loadGaCheckpoint(const std::string &path, uint64_t configDigest,
                 uint64_t suiteDigest)
{
    const std::string payload =
        robust::readCheckpointFile(path, kEvolveKind, kEvolveVersion);
    robust::ByteReader r(payload, path);
    GaCheckpoint ck;
    ck.configDigest = r.u64();
    ck.suiteDigest = r.u64();
    validateDigests(path, "GA", ck.suiteDigest, suiteDigest,
                    ck.configDigest, configDigest);
    for (uint64_t &word : ck.rngState)
        word = r.u64();
    ck.generation = r.u64();
    const uint32_t pop = r.u32();
    ck.population.reserve(pop);
    for (uint32_t i = 0; i < pop; ++i) {
        std::vector<uint8_t> entries = r.bytes();
        const double fitness = r.f64();
        if (!Ipv::isValidVector(entries))
            fatal("GA checkpoint " + path +
                  " holds an invalid IPV at population index " +
                  std::to_string(i));
        ck.population.push_back({Ipv(std::move(entries)), fitness});
    }
    const uint32_t hist = r.u32();
    ck.history.reserve(hist);
    for (uint32_t i = 0; i < hist; ++i)
        ck.history.push_back(r.f64());
    const uint32_t secs = r.u32();
    ck.generationSeconds.reserve(secs);
    for (uint32_t i = 0; i < secs; ++i)
        ck.generationSeconds.push_back(r.f64());
    r.expectEnd();
    return ck;
}

void
saveRandomSearchCheckpoint(const std::string &path,
                           const RandomSearchCheckpoint &ck)
{
    robust::ByteWriter w;
    w.u64(ck.configDigest);
    w.u64(ck.suiteDigest);
    w.u64(ck.done);
    w.u32(static_cast<uint32_t>(ck.scores.size()));
    for (double s : ck.scores)
        w.f64(s);
    robust::writeCheckpointFile(path, kRandomKind, kRandomVersion,
                                w.data());
}

RandomSearchCheckpoint
loadRandomSearchCheckpoint(const std::string &path,
                           uint64_t configDigest, uint64_t suiteDigest)
{
    const std::string payload =
        robust::readCheckpointFile(path, kRandomKind, kRandomVersion);
    robust::ByteReader r(payload, path);
    RandomSearchCheckpoint ck;
    ck.configDigest = r.u64();
    ck.suiteDigest = r.u64();
    validateDigests(path, "random-search", ck.suiteDigest, suiteDigest,
                    ck.configDigest, configDigest);
    ck.done = r.u64();
    const uint32_t n = r.u32();
    if (ck.done > n)
        fatal("random-search checkpoint " + path +
              " is inconsistent: claims " + std::to_string(ck.done) +
              " evaluated of " + std::to_string(n) + " stored scores");
    ck.scores.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        ck.scores.push_back(r.f64());
    r.expectEnd();
    return ck;
}

void
saveHillClimbCheckpoint(const std::string &path,
                        const HillClimbCheckpoint &ck)
{
    robust::ByteWriter w;
    w.u64(ck.configDigest);
    w.u64(ck.suiteDigest);
    w.bytes(ck.best);
    w.f64(ck.bestFitness);
    w.u64(ck.evaluations);
    w.u64(ck.steps);
    robust::writeCheckpointFile(path, kHillKind, kHillVersion,
                                w.data());
}

HillClimbCheckpoint
loadHillClimbCheckpoint(const std::string &path, uint64_t configDigest,
                        uint64_t suiteDigest)
{
    const std::string payload =
        robust::readCheckpointFile(path, kHillKind, kHillVersion);
    robust::ByteReader r(payload, path);
    HillClimbCheckpoint ck;
    ck.configDigest = r.u64();
    ck.suiteDigest = r.u64();
    validateDigests(path, "hill-climb", ck.suiteDigest, suiteDigest,
                    ck.configDigest, configDigest);
    ck.best = r.bytes();
    if (!Ipv::isValidVector(ck.best))
        fatal("hill-climb checkpoint " + path +
              " holds an invalid IPV");
    ck.bestFitness = r.f64();
    ck.evaluations = r.u64();
    ck.steps = r.u64();
    r.expectEnd();
    return ck;
}

void
saveWn1Checkpoint(const std::string &path, const Wn1Checkpoint &ck)
{
    robust::ByteWriter w;
    w.u64(ck.configDigest);
    w.u32(static_cast<uint32_t>(ck.folds.size()));
    for (const auto &[name, vectors] : ck.folds) {
        w.str(name);
        w.u32(static_cast<uint32_t>(vectors.size()));
        for (const auto &entries : vectors)
            w.bytes(entries);
    }
    robust::writeCheckpointFile(path, kWn1Kind, kWn1Version, w.data());
}

Wn1Checkpoint
loadWn1Checkpoint(const std::string &path, uint64_t configDigest)
{
    const std::string payload =
        robust::readCheckpointFile(path, kWn1Kind, kWn1Version);
    robust::ByteReader r(payload, path);
    Wn1Checkpoint ck;
    ck.configDigest = r.u64();
    if (ck.configDigest != configDigest)
        fatal("WN1 checkpoint " + path +
              " was written under a different configuration (digest "
              "mismatch); refusing to resume");
    const uint32_t folds = r.u32();
    ck.folds.reserve(folds);
    for (uint32_t i = 0; i < folds; ++i) {
        std::string name = r.str();
        const uint32_t n = r.u32();
        std::vector<std::vector<uint8_t>> vectors;
        vectors.reserve(n);
        for (uint32_t v = 0; v < n; ++v) {
            vectors.push_back(r.bytes());
            if (!Ipv::isValidVector(vectors.back()))
                fatal("WN1 checkpoint " + path +
                      " holds an invalid IPV in fold \"" + name +
                      "\"");
        }
        ck.folds.emplace_back(std::move(name), std::move(vectors));
    }
    r.expectEnd();
    return ck;
}

} // namespace gippr
