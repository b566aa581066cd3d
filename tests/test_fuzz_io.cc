/**
 * @file
 * Fault-injection fuzz run over both binary formats: ten-thousand-plus
 * deterministic mutations per format, asserting the decoder contract
 * (typed error or byte-identical accept, nothing else) and that the
 * harness itself replays bit-identically from its seed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/subset_io.hh"
#include "synth/generator.hh"
#include "testing/fuzz_harness.hh"
#include "trace/trace_io.hh"
#include "util/rng.hh"

namespace gws {
namespace {

Trace
sampleTrace()
{
    GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
    p.segments = 2;
    p.segmentFramesMin = 2;
    p.segmentFramesMax = 3;
    p.drawsPerFrame = 20.0;
    return GameGenerator(p).generate();
}

std::string
goodTraceBlob()
{
    std::ostringstream oss(std::ios::binary);
    writeTrace(sampleTrace(), oss);
    return oss.str();
}

std::string
goodSubsetBlob()
{
    const WorkloadSubset s =
        buildWorkloadSubset(sampleTrace(), SubsetConfig{});
    std::ostringstream oss(std::ios::binary);
    writeSubset(s, oss);
    return oss.str();
}

fuzz::FuzzConfig
testConfig()
{
    fuzz::FuzzConfig cfg;
    cfg.seed = 0xf00dfaceULL;
    cfg.iterations = 10000;
    cfg.artifactDir = ::testing::TempDir();
    return cfg;
}

void
checkReport(const fuzz::FuzzReport &rep, const fuzz::FuzzConfig &cfg)
{
    SCOPED_TRACE(rep.summary());
    EXPECT_EQ(rep.iterations, cfg.iterations);
    EXPECT_EQ(rep.failures, 0u);
    EXPECT_TRUE(rep.ok());

    // Most mutations must be rejected with the typed error, and the
    // no-op / full-length-truncation cases must be accepted with a
    // byte-identical re-encoding — both classes have to appear.
    EXPECT_GT(rep.typedErrors, cfg.iterations / 2);
    EXPECT_GT(rep.acceptedIdentical, 0u);
    EXPECT_EQ(rep.typedErrors + rep.acceptedIdentical, cfg.iterations);

    // The kind picker must exercise every fault class.
    for (std::size_t k = 0; k < fuzz::numMutationKinds; ++k)
        EXPECT_GT(rep.perKind[k], 0u)
            << "mutation kind never applied: "
            << fuzz::toString(static_cast<fuzz::Mutation>(k));
}

TEST(FuzzIo, TraceFormatSurvivesTenThousandMutations)
{
    const auto cfg = testConfig();
    checkReport(fuzz::fuzzTraceFormat(goodTraceBlob(), cfg), cfg);
}

TEST(FuzzIo, SubsetFormatSurvivesTenThousandMutations)
{
    const auto cfg = testConfig();
    checkReport(fuzz::fuzzSubsetFormat(goodSubsetBlob(), cfg), cfg);
}

TEST(FuzzIo, RunsAreDeterministic)
{
    fuzz::FuzzConfig cfg = testConfig();
    cfg.iterations = 500;
    const std::string good = goodTraceBlob();
    const auto a = fuzz::fuzzTraceFormat(good, cfg);
    const auto b = fuzz::fuzzTraceFormat(good, cfg);
    EXPECT_EQ(a.typedErrors, b.typedErrors);
    EXPECT_EQ(a.acceptedIdentical, b.acceptedIdentical);
    EXPECT_EQ(a.failures, b.failures);
    for (std::size_t k = 0; k < fuzz::numMutationKinds; ++k) {
        EXPECT_EQ(a.perKind[k], b.perKind[k]) << k;
        EXPECT_EQ(a.perKindTyped[k], b.perKindTyped[k]) << k;
    }
}

TEST(FuzzIo, ApplyMutationReplaysTheEngine)
{
    // applyMutation(good, kind, seed, i) is the documented reproduction
    // recipe for an artifact; it must regenerate the engine's blob.
    const std::string good = goodTraceBlob();
    const std::uint64_t seed = 0xf00dfaceULL;
    for (std::uint64_t i = 0; i < 64; ++i) {
        Rng rng = Rng(seed).fork(i);
        const auto kind = static_cast<fuzz::Mutation>(
            rng.index(fuzz::numMutationKinds));
        const std::string blob = fuzz::applyMutation(good, kind, seed, i);
        EXPECT_EQ(blob, fuzz::applyMutation(good, kind, seed, i)) << i;
    }
}

TEST(FuzzIo, ResealProducesStructurallyReachablePayloads)
{
    // A resealed single-byte change must get past magic/version/size/
    // checksum, i.e. if it throws, it throws with a payload offset.
    std::string blob = goodTraceBlob();
    blob[blob.size() - 1] = static_cast<char>(blob[blob.size() - 1] + 1);
    fuzz::resealFramed(blob);
    std::istringstream iss(blob, std::ios::binary);
    try {
        const Trace t = readTrace(iss);
        (void)t;
    } catch (const TraceIoError &e) {
        EXPECT_GE(e.byteOffset(), 0);
    }
}

TEST(FuzzIo, ResealIsIdempotentOnGoodBlobs)
{
    const std::string good = goodSubsetBlob();
    std::string resealed = good;
    fuzz::resealFramed(resealed);
    EXPECT_EQ(resealed, good);
}

} // namespace
} // namespace gws
