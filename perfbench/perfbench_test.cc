/**
 * @file
 * The benchmark's own tests, at CI-scale games: the split studies of
 * the traced run reproduce the production entry points exactly, and
 * different seeds give different inputs that all pass the checks.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/subset_pipeline.hh"
#include "obs/trace.hh"
#include "runtime/runtime_config.hh"
#include "synth/generator.hh"
#include "workloads.hh"

namespace {

using namespace gws;
using namespace perfbench;

/** Bitwise equality, so a difference in the last ulp fails. */
void
expectSameBits(double a, double b)
{
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(a))) << a << " vs " << b;
}

void
expectSameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameBits(a[i], b[i]);
}

/** Wall seconds recorded under spans named `name`, at any depth. */
double
spanSeconds(const std::string &name)
{
    for (const obs::SpanRollup &row : obs::traceRollup())
        if (row.name == name)
            return 1e-9 * static_cast<double>(row.totalNs);
    return 0.0;
}

Trace
ciTrace(Workload w, std::uint64_t seed)
{
    return GameGenerator(roundProfiles(w, SuiteScale::Ci, seed, 0).front())
        .generate();
}

/**
 * Parameter: thread count, also used as the seed so that no case is
 * served from the draw-work memo of the one before.
 */
class SplitTest : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void SetUp() override
    {
        RuntimeConfig rc;
        rc.threads = GetParam();
        setRuntimeConfig(rc);
    }

    void TearDown() override { obs::traceEnd(); }
};

TEST_P(SplitTest, FreqScalingSplitEqualsRunFreqScaling)
{
    const Trace trace = ciTrace(Workload::FreqScaling, GetParam());
    const WorkloadSubset subset = buildWorkloadSubset(trace, SubsetConfig{});
    const GpuConfig base = makeGpuPreset("baseline");
    const FreqScalingConfig cfg;

    const FreqScalingResult want = runFreqScaling(trace, subset, base, cfg);
    obs::traceBegin();
    const FreqScalingResult got = freqScalingSplit(trace, subset, base, cfg);

    expectSameBits(want.parentNs, got.parentNs);
    expectSameBits(want.subsetNs, got.subsetNs);
    expectSameBits(want.parentImprovement, got.parentImprovement);
    expectSameBits(want.subsetImprovement, got.subsetImprovement);
    expectSameBits(want.correlation, got.correlation);
    expectSameBits(want.maxImprovementGap, got.maxImprovementGap);
    EXPECT_GT(spanSeconds("gpusim.work_trace.baseline"), 0.0);
    EXPECT_GT(spanSeconds("sweep.retime"), 0.0);
}

TEST_P(SplitTest, PathfindingSplitEqualsRunPathfinding)
{
    const Trace trace = ciTrace(Workload::Pathfinding, GetParam());
    const WorkloadSubset subset = buildWorkloadSubset(trace, SubsetConfig{});
    const std::vector<GpuConfig> designs = pathfindingDesigns();

    const PathfindingResult want = runPathfinding(trace, subset, designs);
    obs::traceBegin();
    const PathfindingResult got = pathfindingSplit(trace, subset, designs);

    ASSERT_EQ(want.points.size(), got.points.size());
    for (std::size_t i = 0; i < want.points.size(); ++i) {
        EXPECT_EQ(want.points[i].name, got.points[i].name);
        expectSameBits(want.points[i].parentNs, got.points[i].parentNs);
        expectSameBits(want.points[i].subsetNs, got.points[i].subsetNs);
        expectSameBits(want.points[i].parentSpeedup,
                       got.points[i].parentSpeedup);
        expectSameBits(want.points[i].subsetSpeedup,
                       got.points[i].subsetSpeedup);
    }
    EXPECT_EQ(want.parentRanking, got.parentRanking);
    EXPECT_EQ(want.subsetRanking, got.subsetRanking);
    EXPECT_EQ(want.rankingPreserved, got.rankingPreserved);
    expectSameBits(want.speedupCorrelation, got.speedupCorrelation);
    expectSameBits(want.rankCorrelation, got.rankCorrelation);
    for (const char *group : {"baseline", "bigcache", "mobile"})
        EXPECT_GT(spanSeconds(std::string("gpusim.work_trace.") + group), 0.0)
            << group;
}

TEST_P(SplitTest, FramePredictionSplitEqualsEvaluateFramePrediction)
{
    const Trace trace = ciTrace(Workload::ClusterFamilies, GetParam());
    const GpuSimulator sim(makeGpuPreset("baseline"));
    for (std::uint32_t f : {0u, 7u}) {
        const Frame &frame = trace.frame(f);
        for (ClusterAlgo algo : clusterFamilies()) {
            DrawSubsetConfig cfg;
            cfg.algo = algo;
            const FramePredictionReport want =
                evaluateFramePrediction(trace, frame, sim, cfg);
            obs::traceBegin();
            const FramePredictionReport got = framePredictionSplit(
                trace, frame, sim, cfg, "gpusim.ground_truth");
            EXPECT_EQ(want.frameIndex, got.frameIndex);
            EXPECT_EQ(want.drawsTotal, got.drawsTotal);
            EXPECT_EQ(want.drawsSimulated, got.drawsSimulated);
            expectSameBits(want.actualNs, got.actualNs);
            expectSameBits(want.predictedNs, got.predictedNs);
            expectSameBits(want.efficiency, got.efficiency);
            expectSameBits(want.quality.intraError, got.quality.intraError);
            expectSameBits(want.quality.meanIntraError,
                           got.quality.meanIntraError);
            EXPECT_EQ(want.quality.outliers, got.quality.outliers);
            EXPECT_GT(spanSeconds(std::string("cluster.") + toString(algo)),
                      0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, SplitTest, ::testing::Values(1, 2));

/** FNV-1a over every draw's pixel and vertex counts. */
std::uint64_t
traceFingerprint(const std::vector<Trace> &traces)
{
    Tally t;
    for (const Trace &trace : traces)
        for (const Frame &frame : trace.frames())
            for (const DrawCall &draw : frame.draws()) {
                t.mix(draw.shadedPixels);
                t.mix(static_cast<std::uint64_t>(draw.vertexCount));
            }
    return t.digest;
}

class SeedTest : public ::testing::TestWithParam<Workload>
{
};

TEST_P(SeedTest, SeedsGiveDifferentInputsThatPassTheChecks)
{
    const Workload w = GetParam();
    std::vector<std::uint64_t> fingerprints, digests;
    for (std::uint64_t seed : {1u, 2u}) {
        const RoundInputs in =
            generateInputs(w, roundProfiles(w, SuiteScale::Ci, seed, 0));
        fingerprints.push_back(traceFingerprint(in.traces));

        Tally plain, split;
        runStudy(w, in, false, plain);
        runStudy(w, in, true, split);
        EXPECT_GT(plain.attempted, 0u);
        EXPECT_EQ(plain.failed, 0u) << "seed " << seed << ": "
                                    << (plain.failures.empty()
                                            ? std::string()
                                            : plain.failures.front());
        EXPECT_EQ(plain.digest, split.digest) << "seed " << seed;
        EXPECT_EQ(plain.attempted, split.attempted);
        EXPECT_EQ(plain.failed, split.failed);
        digests.push_back(plain.digest);
    }
    EXPECT_NE(fingerprints[0], fingerprints[1]);
    EXPECT_NE(digests[0], digests[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SeedTest,
    ::testing::Values(Workload::FreqScaling, Workload::Pathfinding,
                      Workload::ClusterFamilies),
    [](const ::testing::TestParamInfo<Workload> &info) {
        return std::string(workloadName(info.param));
    });

} // namespace
