/**
 * @file
 * Thread-count determinism regression tests — the ordered-reduction
 * contract of src/runtime applied end to end. Every pipeline layer
 * (trace simulation, sweep retiming, k-means, the workload-subset
 * pipeline) must produce bit-identical floating-point results at
 * threads = 1 and threads = 8; any drift means a reduction started
 * depending on completion order.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/kmeans.hh"
#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "features/extractor.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/work_trace.hh"
#include "runtime/runtime.hh"
#include "synth/generator.hh"

namespace gws {
namespace {

/** One CI-scale playthrough shared by every test in this suite. */
const Trace &
testTrace()
{
    static const Trace t =
        GameGenerator(builtinProfile("shock1", SuiteScale::Ci))
            .generate();
    return t;
}

void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.configCount, b.configCount);
    EXPECT_EQ(a.groupCount, b.groupCount);
    EXPECT_EQ(a.drawCount, b.drawCount);
    EXPECT_EQ(a.totalNs, b.totalNs);
    EXPECT_EQ(a.groupNs, b.groupNs);
    EXPECT_EQ(a.bottleneckNs, b.bottleneckNs);
    EXPECT_EQ(a.bottleneckCount, b.bottleneckCount);
    EXPECT_EQ(a.drawNs, b.drawNs);
}

class DeterminismTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    /** Run fn() under an explicit thread count, grain untouched. */
    template <typename Fn>
    auto
    at(std::size_t threads, Fn &&fn)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        setRuntimeConfig(cfg);
        return fn();
    }

    RuntimeConfig saved;
};

TEST_F(DeterminismTest, SimulateTraceIsBitIdenticalAcrossThreadCounts)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));

    const TraceCost a = at(1, [&] { return sim.simulateTrace(trace); });
    const TraceCost b = at(8, [&] { return sim.simulateTrace(trace); });

    EXPECT_EQ(a.totalNs, b.totalNs);
    EXPECT_EQ(a.drawsSimulated, b.drawsSimulated);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        const FrameCost &fa = a.frames[f];
        const FrameCost &fb = b.frames[f];
        ASSERT_EQ(fa.totalNs, fb.totalNs) << "frame " << f;
        ASSERT_EQ(fa.drawNs, fb.drawNs) << "frame " << f;
        ASSERT_EQ(fa.bottleneckNs, fb.bottleneckNs) << "frame " << f;
        ASSERT_EQ(fa.bottleneckCount, fb.bottleneckCount)
            << "frame " << f;
    }
}

TEST_F(DeterminismTest, RetimeAllClockSweepIsBitIdenticalAcrossThreadCounts)
{
    // A clock sweep with per-draw costs recorded, the shape the
    // frequency-scaling and DVFS subset passes run.
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);
    const std::vector<GpuConfig> points = clockSweepConfigs(
        makeGpuPreset("baseline"), {0.6, 0.9, 1.0, 1.3, 1.7, 2.0});
    SweepConfig cfg;
    cfg.perDraw = true;

    const SweepResult a =
        at(1, [&] { return retimeAll(wt, points, cfg); });
    const SweepResult b =
        at(8, [&] { return retimeAll(wt, points, cfg); });
    ASSERT_EQ(a.drawNs.size(), points.size() * trace.totalDraws());
    expectSameSweep(a, b);
}

TEST_F(DeterminismTest, RetimeAllCapacityGroupIsBitIdenticalAcrossThreadCounts)
{
    // Designs that share a capacity hash but not their throughput
    // rates, as pathfinding retimes them.
    const Trace &trace = testTrace();
    const std::vector<GpuConfig> designs = {makeGpuPreset("baseline"),
                                            makeGpuPreset("wide"),
                                            makeGpuPreset("fastmem")};
    for (const GpuConfig &d : designs)
        ASSERT_EQ(capacityConfigHash(d),
                  capacityConfigHash(designs.front()))
            << d.name;
    const GpuSimulator sim(designs.front());
    const WorkTrace wt = buildWorkTrace(trace, sim);

    const SweepResult a = at(1, [&] { return retimeAll(wt, designs); });
    const SweepResult b = at(8, [&] { return retimeAll(wt, designs); });
    expectSameSweep(a, b);
}

TEST_F(DeterminismTest, WorkTraceAcrossGeometriesIsBitIdenticalAcrossThreadCounts)
{
    // Three cache geometries in turn on one pool: the per-thread
    // texture caches are reused from the 4x L2 down to the mobile L2
    // and back up, on whichever worker picks up each frame. The memo
    // is cleared before every build so each one simulates every draw.
    const Trace &trace = testTrace();
    const char *const presets[] = {"bigcache", "mobile", "baseline"};
    const auto buildAll = [&] {
        std::vector<WorkTrace> traces;
        for (const char *p : presets) {
            drawWorkCacheClear();
            traces.push_back(
                buildWorkTrace(trace, GpuSimulator(makeGpuPreset(p))));
        }
        return traces;
    };
    const std::vector<WorkTrace> a = at(1, buildAll);
    const std::vector<WorkTrace> b = at(4, buildAll);
    drawWorkCacheClear();

    for (std::size_t p = 0; p < std::size(presets); ++p) {
        const WorkTrace &wa = a[p];
        const WorkTrace &wb = b[p];
        ASSERT_EQ(wa.drawCount(), trace.totalDraws()) << presets[p];
        ASSERT_EQ(wa.drawCount(), wb.drawCount()) << presets[p];
        ASSERT_EQ(wa.groupCount(), wb.groupCount()) << presets[p];
        EXPECT_EQ(wa.capacityKey(), wb.capacityKey()) << presets[p];
        for (std::size_t i = 0; i < wa.drawCount(); ++i)
            ASSERT_TRUE(wa.work(i) == wb.work(i))
                << presets[p] << " row " << i;
    }
    // The geometries really differ in their texture traffic.
    EXPECT_NE(a[0].totalDramBytes(), a[1].totalDramBytes());
}

TEST_F(DeterminismTest, KMeansIsBitIdenticalAcrossThreadCounts)
{
    // Enough points that the default grain splits the scans into
    // several chunks, so the parallel path is actually exercised.
    const Trace &trace = testTrace();
    const FeatureExtractor extractor(trace);
    std::vector<FeatureVector> points;
    for (std::size_t f = 0; f < 8 && f < trace.frameCount(); ++f)
        for (const FeatureVector &v :
             extractor.extractFrame(trace.frame(f)))
            points.push_back(v);
    ASSERT_GT(points.size(), 512u);

    KMeansConfig cfg;
    cfg.k = 12;
    cfg.restarts = 2;

    const Clustering a = at(1, [&] { return kmeans(points, cfg); });
    const Clustering b = at(8, [&] { return kmeans(points, cfg); });

    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    for (std::size_t c = 0; c < a.centroids.size(); ++c)
        ASSERT_EQ(a.centroids[c], b.centroids[c]) << "centroid " << c;
}

TEST_F(DeterminismTest, SubsetPipelineIsBitIdenticalAcrossThreadCounts)
{
    const Trace &trace = testTrace();
    const SubsetConfig cfg;
    const GpuSimulator sim(makeGpuPreset("baseline"));

    const WorkloadSubset a =
        at(1, [&] { return buildWorkloadSubset(trace, cfg); });
    const WorkloadSubset b =
        at(8, [&] { return buildWorkloadSubset(trace, cfg); });

    EXPECT_EQ(a.subsetDraws(), b.subsetDraws());
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t u = 0; u < a.units.size(); ++u) {
        const SubsetUnit &ua = a.units[u];
        const SubsetUnit &ub = b.units[u];
        ASSERT_EQ(ua.phaseId, ub.phaseId) << "unit " << u;
        ASSERT_EQ(ua.frameIndex, ub.frameIndex) << "unit " << u;
        ASSERT_EQ(ua.frameWeight, ub.frameWeight) << "unit " << u;
        ASSERT_EQ(ua.frameSubset.clustering.assignment,
                  ub.frameSubset.clustering.assignment)
            << "unit " << u;
        ASSERT_EQ(ua.frameSubset.clustering.representatives,
                  ub.frameSubset.clustering.representatives)
            << "unit " << u;
        ASSERT_EQ(ua.frameSubset.workUnits, ub.frameSubset.workUnits)
            << "unit " << u;
    }

    // Predicted and fully-simulated costs must agree bit for bit too.
    const SubsetEvaluation ea =
        at(1, [&] { return evaluateSubset(trace, a, sim); });
    const SubsetEvaluation eb =
        at(8, [&] { return evaluateSubset(trace, b, sim); });
    EXPECT_EQ(ea.parentNs, eb.parentNs);
    EXPECT_EQ(ea.predictedNs, eb.predictedNs);
    EXPECT_EQ(ea.relError(), eb.relError());
}

} // namespace
} // namespace gws
