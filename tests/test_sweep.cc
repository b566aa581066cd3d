/**
 * @file
 * Tests of the compute-once / retime-many sweeps: the WorkTrace must
 * hold exactly the DrawWork computeDrawWork returns, retimeAll must
 * match simulateFrame bit for bit (per-draw costs, group costs,
 * totals, bottleneck histograms) at every thread count, and the three
 * sweep studies (frequency scaling, pathfinding, DVFS) must keep
 * golden hashes of their results. Also checks that a draw's memory
 * traffic is a pure function of the draw.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/energy_study.hh"
#include "core/freq_scaling.hh"
#include "core/pathfinding.hh"
#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/draw_work_cache.hh"
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

/** The trace's workload subset (built once). */
const WorkloadSubset &
testSubset()
{
    static const WorkloadSubset s =
        buildWorkloadSubset(testTrace(), SubsetConfig{});
    return s;
}

/** The sweep points every retiming test uses. */
std::vector<GpuConfig>
sweepPoints()
{
    return clockSweepConfigs(makeGpuPreset("baseline"),
                             {0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0});
}

bool
sameSweepResult(const SweepResult &a, const SweepResult &b)
{
    return a.configCount == b.configCount &&
           a.groupCount == b.groupCount && a.drawCount == b.drawCount &&
           a.totalNs == b.totalNs && a.groupNs == b.groupNs &&
           a.bottleneckNs == b.bottleneckNs &&
           a.bottleneckCount == b.bottleneckCount && a.drawNs == b.drawNs;
}

class SweepTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    /** Run fn() under an explicit thread count. */
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

// ------------------------------------------------------------- work trace --

TEST_F(SweepTest, WorkTraceReproducesComputeDrawWork)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);

    ASSERT_EQ(wt.groupCount(), trace.frameCount());
    ASSERT_EQ(wt.drawCount(), trace.totalDraws());
    EXPECT_EQ(wt.capacityKey(), capacityConfigHash(sim.config()));

    double dram = 0.0;
    for (std::size_t f = 0; f < trace.frameCount(); ++f) {
        const Frame &frame = trace.frame(f);
        ASSERT_EQ(wt.groupEnd(f) - wt.groupBegin(f), frame.drawCount());
        for (std::size_t d = 0; d < frame.drawCount(); ++d) {
            const DrawWork expect =
                sim.computeDrawWork(trace, frame.draws()[d]);
            EXPECT_TRUE(wt.work(wt.groupBegin(f) + d) == expect)
                << "frame " << f << " draw " << d;
            dram += expect.traffic.totalDramBytes();
        }
    }
    EXPECT_EQ(wt.totalDramBytes(), dram);
}

TEST_F(SweepTest, WorkTraceBuildIsThreadCountInvariant)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace a = at(1, [&] { return buildWorkTrace(trace, sim); });
    const WorkTrace b = at(8, [&] { return buildWorkTrace(trace, sim); });
    ASSERT_EQ(a.drawCount(), b.drawCount());
    for (std::size_t i = 0; i < a.drawCount(); ++i)
        EXPECT_TRUE(a.work(i) == b.work(i)) << "row " << i;
    EXPECT_EQ(a.totalDramBytes(), b.totalDramBytes());
}

TEST_F(SweepTest, SubsetWorkTraceMatchesRepresentatives)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildSubsetWorkTrace(trace, subset, sim);

    ASSERT_EQ(wt.groupCount(), subset.units.size());
    for (std::size_t u = 0; u < subset.units.size(); ++u) {
        const SubsetUnit &unit = subset.units[u];
        const Clustering &c = unit.frameSubset.clustering;
        ASSERT_EQ(wt.groupEnd(u) - wt.groupBegin(u), c.k);
        const Frame &frame = trace.frame(unit.frameIndex);
        for (std::size_t cl = 0; cl < c.k; ++cl) {
            const DrawWork expect = sim.computeDrawWork(
                trace, frame.draws()[c.representatives[cl]]);
            EXPECT_TRUE(wt.work(wt.groupBegin(u) + cl) == expect)
                << "unit " << u << " cluster " << cl;
        }
    }
}

// -------------------------------------------------------------- retimeAll --

/**
 * retimeAll over a trace's work against a per-config simulateFrame of
 * every frame: per-draw costs, group costs, the trace total and both
 * bottleneck histograms must be bitwise equal.
 */
void
expectRetimeMatchesSimulateFrame(const Trace &trace, const WorkTrace &wt,
                                 const std::vector<GpuConfig> &configs,
                                 const SweepResult &sweep)
{
    ASSERT_EQ(sweep.configCount, configs.size());
    ASSERT_EQ(sweep.groupCount, trace.frameCount());
    ASSERT_EQ(sweep.drawNs.size(), configs.size() * wt.drawCount());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const GpuSimulator sim(configs[c]);
        double total = 0.0;
        std::array<double, numStages> hist_ns{};
        std::array<std::uint64_t, numStages> hist_count{};
        for (std::size_t f = 0; f < trace.frameCount(); ++f) {
            const FrameCost fc = sim.simulateFrame(trace, trace.frame(f));
            EXPECT_EQ(sweep.groupNsAt(c, f), fc.totalNs)
                << configs[c].name << " frame " << f;
            for (std::size_t d = 0; d < fc.drawNs.size(); ++d)
                ASSERT_EQ(sweep.drawNsAt(c, wt.groupBegin(f) + d),
                          fc.drawNs[d])
                    << configs[c].name << " frame " << f << " draw " << d;
            total += fc.totalNs;
            for (std::size_t s = 0; s < numStages; ++s) {
                hist_ns[s] += fc.bottleneckNs[s];
                hist_count[s] += fc.bottleneckCount[s];
            }
        }
        EXPECT_EQ(sweep.totalNs[c], total) << configs[c].name;
        for (std::size_t s = 0; s < numStages; ++s) {
            const auto stage = static_cast<Stage>(s);
            EXPECT_EQ(sweep.bottleneckNsAt(c, stage), hist_ns[s])
                << configs[c].name << " stage " << toString(stage);
            EXPECT_EQ(sweep.bottleneckCountAt(c, stage), hist_count[s])
                << configs[c].name << " stage " << toString(stage);
        }
    }
}

TEST_F(SweepTest, RetimeAllMatchesSimulateFrameOnClockSweep)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);
    const std::vector<GpuConfig> points = sweepPoints();
    SweepConfig cfg;
    cfg.perDraw = true;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const SweepResult sweep =
            at(threads, [&] { return retimeAll(wt, points, cfg); });
        expectRetimeMatchesSimulateFrame(trace, wt, points, sweep);
    }
}

TEST_F(SweepTest, RetimeAllMatchesSimulateFrameOnCapacityGroup)
{
    // Designs sharing a capacity hash but not their throughput rates,
    // as pathfinding retimes them against one work trace.
    const Trace &trace = testTrace();
    const std::vector<GpuConfig> designs = {makeGpuPreset("baseline"),
                                            makeGpuPreset("wide"),
                                            makeGpuPreset("fastmem")};
    const GpuSimulator sim(designs.front());
    const WorkTrace wt = buildWorkTrace(trace, sim);
    SweepConfig cfg;
    cfg.perDraw = true;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const SweepResult sweep =
            at(threads, [&] { return retimeAll(wt, designs, cfg); });
        expectRetimeMatchesSimulateFrame(trace, wt, designs, sweep);
    }
}

TEST_F(SweepTest, RetimeAllEmptyAndSingleGroupTraces)
{
    const std::vector<GpuConfig> points =
        clockSweepConfigs(makeGpuPreset("baseline"), {0.8, 1.2});
    const std::uint64_t key =
        capacityConfigHash(makeGpuPreset("baseline"));

    for (const std::vector<std::size_t> &sizes :
         {std::vector<std::size_t>{}, std::vector<std::size_t>{5}}) {
        WorkTrace wt(key, sizes);
        for (std::size_t i = 0; i < wt.drawCount(); ++i) {
            DrawWork &w = wt.work(i);
            w.vertices = 100.0;
            w.pixels = 1000.0;
            w.vsWeightedOps = 4000.0;
            w.psWeightedOps = 20000.0;
        }
        SweepConfig cfg;
        cfg.perDraw = true;
        const SweepResult one =
            at(1, [&] { return retimeAll(wt, points, cfg); });
        ASSERT_EQ(one.groupCount, sizes.size());
        ASSERT_EQ(one.totalNs.size(), points.size());
        for (std::size_t c = 0; c < points.size(); ++c) {
            // The chain of timeDrawWork costs plus the frame overhead.
            const GpuSimulator sim(points[c]);
            double group = 0.0;
            for (std::size_t i = 0; i < wt.drawCount(); ++i) {
                const double ns = sim.timeDrawWork(wt.work(i)).totalNs;
                EXPECT_EQ(one.drawNsAt(c, i), ns);
                group += ns;
            }
            const double expect =
                sizes.empty() ? 0.0
                              : group + points[c].frameOverheadUs * 1e3;
            EXPECT_EQ(one.totalNs[c], expect);
            EXPECT_EQ(one.totalNs[c] > 0.0, !sizes.empty());
        }
        const SweepResult four =
            at(4, [&] { return retimeAll(wt, points, cfg); });
        EXPECT_TRUE(sameSweepResult(one, four))
            << sizes.size() << " groups";
    }
}

// ---------------------------------------------------------- golden studies --

/** FNV-1a 64 over the bit patterns of a sequence of doubles. */
class DoubleHash
{
  public:
    void
    add(double x)
    {
        const auto v = std::bit_cast<std::uint64_t>(x);
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(const std::vector<double> &xs)
    {
        for (double x : xs)
            add(x);
    }

    void
    add(const EnergyReport &e)
    {
        add(e.dynamicJ);
        add(e.leakageJ);
        add(e.dramJ);
        add(e.boardJ);
        add(e.seconds);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

// Hashes of every double in each study's result on the test trace,
// captured before the sweeps were reduced to one timeDrawWork loop.
constexpr std::uint64_t kFreqScalingHash = 0xd6ed223de6d864fbULL;
constexpr std::uint64_t kPathfindingHash = 0xadfd3288684b0c3eULL;
constexpr std::uint64_t kDvfsHash = 0x42fb3b77832a098dULL;

std::uint64_t
freqScalingHash()
{
    const FreqScalingResult r = runFreqScaling(
        testTrace(), testSubset(), makeGpuPreset("baseline"),
        FreqScalingConfig{});
    DoubleHash h;
    h.add(r.scales);
    h.add(r.parentNs);
    h.add(r.subsetNs);
    h.add(r.parentImprovement);
    h.add(r.subsetImprovement);
    h.add(r.correlation);
    h.add(r.maxImprovementGap);
    return h.value();
}

std::uint64_t
pathfindingHash()
{
    std::vector<GpuConfig> designs;
    for (const std::string &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));
    const PathfindingResult r =
        runPathfinding(testTrace(), testSubset(), designs);
    DoubleHash h;
    for (const DesignPointScore &p : r.points) {
        h.add(p.parentNs);
        h.add(p.subsetNs);
        h.add(p.parentSpeedup);
        h.add(p.subsetSpeedup);
    }
    h.add(r.speedupCorrelation);
    h.add(r.rankCorrelation);
    return h.value();
}

std::uint64_t
dvfsHash()
{
    const DvfsResult r = runDvfsStudy(testTrace(), testSubset(),
                                      makeGpuPreset("baseline"),
                                      DvfsConfig{});
    DoubleHash h;
    for (const DvfsPoint &p : r.points) {
        h.add(p.scale);
        h.add(p.parent);
        h.add(p.subset);
    }
    h.add(r.energyCorrelation);
    h.add(r.edpCorrelation);
    return h.value();
}

TEST_F(SweepTest, FreqScalingMatchesGoldenHash)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::uint64_t got = at(threads, freqScalingHash);
        EXPECT_EQ(got, kFreqScalingHash)
            << "0x" << std::hex << got << " at threads=" << threads;
    }
}

TEST_F(SweepTest, PathfindingMatchesGoldenHash)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::uint64_t got = at(threads, pathfindingHash);
        EXPECT_EQ(got, kPathfindingHash)
            << "0x" << std::hex << got << " at threads=" << threads;
    }
}

TEST_F(SweepTest, DvfsMatchesGoldenHash)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::uint64_t got = at(threads, dvfsHash);
        EXPECT_EQ(got, kDvfsHash)
            << "0x" << std::hex << got << " at threads=" << threads;
    }
}

// --------------------------------------------------------- memory traffic --

TEST_F(SweepTest, DrawTrafficIsRepeatable)
{
    const Trace &trace = testTrace();
    MemorySystem memory(makeGpuPreset("baseline"));
    const DrawCall &draw = trace.frame(0).draws()[0];

    const MemoryTraffic first = memory.drawTraffic(trace, draw);
    const MemoryTraffic second = memory.drawTraffic(trace, draw);
    EXPECT_EQ(first.texSamples, second.texSamples);
    EXPECT_EQ(first.texL2FillBytes, second.texL2FillBytes);
    EXPECT_EQ(first.texDramBytes, second.texDramBytes);
    EXPECT_EQ(first.vertexDramBytes, second.vertexDramBytes);
    EXPECT_EQ(first.rtDramBytes, second.rtDramBytes);
}

} // namespace
} // namespace gws
