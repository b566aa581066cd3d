/**
 * @file
 * Tests of the multilevel graph partitioner and its consumer, the
 * graph-partition clustering family: degenerate shapes, the min-cut
 * objective on a two-blob graph, valid clusterings at every k, and a
 * golden pin of the clusterings the family produces on corpus frames
 * of several genres.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/graph_partition.hh"
#include "core/draw_subset.hh"
#include "partition/graph.hh"
#include "partition/multilevel.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/** Deterministic pseudo-random points in feature space. */
std::vector<FeatureVector>
testPoints(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<FeatureVector> points(n);
    for (auto &p : points)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            p.at(d) = rng.uniform(0.0, 1.0);
    return points;
}

/** Unit-weight path graph 0 - 1 - ... - (n-1). */
PartGraph
pathGraph(std::size_t n)
{
    std::vector<GraphEdge> edges;
    for (std::uint32_t i = 0; i + 1 < n; ++i)
        edges.push_back({i, i + 1, 1.0});
    return buildGraph(std::vector<double>(n, 1.0), edges);
}

/** FNV-1a 64 over a clustering's k, assignment and representatives. */
std::uint64_t
clusteringHash(const Clustering &c)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix(c.k);
    for (std::uint32_t a : c.assignment)
        mix(a);
    for (std::size_t r : c.representatives)
        mix(r);
    return h;
}

// ------------------------------------------------------- multilevel core --

TEST(MultilevelPartitionTest, DegenerateShapes)
{
    // Empty graph.
    const PartitionResult empty = multilevelPartition(PartGraph{}, {});
    EXPECT_EQ(empty.parts, 0u);
    EXPECT_TRUE(empty.assignment.empty());

    // Single node: parts clamp to 1.
    PartitionConfig cfg;
    cfg.parts = 4;
    const PartitionResult one = multilevelPartition(pathGraph(1), cfg);
    EXPECT_EQ(one.parts, 1u);
    ASSERT_EQ(one.assignment.size(), 1u);
    EXPECT_EQ(one.assignment[0], 0u);

    // parts == n: identity.
    const PartGraph path = pathGraph(4);
    path.validate();
    const PartitionResult id = multilevelPartition(path, cfg);
    EXPECT_EQ(id.parts, 4u);
    EXPECT_EQ(id.assignment,
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(id.cutCost, 3.0); // every path edge cut
}

TEST(MultilevelPartitionTest, CutsTwoBlobsAtTheWeakBridge)
{
    // Two dense blobs joined by one weak edge: the min-cut objective
    // keeps each part non-empty and cuts the bridge.
    std::vector<GraphEdge> edges;
    const std::uint32_t half = 20;
    for (std::uint32_t i = 0; i < half; ++i)
        for (std::uint32_t j = i + 1; j < half; ++j) {
            edges.push_back({i, j, 4.0});
            edges.push_back({i + half, j + half, 4.0});
        }
    edges.push_back({0, half, 0.1});
    const PartGraph graph =
        buildGraph(std::vector<double>(2 * half, 1.0), edges);
    graph.validate();

    PartitionConfig cfg;
    cfg.parts = 2;
    const PartitionResult a = multilevelPartition(graph, cfg);
    const PartitionResult b = multilevelPartition(graph, cfg);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.partWeights.size(), 2u);
    EXPECT_GT(a.partWeights[0], 0.0);
    EXPECT_GT(a.partWeights[1], 0.0);
    EXPECT_LE(a.cutCost, 8.0 + 0.1);
}

// ----------------------------------------------------- clustering family --

TEST(GraphPartitionClusterTest, ProducesValidClusterings)
{
    const auto points = testPoints(60);
    for (std::size_t k : {1u, 2u, 7u, 59u, 60u}) {
        GraphPartitionConfig cfg;
        cfg.targetK = k;
        const Clustering c = graphPartitionCluster(points, cfg);
        EXPECT_EQ(c.k, k);
        EXPECT_EQ(c.items(), points.size());
        // validate() ran inside; spot-check representative coherence.
        for (std::size_t i = 0; i < c.k; ++i)
            EXPECT_EQ(c.assignment[c.representatives[i]], i);
    }
}

TEST(GraphPartitionClusterTest, SinglePointAndEfficiencyTarget)
{
    const Clustering one = graphPartitionCluster(testPoints(1), {});
    EXPECT_EQ(one.k, 1u);
    EXPECT_EQ(one.representatives[0], 0u);

    GraphPartitionConfig cfg;
    cfg.targetEfficiency = 0.75;
    const Clustering c = graphPartitionCluster(testPoints(100), cfg);
    EXPECT_EQ(c.k, 25u); // n * (1 - 0.75)
    EXPECT_NEAR(c.efficiency(), 0.75, 1e-9);
}

TEST(GraphPartitionClusterTest, DeterministicAcrossCalls)
{
    const auto points = testPoints(80, 7);
    GraphPartitionConfig cfg;
    cfg.targetK = 10;
    const Clustering a = graphPartitionCluster(points, cfg);
    const Clustering b = graphPartitionCluster(points, cfg);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
}

TEST(GraphPartitionClusterTest, GoldenCorpusFrames)
{
    // The graphpart subset of one mid-playthrough frame from each of
    // four genres (corridor shooter, open world, racing, compute), at
    // the default subsetting config. Any change to the k-NN graph, the
    // partitioner or the representative choice moves these hashes.
    struct Golden
    {
        const char *game;
        std::size_t frame;
        std::size_t k;
        std::uint64_t hash;
    };
    const Golden golden[] = {
        {"shock1", 66, 41, 0x5db3081097ae8536ULL},
        {"frontier", 87, 43, 0x069dfd571882c7b5ULL},
        {"circuit", 62, 41, 0x9740b1547d1720ecULL},
        {"tensor", 55, 39, 0xb5bf0464a488843cULL},
    };
    DrawSubsetConfig cfg;
    cfg.algo = ClusterAlgo::GraphPartition;
    for (const Golden &g : golden) {
        const Trace trace =
            GameGenerator(builtinProfile(g.game, SuiteScale::Ci))
                .generate();
        ASSERT_LT(g.frame, trace.frameCount()) << g.game;
        const FrameSubset fs =
            buildFrameSubset(trace, trace.frame(g.frame), cfg);
        EXPECT_EQ(fs.clustering.k, g.k) << g.game;
        EXPECT_EQ(clusteringHash(fs.clustering), g.hash) << g.game;
    }
}

} // namespace
} // namespace gws
