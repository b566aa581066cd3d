/**
 * @file
 * METIS-style multilevel graph partitioner: coarsen by heavy-edge
 * matching, partition the coarsest graph by greedy growing, then
 * uncoarsen with Fiduccia–Mattheyses-style boundary refinement at
 * every level.
 *
 * Its consumer is the graph-partition clustering family
 * (cluster/graph_partition.hh), which partitions a k-NN
 * feature-similarity graph into clusters — the methodology check next
 * to k-means / leader / agglomerative. The objective is therefore the
 * classic min-cut one: refinement accepts only moves that strictly
 * reduce the edge cut (cut edges are weak similarities) while no part
 * grows past a loose balance tolerance.
 *
 * Everything is deterministic: node visits ascend by index, ties break
 * toward the lowest id, and no randomness is involved — equal inputs
 * give bit-equal partitions on every platform and thread count.
 */

#ifndef GWS_PARTITION_MULTILEVEL_HH
#define GWS_PARTITION_MULTILEVEL_HH

#include "partition/graph.hh"

namespace gws {

/** Multilevel partitioner knobs. */
struct PartitionConfig
{
    /** Target part count (clamped to [1, nodes]). */
    std::size_t parts = 2;
};

/** One multilevel partition. */
struct PartitionResult
{
    /** Parts actually produced (== clamped config.parts; 0 iff n == 0). */
    std::size_t parts = 0;

    /** Node -> part, every part non-empty; length nodeCount(). */
    std::vector<std::uint32_t> assignment;

    /** Total node weight per part. */
    std::vector<double> partWeights;

    /** Sum of edge weights crossing parts. */
    double cutCost = 0.0;

    /** Max part weight / ideal part weight (1.0 = perfect). */
    double imbalance = 1.0;

    /** Coarsening levels taken. */
    std::size_t coarsenLevels = 0;

    /** Refinement passes run, summed over levels. */
    std::size_t refinePasses = 0;
};

/**
 * Partition `graph` into config.parts parts. Parts are guaranteed
 * non-empty. Emits part.coarsen / part.init / part.refine spans and the
 * gws.part.* metrics.
 */
PartitionResult multilevelPartition(const PartGraph &graph,
                                    const PartitionConfig &config);

} // namespace gws

#endif // GWS_PARTITION_MULTILEVEL_HH
