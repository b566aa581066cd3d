/**
 * @file
 * The weighted-graph substrate of the multilevel partitioner.
 *
 * A PartGraph is a plain CSR adjacency structure with double node and
 * edge weights — node weights carry *cost* (points per coarse node),
 * edge weights carry *affinity* (feature-space similarity).
 * buildGraph() makes one from an explicit symmetric edge list; the
 * graph-partition clustering family (cluster/graph_partition.cc) feeds
 * it a k-NN similarity graph over feature vectors.
 */

#ifndef GWS_PARTITION_GRAPH_HH
#define GWS_PARTITION_GRAPH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gws {

/** Undirected weighted graph in CSR form. */
struct PartGraph
{
    /** CSR row offsets, nodeCount() + 1 entries ({0} when empty). */
    std::vector<std::size_t> xadj{0};

    /** Neighbor ids, one run per node (each undirected edge twice). */
    std::vector<std::uint32_t> adj;

    /** Edge weights (affinity, >= 0), aligned with `adj`. */
    std::vector<double> ewgt;

    /** Node weights (cost, > 0). */
    std::vector<double> vwgt;

    /** Number of nodes. */
    std::size_t nodeCount() const { return xadj.size() - 1; }

    /** Number of undirected edges (adjacency entries / 2). */
    std::size_t edgeCount() const { return adj.size() / 2; }

    /** Sum of all node weights. */
    double totalNodeWeight() const;

    /** Panics unless the CSR structure is self-consistent. */
    void validate() const;
};

/** One undirected edge of buildGraph()'s input. */
struct GraphEdge
{
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double weight = 1.0;
};

/**
 * General graph from node weights and an undirected edge list.
 * Duplicate (a, b) pairs accumulate their weights; self-loops are
 * dropped. Deterministic: adjacency runs are sorted by neighbor id.
 */
PartGraph buildGraph(std::vector<double> node_weights,
                     const std::vector<GraphEdge> &edges);

} // namespace gws

#endif // GWS_PARTITION_GRAPH_HH
