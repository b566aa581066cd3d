#include "cluster/graph_partition.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/feature_matrix.hh"
#include "partition/multilevel.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/** Neighbors per point in the similarity graph. */
constexpr std::size_t kNeighbors = 8;

/**
 * Symmetric k-NN similarity graph: each point contributes edges to
 * its kNeighbors nearest others (squared distances from the SoA
 * batch kernel, ties toward the lower index), weighted 1 / (1 + d²)
 * so near-duplicates bind tightly and far pairs barely matter.
 * buildGraph() symmetrizes and coalesces the union.
 */
PartGraph
knnGraph(const std::vector<FeatureVector> &points)
{
    const std::size_t n = points.size();
    const FeatureMatrix matrix(points);
    const std::size_t k = std::min(kNeighbors, n - 1);

    std::vector<GraphEdge> edges;
    edges.reserve(n * k);
    std::vector<double> dist(n);
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        matrix.squaredDistanceBatch(0, n, points[i], dist.data());
        for (std::size_t j = 0; j < n; ++j)
            order[j] = static_cast<std::uint32_t>(j);
        order[i] = order[n - 1]; // drop self before the selection
        std::partial_sort(order.begin(),
                          order.begin() +
                              static_cast<std::ptrdiff_t>(k),
                          order.begin() +
                              static_cast<std::ptrdiff_t>(n - 1),
                          [&dist](std::uint32_t a, std::uint32_t b) {
                              return dist[a] != dist[b]
                                         ? dist[a] < dist[b]
                                         : a < b;
                          });
        for (std::size_t j = 0; j < k; ++j)
            edges.push_back({static_cast<std::uint32_t>(i), order[j],
                             1.0 / (1.0 + dist[order[j]])});
    }
    return buildGraph(std::vector<double>(n, 1.0), edges);
}

} // namespace

Clustering
graphPartitionCluster(const std::vector<FeatureVector> &points,
                      const GraphPartitionConfig &config)
{
    const std::size_t n = points.size();
    GWS_ASSERT(n > 0, "graphPartitionCluster on an empty point set");

    std::size_t k = config.targetK;
    if (k == 0) {
        const double eff =
            std::clamp(config.targetEfficiency, 0.0, 1.0);
        k = static_cast<std::size_t>(
            std::lround(static_cast<double>(n) * (1.0 - eff)));
    }
    k = std::clamp<std::size_t>(k, 1, n);

    Clustering out;
    out.k = k;
    if (k == n) {
        // Singletons need no graph.
        out.assignment.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            out.assignment[i] = static_cast<std::uint32_t>(i);
            out.representatives.push_back(i);
            out.centroids.push_back(points[i]);
        }
        out.validate();
        return out;
    }

    PartitionConfig pcfg;
    pcfg.parts = k;
    PartitionResult res = multilevelPartition(knnGraph(points), pcfg);
    out.assignment = std::move(res.assignment);

    // Centroids are member means, accumulated in ascending item order.
    out.centroids.assign(k, FeatureVector{});
    std::vector<std::size_t> sizes(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            out.centroids[c].at(d) += points[i].at(d);
        ++sizes[c];
    }
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            out.centroids[c].at(d) /= static_cast<double>(sizes[c]);

    // Representative = member nearest its centroid (strict <, so the
    // lowest index wins ties).
    out.representatives.assign(k, 0);
    std::vector<double> best(k,
                             std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        const double d =
            points[i].squaredDistance(out.centroids[c]);
        if (d < best[c]) {
            best[c] = d;
            out.representatives[c] = i;
        }
    }
    out.validate();
    return out;
}

} // namespace gws
