#include "partition/graph.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gws {

namespace {

/**
 * Floor for node weights: a zero-cost node would make balance ratios
 * (max part weight / ideal) degenerate when a part holds only such
 * nodes, and contributes nothing to the objective. Small enough
 * to never distort a real cost, large enough to stay a normal double.
 */
constexpr double kMinNodeWeight = 1e-9;

} // namespace

double
PartGraph::totalNodeWeight() const
{
    double sum = 0.0;
    for (double w : vwgt)
        sum += w;
    return sum;
}

void
PartGraph::validate() const
{
    const std::size_t n = nodeCount();
    GWS_ASSERT(vwgt.size() == n, "vwgt/xadj length mismatch");
    GWS_ASSERT(xadj.front() == 0, "xadj must start at 0");
    GWS_ASSERT(xadj.back() == adj.size(), "xadj must end at adj size");
    GWS_ASSERT(ewgt.size() == adj.size(), "ewgt/adj length mismatch");
    for (std::size_t i = 0; i < n; ++i) {
        GWS_ASSERT(xadj[i] <= xadj[i + 1], "xadj must be ascending");
        GWS_ASSERT(vwgt[i] > 0.0, "node ", i, " has non-positive weight");
        for (std::size_t e = xadj[i]; e < xadj[i + 1]; ++e) {
            GWS_ASSERT(adj[e] < n, "edge of node ", i,
                       " points out of range");
            GWS_ASSERT(adj[e] != i, "self-loop on node ", i);
            GWS_ASSERT(ewgt[e] >= 0.0, "negative edge weight on node ",
                       i);
        }
    }
}

PartGraph
buildGraph(std::vector<double> node_weights,
           const std::vector<GraphEdge> &edges)
{
    const std::size_t n = node_weights.size();

    // Sort the (doubled) edge list by (source, neighbor) so duplicate
    // pairs coalesce and every adjacency run comes out ascending.
    std::vector<GraphEdge> dir;
    dir.reserve(edges.size() * 2);
    for (const GraphEdge &e : edges) {
        GWS_ASSERT(e.a < n && e.b < n, "edge (", e.a, ", ", e.b,
                   ") out of range for ", n, " nodes");
        if (e.a == e.b)
            continue; // self-loops carry no cut information
        dir.push_back(e);
        dir.push_back({e.b, e.a, e.weight});
    }
    std::sort(dir.begin(), dir.end(),
              [](const GraphEdge &x, const GraphEdge &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });

    PartGraph g;
    g.vwgt = std::move(node_weights);
    for (double &w : g.vwgt)
        w = std::max(w, kMinNodeWeight);
    g.xadj.assign(1, 0);
    g.xadj.reserve(n + 1);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (cursor < dir.size() && dir[cursor].a == i) {
            const std::uint32_t nb = dir[cursor].b;
            double w = dir[cursor].weight;
            ++cursor;
            while (cursor < dir.size() && dir[cursor].a == i &&
                   dir[cursor].b == nb) {
                w += dir[cursor].weight; // coalesce duplicates
                ++cursor;
            }
            g.adj.push_back(nb);
            g.ewgt.push_back(w);
        }
        g.xadj.push_back(g.adj.size());
    }
    return g;
}

} // namespace gws
