/**
 * @file
 * Per-frame draw-call subsetting: extract micro-architecture-
 * independent features for a frame's draws, normalize them within the
 * frame, and cluster — yielding the representatives that stand in for
 * the whole frame during simulation.
 */

#ifndef GWS_CORE_DRAW_SUBSET_HH
#define GWS_CORE_DRAW_SUBSET_HH

#include "cluster/agglomerative.hh"
#include "cluster/clustering.hh"
#include "cluster/graph_partition.hh"
#include "cluster/kselect.hh"
#include "cluster/leader.hh"
#include "cluster/quality.hh"
#include "features/pca.hh"
#include "trace/trace.hh"

namespace gws {

/** Which clustering algorithm drives the per-frame subsetting. */
enum class ClusterAlgo : std::uint8_t
{
    /** Single-pass leader clustering at a radius (production default). */
    Leader = 0,

    /** k-means with BIC-driven k selection (SimPoint style). */
    KMeansBic = 1,

    /** Bottom-up centroid-linkage merging to a distance threshold. */
    Agglomerative = 2,

    /** Multilevel partitioning of the k-NN similarity graph. */
    GraphPartition = 3,
};

/** Printable algorithm name. */
const char *toString(ClusterAlgo algo);

/** Configuration of the per-frame draw subsetting. */
struct DrawSubsetConfig
{
    /** Algorithm choice. */
    ClusterAlgo algo = ClusterAlgo::Leader;

    /** Leader parameters (used when algo == Leader). */
    LeaderConfig leader;

    /** k-selection parameters (used when algo == KMeansBic). */
    KSelectConfig kselect;

    /** Agglomerative parameters (used when algo == Agglomerative). */
    AgglomerativeConfig agglo;

    /** Graph-partition parameters (used when algo == GraphPartition). */
    GraphPartitionConfig graphPart;

    /** How member costs are predicted from representatives. */
    PredictionMode prediction = PredictionMode::Uniform;

    /**
     * Feature space the clustering runs in: raw normalized features
     * or the PCA-projected space (Auto resolves --pca / GWS_PCA).
     * Every algorithm above clusters the same projected points.
     */
    FeatureSpaceConfig features;
};

/** Per-frame subsetting result. */
struct FrameSubset
{
    /** Clustering over the frame's draws (submission order). */
    Clustering clustering;

    /** Per-draw micro-architecture-independent work units. */
    std::vector<double> workUnits;

    /** Draws that must be simulated (= clustering.k). */
    std::size_t representativeCount() const { return clustering.k; }
};

/**
 * Micro-architecture-independent work scalar of a draw: total dynamic
 * shader operations plus a fixed per-draw submission term. Used by
 * WorkScaled prediction.
 */
double drawWorkUnits(const Trace &trace, const DrawCall &draw);

/** Build the subset of one frame. Panics on an empty frame. */
FrameSubset buildFrameSubset(const Trace &trace, const Frame &frame,
                             const DrawSubsetConfig &config);

} // namespace gws

#endif // GWS_CORE_DRAW_SUBSET_HH
