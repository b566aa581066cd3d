/**
 * @file
 * Principal-component decorrelation of normalized feature vectors.
 *
 * The per-frame pipeline is Normalizer (z-score) -> PcaTransform
 * (rotate into the eigenbasis of the sample covariance, optionally
 * whiten and truncate to a cumulative-variance fraction). The
 * eigendecomposition is a cyclic Jacobi solver with a fixed sweep
 * order and no data-dependent pivoting, so a given sample produces
 * bit-identical transforms on every platform and thread count — the
 * same reproducibility contract the rest of the pipeline carries.
 *
 * Feature-space selection: an explicit FeatureSpaceConfig::path wins,
 * then the `--pca=<frac>|off`-installed process default, then
 * `GWS_PCA`. The default is the raw normalized space, so existing
 * outputs stay byte-identical unless PCA is requested.
 */

#ifndef GWS_FEATURES_PCA_HH
#define GWS_FEATURES_PCA_HH

#include <array>
#include <cstddef>
#include <vector>

#include "features/feature_vector.hh"

namespace gws {

/** Eigendecomposition of a small dense symmetric matrix. */
struct EigenDecomposition
{
    /** Eigenvalues, sorted descending (ties broken by input index). */
    std::vector<double> values;

    /**
     * Unit eigenvectors, one per eigenvalue, matching order. Each is
     * sign-canonicalized: the largest-magnitude component (first such
     * index on ties) is made positive, so the decomposition is unique
     * and platform-independent.
     */
    std::vector<std::vector<double>> vectors;
};

/**
 * Eigendecomposition of the n x n symmetric matrix `m` (row-major,
 * upper triangle trusted) by cyclic Jacobi rotations. The sweep
 * order is fixed (p < q in row-major order) and convergence is a
 * deterministic off-diagonal-norm threshold, so identical inputs
 * give bit-identical outputs everywhere.
 */
EigenDecomposition jacobiEigenSymmetric(const std::vector<double> &m,
                                        std::size_t n);

/** Tuning knobs for PcaTransform::fit. */
struct PcaConfig
{
    /**
     * Keep the smallest leading set of components whose cumulative
     * variance reaches this fraction of the total. Values >= 1.0
     * select the exact identity transform (no rotation, no
     * whitening), which is the documented A/B anchor: clustering at
     * --pca=1.0 matches the naive feature space bit for bit.
     */
    double varianceFraction = 1.0;

    /** Scale each kept component to unit variance. */
    bool whiten = true;
};

/**
 * A fitted PCA projection: rotate into the covariance eigenbasis,
 * whiten, truncate. Kept coordinates land in dimensions
 * [0, componentCount()); the rest of the FeatureVector is zero, so
 * downstream distance math needs no new vector type.
 */
class PcaTransform
{
  public:
    /**
     * Fit on a normalized sample. A varianceFraction >= 1.0 or a
     * (near-)zero total variance yields the identity transform.
     */
    static PcaTransform fit(const std::vector<FeatureVector> &sample,
                            const PcaConfig &config = PcaConfig{});

    /** Project one vector. */
    FeatureVector apply(const FeatureVector &v) const;

    /** Project a batch. */
    std::vector<FeatureVector>
    applyAll(const std::vector<FeatureVector> &vs) const;

    /** Number of kept components (numFeatureDims when identity). */
    std::size_t componentCount() const { return components; }

    /** Eigenvalue of kept component `i` (descending order). */
    double eigenvalue(std::size_t i) const { return values.at(i); }

    /** True when apply() is the exact identity. */
    bool isIdentity() const { return identity; }

  private:
    bool identity = true;
    std::size_t components = numFeatureDims;
    std::vector<double> values;
    /** Row j = eigenvector of component j, pre-scaled for whitening. */
    std::vector<std::array<double, numFeatureDims>> basis;
};

/** Which feature space the clustering stages see. */
enum class FeaturePath
{
    /** Resolve from --pca / GWS_PCA. */
    Auto,
    /** Raw normalized features (the historical behaviour). */
    Naive,
    /** PCA-projected features. */
    Pca,
};

/** Printable name of a feature path. */
const char *toString(FeaturePath path);

/** Sentinel for FeatureSpaceConfig::dropDim: drop nothing. */
constexpr std::size_t noDropDim = static_cast<std::size_t>(-1);

/** Per-pipeline feature-space selection. */
struct FeatureSpaceConfig
{
    /** Explicit path wins; Auto consults env knobs and the default. */
    FeaturePath path = FeaturePath::Auto;

    /** Cumulative-variance fraction when path is Pca. */
    double pcaVariance = 1.0;

    /**
     * Ablation hook: zero this normalized dimension before any
     * projection, removing its information from clustering while
     * keeping vector shapes intact. noDropDim = keep everything.
     */
    std::size_t dropDim = noDropDim;
};

/**
 * Set the process-global default feature space that Auto resolves to
 * (what `--pca` installs). Overrides GWS_PCA.
 */
void setDefaultFeatureSpace(const FeatureSpaceConfig &config);

/** Resolve Auto against env knobs and the process default. */
FeatureSpaceConfig resolveFeatureSpace(const FeatureSpaceConfig &config);

/**
 * Apply the configured feature-space transform to one frame's
 * normalized points: resolve Auto, zero dropDim if set, then fit and
 * apply PCA when the resolved path asks for it. Serial and
 * deterministic — safe to call from any pipeline stage.
 */
std::vector<FeatureVector>
projectFeatures(std::vector<FeatureVector> points,
                const FeatureSpaceConfig &config);

} // namespace gws

#endif // GWS_FEATURES_PCA_HH
