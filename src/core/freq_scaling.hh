/**
 * @file
 * The frequency-scaling validation study: sweep the GPU core clock,
 * price the parent workload (full simulation) and the subset
 * (weighted representative simulation) at every point, and correlate
 * their performance-improvement curves. The paper reports correlation
 * coefficients of 99.7 %+ for subsets below 1 % of the parent.
 *
 * Because cache behavior is clock-independent, the study computes
 * per-draw work once (a parallel WorkTrace build) and re-times it at
 * every clock point in one retimeAll() pass — see core/sweep.hh.
 */

#ifndef GWS_CORE_FREQ_SCALING_HH
#define GWS_CORE_FREQ_SCALING_HH

#include <vector>

#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/gpu_simulator.hh"

namespace gws {

/** Clock sweep configuration. */
struct FreqScalingConfig
{
    /** Core-clock multipliers applied to the base config. */
    std::vector<double> scales{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};

    /** Index of the normalization point (scale treated as baseline). */
    std::size_t baselineIndex = 2;

    /** No effect (see SweepPath). */
    SweepPath path = SweepPath::Auto;
};

/** Result of one frequency-scaling study. */
struct FreqScalingResult
{
    /** The swept multipliers. */
    std::vector<double> scales;

    /** Parent total cost at each point (full simulation). */
    std::vector<double> parentNs;

    /** Subset-predicted total cost at each point. */
    std::vector<double> subsetNs;

    /** Parent speedup vs the baseline point. */
    std::vector<double> parentImprovement;

    /** Subset speedup vs the baseline point. */
    std::vector<double> subsetImprovement;

    /** Pearson correlation of the improvement curves. */
    double correlation = 0.0;

    /** Largest |subset - parent| improvement gap across points. */
    double maxImprovementGap = 0.0;
};

/**
 * Run the study for one trace and its subset on top of a base
 * architecture configuration.
 */
FreqScalingResult runFreqScaling(const Trace &trace,
                                 const WorkloadSubset &subset,
                                 const GpuConfig &base,
                                 const FreqScalingConfig &config);

} // namespace gws

#endif // GWS_CORE_FREQ_SCALING_HH
