/**
 * @file
 * DVFS energy study — the perf/W side of pathfinding. Sweeps the core
 * clock like the frequency-scaling study, but scores each point with
 * the power model: total energy, average power, and the energy-delay
 * product (EDP). The question the subset must answer correctly is not
 * just "how much faster" but "which frequency is EDP-optimal" — a
 * non-trivial target because raising the clock shortens leakage/board
 * time while raising dynamic power superlinearly through the V-f
 * curve.
 */

#ifndef GWS_CORE_ENERGY_STUDY_HH
#define GWS_CORE_ENERGY_STUDY_HH

#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/power.hh"

namespace gws {

/** DVFS sweep configuration. */
struct DvfsConfig
{
    /** Core-clock multipliers applied to the base design. */
    std::vector<double> scales{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};

    /** Power model parameters. */
    PowerConfig power;
};

/** One sweep point's scores, parent vs subset-predicted. */
struct DvfsPoint
{
    /** Core-clock multiplier. */
    double scale = 1.0;

    /** Energy from the fully-simulated parent. */
    EnergyReport parent;

    /** Energy from the subset prediction. */
    EnergyReport subset;
};

/** Result of one DVFS study. */
struct DvfsResult
{
    /** Sweep points in scale order. */
    std::vector<DvfsPoint> points;

    /** Index of the parent's EDP-optimal point. */
    std::size_t parentOptimal = 0;

    /** Index of the subset's EDP-optimal point. */
    std::size_t subsetOptimal = 0;

    /** Pearson correlation of the total-energy curves. */
    double energyCorrelation = 0.0;

    /** Pearson correlation of the EDP curves. */
    double edpCorrelation = 0.0;

    /** True when both pick the same EDP-optimal frequency. */
    bool optimumAgrees() const { return parentOptimal == subsetOptimal; }

    /**
     * True when the subset's EDP optimum is within one sweep step of
     * the parent's — the meaningful criterion when the EDP curve is
     * flat around its minimum and adjacent points are near-ties.
     */
    bool optimumWithinOneStep() const;
};

/**
 * Run the study: one traffic pass over parent and subset, then
 * re-time and re-price energy at every clock point.
 */
DvfsResult runDvfsStudy(const Trace &trace, const WorkloadSubset &subset,
                        const GpuConfig &base, const DvfsConfig &config);

} // namespace gws

#endif // GWS_CORE_ENERGY_STUDY_HH
