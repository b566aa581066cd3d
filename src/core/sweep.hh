/**
 * @file
 * The retime-many half of the compute-once / retime-many sweeps:
 * evaluate all draws of a WorkTrace under many GPU configs in one
 * pass.
 *
 * The paper's headline experiments are sweeps — frequency scaling,
 * design-point pathfinding, the DVFS energy study — that re-time the
 * same per-draw work at every design point. retimeAll() runs one loop,
 * parallel over draw groups (frames / subset units), that prices every
 * row under every config with GpuSimulator::timeDrawWork and produces
 * per-group and per-trace totals plus per-config bottleneck
 * histograms.
 *
 * The results are bit-identical to GpuSimulator::simulateFrame /
 * simulateTrace by construction, because every per-draw cost comes
 * from the same timeDrawWork and is accumulated in the same order:
 *
 *  - A group's cost is the serial left-to-right chain of its draw
 *    costs in submission order plus the config's frame overhead.
 *  - The trace total chains group costs in ascending group order.
 *  - Bottleneck histograms accumulate per group in draw order and
 *    combine group partials in ascending group order.
 *
 * tests/test_sweep.cc checks retimeAll against simulateFrame.
 */

#ifndef GWS_CORE_SWEEP_HH
#define GWS_CORE_SWEEP_HH

#include <span>
#include <vector>

#include "core/subset_pipeline.hh"
#include "gpusim/work_trace.hh"

namespace gws {

/**
 * Retiming implementation selector. There is one implementation; the
 * enum and SweepConfig::path remain only so that existing callers that
 * copy the field still compile.
 */
enum class SweepPath : std::uint8_t
{
    Auto = 0,
};

/** retimeAll() options. */
struct SweepConfig
{
    /** No effect (see SweepPath). */
    SweepPath path = SweepPath::Auto;

    /**
     * Also record every per-draw cost (configs × draws doubles).
     * Needed when the caller expands representative costs through a
     * prediction mode (subset sweeps); off for parent sweeps where
     * only group/trace totals matter.
     */
    bool perDraw = false;
};

/** All totals of one retimeAll() pass. */
struct SweepResult
{
    /** Configs evaluated (the span's size, in order). */
    std::size_t configCount = 0;

    /** Groups in the work trace. */
    std::size_t groupCount = 0;

    /** Draws in the work trace. */
    std::size_t drawCount = 0;

    /** Per-config trace total (chain of group costs). */
    std::vector<double> totalNs;

    /** Per-config, per-group cost incl. frame overhead; [c × groups + g]. */
    std::vector<double> groupNs;

    /** Per-config bottleneck time by stage; [c × numStages + s]. */
    std::vector<double> bottleneckNs;

    /** Per-config bottleneck draw count by stage; [c × numStages + s]. */
    std::vector<std::uint64_t> bottleneckCount;

    /** Per-config per-draw cost when SweepConfig::perDraw; [c × draws + i]. */
    std::vector<double> drawNs;

    /** Cost of group g under config c. */
    double groupNsAt(std::size_t c, std::size_t g) const
    {
        return groupNs[c * groupCount + g];
    }

    /** Cost of draw i under config c (perDraw runs only). */
    double drawNsAt(std::size_t c, std::size_t i) const
    {
        return drawNs[c * drawCount + i];
    }

    /** Bottleneck time of stage s under config c. */
    double bottleneckNsAt(std::size_t c, Stage s) const
    {
        return bottleneckNs[c * numStages + static_cast<std::size_t>(s)];
    }

    /** Draws bottlenecked on stage s under config c. */
    std::uint64_t bottleneckCountAt(std::size_t c, Stage s) const
    {
        return bottleneckCount[c * numStages +
                               static_cast<std::size_t>(s)];
    }
};

/**
 * Evaluate all draws × all configs. Every config must share the work
 * trace's capacity hash (clock / throughput changes only) — capacity
 * changes need a fresh WorkTrace. Panics otherwise.
 */
SweepResult retimeAll(const WorkTrace &trace,
                      std::span<const GpuConfig> configs,
                      const SweepConfig &config = {});

/**
 * Flatten a subset's representative draws: one group per SubsetUnit,
 * rows in cluster order (the order predictItemCosts expects its
 * representative costs in). Built in parallel like buildWorkTrace.
 */
WorkTrace buildSubsetWorkTrace(const Trace &trace,
                               const WorkloadSubset &subset,
                               const GpuSimulator &simulator);

/** base with every scale applied to the core clock, in sweep order. */
std::vector<GpuConfig> clockSweepConfigs(const GpuConfig &base,
                                         const std::vector<double> &scales);

} // namespace gws

#endif // GWS_CORE_SWEEP_HH
