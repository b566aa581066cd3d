/**
 * @file
 * A whole trace's clock-independent draw work, computed once — the
 * compute-once half of the compute-once / retime-many sweeps.
 *
 * A sweep (frequency scaling, design-point pathfinding, the DVFS
 * energy study) re-times the same draws under many GPU configs. The
 * per-draw DrawWork is clock-independent, so the sweep layer computes
 * it exactly once per trace: buildWorkTrace() walks the frames in
 * parallel (reusing the process-global draw-work memo cache) and keeps
 * one DrawWork row per draw, grouped by frame through a per-group
 * offset table. retimeAll() (core/sweep.hh) then prices every row
 * under every config with GpuSimulator::timeDrawWork.
 *
 * Rows are grouped into *groups* — frames for a full trace, subset
 * units for a subset work trace (built by core/sweep.cc) — and each
 * group's rows keep their submission order, so serial accumulation
 * over a group reproduces the per-frame cost chains of
 * GpuSimulator::simulateFrame bit for bit.
 *
 * A WorkTrace is bound to the *capacity* parameters of the config it
 * was built under (capacityKey); any config sharing that capacity
 * hash — every point of a clock sweep, throughput-only design
 * variants — can be retimed against it.
 */

#ifndef GWS_GPUSIM_WORK_TRACE_HH
#define GWS_GPUSIM_WORK_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/gpu_simulator.hh"

namespace gws {

/** Per-draw clock-independent work, grouped by frame/unit. */
class WorkTrace
{
  public:
    /** Empty work trace. */
    WorkTrace() = default;

    /**
     * Allocate for the given group sizes (rows per group) under a
     * capacity hash. Rows start zeroed; builders fill them through
     * work(i).
     */
    WorkTrace(std::uint64_t capacity_key,
              const std::vector<std::size_t> &group_sizes);

    /** Total rows (draws). */
    std::size_t drawCount() const { return rows.size(); }

    /** Groups (frames of a trace, units of a subset). */
    std::size_t groupCount() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    /** First row of group g. */
    std::size_t groupBegin(std::size_t g) const { return offsets[g]; }

    /** One-past-last row of group g. */
    std::size_t groupEnd(std::size_t g) const { return offsets[g + 1]; }

    /** Hash of the capacity config the work was computed under. */
    std::uint64_t capacityKey() const { return capKey; }

    /** Work of row i. */
    const DrawWork &work(std::size_t i) const { return rows[i]; }

    /** Mutable row i, for builders. */
    DrawWork &work(std::size_t i) { return rows[i]; }

    /** Serial left-to-right sum of every row's DRAM bytes. */
    double totalDramBytes() const;

  private:
    std::vector<DrawWork> rows;
    std::vector<std::size_t> offsets; // groupCount() + 1
    std::uint64_t capKey = 0;
};

/**
 * Compute the whole trace's work under simulator's capacity config:
 * one group per frame, rows in submission order. Frames are priced in
 * parallel (one frame per chunk, like simulateTrace) through
 * GpuSimulator::computeDrawWork, so repeated draws hit the memo cache.
 * Build time and row count feed the runtime counters
 * (`--runtime-stats`).
 */
WorkTrace buildWorkTrace(const Trace &trace, const GpuSimulator &simulator);

} // namespace gws

#endif // GWS_GPUSIM_WORK_TRACE_HH
