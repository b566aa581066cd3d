/**
 * @file
 * The draw-call-level GPU performance model.
 *
 * Each draw flows through a pipeline of throughput resources:
 * command-processor setup, vertex fetch, vertex shading, rasterization,
 * pixel shading, texture filtering (backed by the simulated cache
 * hierarchy), ROP, the L2 data path, and DRAM. The pipeline is fully
 * overlapped, so a draw's time is its setup cost plus the time of its
 * slowest (bottleneck) stage. Core-domain stages scale with the core
 * clock; DRAM time scales with the memory clock only — which is what
 * gives the frequency-scaling experiments their non-trivial shape.
 *
 * The model is deliberately *per-draw pure*: a draw costs the same
 * simulated alone as inside its frame. That property is what makes
 * representative-subset simulation exact at the substrate level, so
 * any subsetting error measured by the experiments comes from the
 * methodology (clustering/phase detection), not from simulator
 * context effects.
 */

#ifndef GWS_GPUSIM_GPU_SIMULATOR_HH
#define GWS_GPUSIM_GPU_SIMULATOR_HH

#include <array>
#include <string>
#include <vector>

#include "gpusim/gpu_config.hh"
#include "gpusim/memory_system.hh"
#include "trace/trace.hh"

namespace gws {

/** Pipeline stages of the performance model. */
enum class Stage : std::uint8_t
{
    Setup = 0,
    VertexFetch,
    VertexShade,
    Raster,
    PixelShade,
    Texture,
    Rop,
    L2,
    Dram,
    NumStages,
};

/** Printable stage name. */
const char *toString(Stage stage);

/** Number of modeled stages. */
constexpr std::size_t numStages = static_cast<std::size_t>(Stage::NumStages);

/**
 * Draws per chunk when a frame prices its draws in parallel: one draw
 * costs roughly a microsecond to simulate, so this keeps chunks well
 * above the pool's per-task overhead while still splitting the
 * multi-hundred-draw frames the synthetic games produce.
 */
constexpr std::size_t drawGrain = 32;

/** Cost breakdown of one simulated draw call. */
struct DrawCost
{
    /** Per-stage occupancy time in nanoseconds. */
    std::array<double, numStages> stageNs{};

    /** Wall time of the draw: setup + slowest pipelined stage. */
    double totalNs = 0.0;

    /** The limiting stage. */
    Stage bottleneck = Stage::Setup;

    /** Memory traffic detail. */
    MemoryTraffic traffic;

    /** Time of one stage. */
    double ns(Stage s) const
    {
        return stageNs[static_cast<std::size_t>(s)];
    }
};

/** Cost summary of one simulated frame. */
struct FrameCost
{
    /** Frame index within the trace. */
    std::uint32_t frameIndex = 0;

    /** Per-draw wall times in submission order. */
    std::vector<double> drawNs;

    /** Sum of draw times plus the per-frame overhead. */
    double totalNs = 0.0;

    /** Per-stage time summed over draws (bottleneck stages only). */
    std::array<double, numStages> bottleneckNs{};

    /** How many draws bottlenecked on each stage. */
    std::array<std::uint64_t, numStages> bottleneckCount{};
};

/** Cost summary of a whole trace. */
struct TraceCost
{
    /** Per-frame costs in order. */
    std::vector<FrameCost> frames;

    /** Sum of frame times. */
    double totalNs = 0.0;

    /** Draw calls simulated. */
    std::uint64_t drawsSimulated = 0;

    /** Mean frame time in milliseconds. */
    double meanFrameMs() const;

    /** Frames per second implied by the mean frame time. */
    double fps() const;
};

/**
 * Clock-independent work of one draw: invocation counts, weighted
 * shader ops, and memory traffic. Everything here depends on the
 * architecture's *capacities* (cache geometry) but on no clock, so a
 * frequency sweep can compute the work once and re-time it per clock
 * point — the fast path FrequencyScalingStudy uses.
 */
struct DrawWork
{
    double vertices = 0.0;
    double primitives = 0.0;
    double pixels = 0.0;
    double vertexFetchBytes = 0.0;
    double vsWeightedOps = 0.0;
    double psWeightedOps = 0.0;
    double ropPixels = 0.0;
    MemoryTraffic traffic;

    /** Equality over all fields. */
    bool operator==(const DrawWork &other) const = default;
};

/** The GPU performance simulator bound to one architecture config. */
class GpuSimulator
{
  public:
    /** Construct for a design point; validates the config. */
    explicit GpuSimulator(GpuConfig config);

    /** The design point being simulated. */
    const GpuConfig &config() const { return cfg; }

    /**
     * Compute the clock-independent work of one draw. Memoized in the
     * process-global draw-work cache (see draw_work_cache.hh) keyed by
     * the draw's resolved content and this config's capacity hash;
     * a hit returns the exact value a fresh computation produced.
     */
    DrawWork computeDrawWork(const Trace &trace,
                             const DrawCall &draw) const;

    /** Price previously-computed work at this config's clocks. */
    DrawCost timeDrawWork(const DrawWork &work) const;

    /** Simulate one draw in isolation. */
    DrawCost simulateDraw(const Trace &trace, const DrawCall &draw) const;

    /** Simulate one frame (all draws plus frame overhead). */
    FrameCost simulateFrame(const Trace &trace, const Frame &frame) const;

    /** Simulate a whole trace. */
    TraceCost simulateTrace(const Trace &trace) const;

  private:
    /** Weighted SIMD ops per invocation of a shader. */
    double weightedOps(const InstructionMix &mix) const;

    /** The uncached draw-work computation computeDrawWork memoizes. */
    DrawWork computeDrawWorkUncached(const Trace &trace,
                                     const DrawCall &draw) const;

    GpuConfig cfg;
    MemorySystem memory;

    /** Hash of the capacity parameters, precomputed once per config. */
    std::uint64_t capacityKey = 0;
};

} // namespace gws

#endif // GWS_GPUSIM_GPU_SIMULATOR_HH
