/**
 * @file
 * Per-draw memory behavior: texture accesses filtered through the
 * two-level cache hierarchy, plus vertex and render-target traffic,
 * reduced to L2 and DRAM byte counts the timing model prices.
 */

#ifndef GWS_GPUSIM_MEMORY_SYSTEM_HH
#define GWS_GPUSIM_MEMORY_SYSTEM_HH

#include "gpusim/gpu_config.hh"
#include "trace/trace.hh"

namespace gws {

/** Memory traffic of one draw call, by source. */
struct MemoryTraffic
{
    /** Texture samples issued. */
    std::uint64_t texSamples = 0;

    /** Texture L1 hit rate over sampled stream. */
    double texL1HitRate = 1.0;

    /** Texture L2 hit rate over L1 misses. */
    double texL2HitRate = 1.0;

    /** Bytes filled from L2 into the texture L1. */
    double texL2FillBytes = 0.0;

    /** Texture bytes fetched from DRAM (L2 misses). */
    double texDramBytes = 0.0;

    /** Vertex attribute bytes streamed from DRAM. */
    double vertexDramBytes = 0.0;

    /** Color + depth traffic reaching DRAM (after ROP-cache absorption). */
    double rtDramBytes = 0.0;

    /** All bytes crossing the L2 (both directions, all clients). */
    double totalL2Bytes() const;

    /** All bytes crossing the DRAM bus. */
    double totalDramBytes() const;

    /** Equality over all fields. */
    bool operator==(const MemoryTraffic &other) const = default;
};

/**
 * Memory-hierarchy model bound to one GpuConfig. Stateless across
 * draws by design: a draw's memory cost is a pure function of the draw,
 * so representative draws can be priced in isolation.
 */
class MemorySystem
{
  public:
    /** Construct for a validated configuration. */
    explicit MemorySystem(const GpuConfig &config);

    /** Compute the memory traffic of one draw. */
    MemoryTraffic drawTraffic(const Trace &trace,
                              const DrawCall &draw) const;

  private:
    /** Total bound bytes and bytes-per-texel sum of a draw's textures. */
    struct TexBindScan
    {
        std::uint64_t boundBytes = 0;
        std::uint64_t bytesPerTexelSum = 0;
    };

    TexBindScan boundTextureScan(const Trace &trace,
                                 const DrawCall &draw) const;

    const GpuConfig cfg;
};

} // namespace gws

#endif // GWS_GPUSIM_MEMORY_SYSTEM_HH
