#include "gpusim/gpu_config.hh"

#include <bit>

#include "util/logging.hh"

namespace gws {

GpuConfig
GpuConfig::withCoreClockScale(double factor) const
{
    GWS_ASSERT(factor > 0.0, "clock scale must be positive: ", factor);
    GpuConfig out = *this;
    out.coreClockGhz *= factor;
    return out;
}

GpuConfig
GpuConfig::named(std::string new_name) const
{
    GpuConfig out = *this;
    out.name = std::move(new_name);
    return out;
}

void
GpuConfig::validate() const
{
    GWS_ASSERT(coreClockGhz > 0.0, "core clock must be positive");
    GWS_ASSERT(memClockGhz > 0.0, "memory clock must be positive");
    GWS_ASSERT(numCores >= 1, "need at least one shader core");
    GWS_ASSERT(simdWidth >= 1, "need at least one SIMD lane");
    GWS_ASSERT(specialOpWeight >= 1.0, "special ops cannot be cheaper "
               "than ALU ops");
    GWS_ASSERT(vertexFetchBytesPerCycle > 0.0, "vertex fetch rate");
    GWS_ASSERT(rasterPrimsPerCycle > 0.0, "raster prim rate");
    GWS_ASSERT(rasterPixelsPerCycle > 0.0, "raster pixel rate");
    GWS_ASSERT(texSamplesPerCycle > 0.0, "texture sample rate");
    GWS_ASSERT(ropPixelsPerCycle > 0.0, "ROP rate");
    GWS_ASSERT(l2BytesPerCycle > 0.0, "L2 bandwidth");
    GWS_ASSERT(dramBusBytesPerCycle > 0.0, "DRAM bus width");
    GWS_ASSERT(rtTrafficDramFraction >= 0.0 && rtTrafficDramFraction <= 1.0,
               "RT DRAM fraction out of [0,1]");
    GWS_ASSERT(drawSetupCycles >= 0.0, "draw setup cycles");
    GWS_ASSERT(frameOverheadUs >= 0.0, "frame overhead");
    GWS_ASSERT(maxSampledTexAccesses >= 16,
               "need at least 16 sampled accesses");
    // The cache model indexes lines by shift and the texture stream
    // creeps forward by a quarter line, so a line is a power of two of
    // at least 4 bytes.
    GWS_ASSERT(texL1.lineBytes >= 4 && std::has_single_bit(texL1.lineBytes),
               "texture L1 line size must be a power of two >= 4: ",
               texL1.lineBytes);
    GWS_ASSERT(texL1.ways >= 1, "texture L1 needs at least one way");
    GWS_ASSERT(l2.lineBytes >= 4 && std::has_single_bit(l2.lineBytes),
               "L2 line size must be a power of two >= 4: ", l2.lineBytes);
    GWS_ASSERT(l2.ways >= 1, "L2 needs at least one way");
    GWS_ASSERT(texL1.sizeBytes >= texL1.lineBytes * texL1.ways,
               "texture L1 smaller than one set");
    GWS_ASSERT(l2.sizeBytes >= l2.lineBytes * l2.ways,
               "L2 smaller than one set");
}

GpuConfig
makeGpuPreset(const std::string &name)
{
    GpuConfig cfg;
    cfg.name = name;
    if (name == "baseline")
        return cfg;
    if (name == "wide") {
        cfg.numCores = 16;
        cfg.texSamplesPerCycle = 16.0;
        return cfg;
    }
    if (name == "fastmem") {
        cfg.memClockGhz = 3.2;
        return cfg;
    }
    if (name == "bigcache") {
        cfg.l2.sizeBytes = 4 * 1024 * 1024;
        return cfg;
    }
    if (name == "mobile") {
        cfg.coreClockGhz = 0.6;
        cfg.memClockGhz = 1.0;
        cfg.numCores = 4;
        cfg.texSamplesPerCycle = 4.0;
        cfg.ropPixelsPerCycle = 8.0;
        cfg.rasterPixelsPerCycle = 16.0;
        cfg.dramBusBytesPerCycle = 16.0;
        cfg.l2.sizeBytes = 512 * 1024;
        return cfg;
    }
    GWS_PANIC("unknown GPU preset '", name, "'");
}

std::vector<std::string>
gpuPresetNames()
{
    return {"baseline", "wide", "fastmem", "bigcache", "mobile"};
}

} // namespace gws
