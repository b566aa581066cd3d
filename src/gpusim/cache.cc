#include "gpusim/cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace gws {

std::uint64_t
CacheConfig::sets() const
{
    GWS_ASSERT(lineBytes > 0 && ways > 0, "degenerate cache geometry");
    const std::uint64_t raw = sizeBytes / (static_cast<std::uint64_t>(
                                               lineBytes) *
                                           ways);
    return std::max<std::uint64_t>(raw, 1);
}

CacheConfig
CacheConfig::scaledDown(double factor) const
{
    GWS_ASSERT(factor >= 1.0, "scale-down factor below 1: ", factor);
    CacheConfig mini = *this;
    const double scaled =
        static_cast<double>(sizeBytes) / factor;
    const std::uint64_t min_size =
        static_cast<std::uint64_t>(lineBytes) * ways;
    mini.sizeBytes = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(scaled)), min_size);
    return mini;
}

double
CacheStats::hitRate() const
{
    if (accesses == 0)
        return 1.0;
    return static_cast<double>(hits) / static_cast<double>(accesses);
}

Cache::Cache(const CacheConfig &config)
{
    GWS_ASSERT(std::has_single_bit(config.lineBytes),
               "line size must be a power of two: ", config.lineBytes);
    reconfigure(config);
}

void
Cache::reconfigure(const CacheConfig &config)
{
    geometry = config;
    lineShift = static_cast<std::uint32_t>(
        std::countr_zero(config.lineBytes));
    numSets = config.sets();
    maskedSets = std::has_single_bit(numSets);
    if (!maskedSets)
        setMod = FastMod(numSets);
    const std::uint64_t needed = numSets * config.ways;
    if (lines.size() < needed)
        lines.assign(needed, Line{});
    reset();
}

bool
Cache::probe(std::uint64_t address) const
{
    const std::uint64_t line_no = address >> lineShift;
    const Line *base = &lines[setStart(line_no)];
    for (std::uint32_t w = 0;
         w < geometry.ways && base[w].stamp == generation; ++w) {
        if (base[w].tag == line_no)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    ++generation;
    statistics = CacheStats{};
}

} // namespace gws
