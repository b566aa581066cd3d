/**
 * @file
 * Set-associative cache model with true-LRU replacement. Used for the
 * texture L1 and the GPU L2. The model is functional at line
 * granularity (tags only, no data) and collects hit/miss statistics;
 * timing is derived by the memory system from the statistics.
 */

#ifndef GWS_GPUSIM_CACHE_HH
#define GWS_GPUSIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fastmod.hh"

namespace gws {

/** Geometry of a cache. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 16 * 1024;

    /** Line size in bytes (power of two). */
    std::uint32_t lineBytes = 64;

    /** Associativity. */
    std::uint32_t ways = 4;

    /** Number of sets implied by the geometry (>= 1). */
    std::uint64_t sets() const;

    /**
     * A miniature cache with the same ways/line but capacity divided
     * by factor (floored at one set). Used for set-sampled simulation
     * of long access streams.
     */
    CacheConfig scaledDown(double factor) const;

    /** Equality over all fields. */
    bool operator==(const CacheConfig &other) const = default;
};

/** Hit/miss counters of one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    /** Misses (accesses - hits). */
    std::uint64_t misses() const { return accesses - hits; }

    /** Hit rate in [0, 1]; 1 when there were no accesses. */
    double hitRate() const;
};

/**
 * Functional set-associative LRU cache. Addresses are byte addresses;
 * the cache tracks residency at line granularity.
 *
 * Each set keeps its lines in recency order, most recent first, with
 * the valid lines as a prefix: a hit moves its line to the front, a
 * fill shifts the set down one way (dropping the LRU line of a full
 * set), so the true-LRU victim is always the last valid way and no
 * stamp comparison is needed to find it.
 *
 * The per-access path has no division: the line number is a shift,
 * the set index a mask (power-of-two set counts) or an exact
 * multiply-shift remainder (util/fastmod.hh), and the tag is the full
 * line number. A line is valid iff its stamp equals the generation
 * of the last reset() / reconfigure(), so both drop every line in
 * O(1), and storage is reallocated only when a geometry needs more
 * lines than any earlier one. One instance can therefore be reused
 * across streams of different geometries with the hit/miss sequence
 * of a freshly built cache.
 */
class Cache
{
  public:
    /**
     * Construct with the given geometry. Panics unless the line size
     * is a power of two.
     */
    explicit Cache(const CacheConfig &config);

    /**
     * Switch to a new geometry with every line invalid and statistics
     * reset. The line size must be a power of two (GpuConfig::validate
     * checks it for every simulated config).
     */
    void reconfigure(const CacheConfig &config);

    /**
     * Access one byte address; returns true on hit. On miss the line
     * is filled, evicting the set's LRU line if needed.
     */
    bool access(std::uint64_t address);

    /** True if the line holding address is resident (no side effect). */
    bool probe(std::uint64_t address) const;

    /** Statistics so far. */
    const CacheStats &stats() const { return statistics; }

    /** Drop all lines and reset statistics. */
    void reset();

    /** Geometry. */
    const CacheConfig &config() const { return geometry; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;   // full line number
        std::uint64_t stamp = 0; // valid iff == generation
    };

    /** Index of the first way of the set holding line number line_no. */
    std::size_t setStart(std::uint64_t line_no) const
    {
        const std::uint64_t set =
            maskedSets ? (line_no & (numSets - 1)) : setMod(line_no);
        return set * geometry.ways;
    }

    CacheConfig geometry;
    std::uint32_t lineShift = 0;
    std::uint64_t numSets = 1;
    bool maskedSets = true;  // numSets is a power of two
    FastMod setMod;          // numSets otherwise
    std::vector<Line> lines; // >= numSets x ways, row-major
    std::uint64_t generation = 0; // bumped past every stamp by reset()
    CacheStats statistics;
};

inline bool
Cache::access(std::uint64_t address)
{
    ++statistics.accesses;
    const std::uint64_t line_no = address >> lineShift;
    Line *base = &lines[setStart(line_no)];
    const std::uint32_t ways = geometry.ways;
    bool hit = false;
    std::uint32_t w = 0;
    for (; w < ways && base[w].stamp == generation; ++w) {
        if (base[w].tag == line_no) {
            hit = true;
            break;
        }
    }
    statistics.hits += hit;
    // Move the hit line, or make room for the fill, at the front: on a
    // miss w is the valid count, and a full set drops its last way.
    for (std::uint32_t k = w < ways ? w : ways - 1; k > 0; --k)
        base[k] = base[k - 1];
    base[0] = Line{line_no, generation};
    return hit;
}

} // namespace gws

#endif // GWS_GPUSIM_CACHE_HH
