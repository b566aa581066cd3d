/**
 * @file
 * Lightweight observability for the parallel runtime: global counters
 * (regions run, chunks executed, tasks submitted, time the submitter
 * spent waiting for stragglers, time workers spent idle) and named
 * per-region wall-time accumulators. Benches print the report after a
 * run (`--runtime-stats`); tests use the counters to assert that a
 * code path actually went parallel (or did not).
 *
 * This header is now a *compatibility shim* over the obs layer: every
 * RuntimeCounters field lives in the process-global MetricsRegistry
 * (src/obs/metrics.hh) under a stable name, so `--metrics-out` exports
 * them on the shared schema, and ScopedRegion both records a
 * `region.<name>` latency histogram and opens a trace span when the
 * tracer is on. The snapshot / reset / report API below is unchanged.
 *
 * Counters are process-global and monotone; resetRuntimeCounters()
 * zeroes them between bench phases. All updates are atomic and cheap
 * enough to stay enabled in release builds — one update per *chunk*,
 * never per element.
 */

#ifndef GWS_RUNTIME_COUNTERS_HH
#define GWS_RUNTIME_COUNTERS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace gws {

/** Snapshot of the global runtime counters. */
struct RuntimeCounters
{
    /** Parallel loops that fanned out to the pool. */
    std::uint64_t parallelRegions = 0;

    /** Parallel loops that ran inline (threads=1, tiny range, nested). */
    std::uint64_t inlineRegions = 0;

    /** Chunks executed across all loops (inline and pooled). */
    std::uint64_t chunksExecuted = 0;

    /** Helper tasks submitted to the pool. */
    std::uint64_t tasksSubmitted = 0;

    /** ns the submitting thread spent waiting on in-flight chunks. */
    std::uint64_t submitterWaitNs = 0;

    /** ns pool workers spent blocked on the queue (idle/steal wait). */
    std::uint64_t workerIdleNs = 0;

    /** Draw-work memo cache hits (GpuSimulator::computeDrawWork). */
    std::uint64_t drawCacheHits = 0;

    /** Draw-work memo cache misses (fresh simulations). */
    std::uint64_t drawCacheMisses = 0;

    /** k-means points whose centroid scan was skipped by bounds. */
    std::uint64_t kmeansBoundsSkipped = 0;

    /** k-means points that needed the full centroid scan. */
    std::uint64_t kmeansFullScans = 0;

    /** Leader-scan candidates rejected by the norm bound. */
    std::uint64_t leaderNormRejects = 0;

    /** Leader-scan candidates that needed a full distance. */
    std::uint64_t leaderDistances = 0;

    /** Draws flattened into work traces (buildWorkTrace rows). */
    std::uint64_t workTraceDraws = 0;

    /** ns spent building work traces (the compute-once pass). */
    std::uint64_t workTraceBuildNs = 0;

    /** Sweep passes (retimeAll calls). */
    std::uint64_t sweepPasses = 0;

    /** Configs evaluated across all sweep passes. */
    std::uint64_t sweepConfigs = 0;

    /** draw × config evaluations across all sweep passes. */
    std::uint64_t sweepDrawsRetimed = 0;

    /** ns spent inside retimeAll (the retime-many pass). */
    std::uint64_t sweepRetimeNs = 0;

    /** Fraction of draw-work lookups served by the memo cache. */
    double drawCacheHitRate() const;

    /** Fraction of k-means assignment decisions skipped by bounds. */
    double kmeansBoundsSkipRate() const;

    /** Configs per sweep pass (averaged over passes). */
    double sweepConfigsPerPass() const;

    /** Draw × config evaluations per second of retime time. */
    double sweepDrawsRetimedPerSec() const;
};

/** Current counter values. */
RuntimeCounters runtimeCounters();

/** Zero the counters and the per-region accumulators. */
void resetRuntimeCounters();

/** Wall time accumulated under one named region. */
struct RegionStat
{
    /** Region name as passed to ScopedRegion. */
    std::string name;

    /** Total wall nanoseconds across entries. */
    std::uint64_t ns = 0;

    /** Times the region was entered. */
    std::uint64_t count = 0;
};

/** All named regions seen so far, sorted by descending total time. */
std::vector<RegionStat> runtimeRegionStats();

/**
 * RAII wall-clock timer for a named region. Name must be a string
 * literal (the registry stores the pointer's contents once). Each
 * entry records into the `region.<name>` latency histogram and, when
 * the tracer is enabled, opens a trace span of the same name.
 */
class ScopedRegion
{
  public:
    /** Start timing `name`. */
    explicit ScopedRegion(const char *name);

    /** Stop and accumulate. */
    ~ScopedRegion();

    ScopedRegion(const ScopedRegion &) = delete;
    ScopedRegion &operator=(const ScopedRegion &) = delete;

  private:
    obs::SpanScope span;
    const char *regionName;
    std::uint64_t startNs;
};

/** Human-readable multi-line report of counters + regions. */
std::string runtimeCountersReport();

namespace runtime_detail {

/** Record a loop that fanned out (`tasks` helpers over `chunks`). */
void noteParallelRegion(std::size_t chunks, std::size_t tasks);

/** Record a loop that ran inline with `chunks` chunks. */
void noteInlineRegion(std::size_t chunks);

/** Record ns the submitter spent blocked waiting for completion. */
void noteSubmitterWait(std::uint64_t ns);

/** Record ns a worker spent blocked on the empty queue. */
void noteWorkerIdle(std::uint64_t ns);

/** Record draw-work memo cache lookups (aggregated per chunk). */
void noteDrawCache(std::uint64_t hits, std::uint64_t misses);

/** Record k-means bound skips / full scans (aggregated per chunk). */
void noteKmeansBounds(std::uint64_t skipped, std::uint64_t fullScans);

/** Record leader norm rejects / full distances (per point batch). */
void noteLeaderScan(std::uint64_t rejects, std::uint64_t distances);

/** Record one work-trace build: rows flattened and wall ns spent. */
void noteWorkTraceBuild(std::uint64_t draws, std::uint64_t ns);

/** Record one sweep pass: configs, draw × config count, wall ns. */
void noteSweepPass(std::uint64_t configs, std::uint64_t drawsRetimed,
                   std::uint64_t ns);

/** Monotonic now() in ns (steady clock). */
std::uint64_t nowNs();

} // namespace runtime_detail

} // namespace gws

#endif // GWS_RUNTIME_COUNTERS_HH
