#include "runtime/counters.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/metrics.hh"

namespace gws {

namespace {

using obs::Counter;
using obs::metricsRegistry;

/** Registry prefix under which ScopedRegion histograms live. */
constexpr const char *kRegionPrefix = "region.";

/**
 * Stable handles to the registry-backed legacy counters. Registered
 * eagerly (see g_legacy_registered) so every RuntimeCounters field is
 * present in `--metrics-out` even when it never fired.
 */
struct LegacyCounters
{
    Counter &parallelRegions;
    Counter &inlineRegions;
    Counter &chunksExecuted;
    Counter &tasksSubmitted;
    Counter &submitterWaitNs;
    Counter &workerIdleNs;
    Counter &drawCacheHits;
    Counter &drawCacheMisses;
    Counter &kmeansBoundsSkipped;
    Counter &kmeansFullScans;
    Counter &leaderNormRejects;
    Counter &leaderDistances;
    Counter &workTraceDraws;
    Counter &workTraceBuildNs;
    Counter &sweepPasses;
    Counter &sweepConfigs;
    Counter &sweepDrawsRetimed;
    Counter &sweepRetimeNs;
};

LegacyCounters &
legacy()
{
    static LegacyCounters c{
        metricsRegistry().counter("runtime.parallelRegions"),
        metricsRegistry().counter("runtime.inlineRegions"),
        metricsRegistry().counter("runtime.chunksExecuted"),
        metricsRegistry().counter("runtime.tasksSubmitted"),
        metricsRegistry().counter("runtime.submitterWaitNs"),
        metricsRegistry().counter("runtime.workerIdleNs"),
        metricsRegistry().counter("gpusim.drawCache.hits"),
        metricsRegistry().counter("gpusim.drawCache.misses"),
        metricsRegistry().counter("cluster.kmeans.boundsSkipped"),
        metricsRegistry().counter("cluster.kmeans.fullScans"),
        metricsRegistry().counter("cluster.leader.normRejects"),
        metricsRegistry().counter("cluster.leader.distances"),
        metricsRegistry().counter("gpusim.workTrace.draws"),
        metricsRegistry().counter("gpusim.workTrace.buildNs"),
        metricsRegistry().counter("core.sweep.passes"),
        metricsRegistry().counter("core.sweep.configs"),
        metricsRegistry().counter("core.sweep.drawsRetimed"),
        metricsRegistry().counter("core.sweep.retimeNs"),
    };
    return c;
}

const bool g_legacy_registered = (legacy(), true);

} // namespace

RuntimeCounters
runtimeCounters()
{
    const LegacyCounters &l = legacy();
    RuntimeCounters c;
    c.parallelRegions = l.parallelRegions.value();
    c.inlineRegions = l.inlineRegions.value();
    c.chunksExecuted = l.chunksExecuted.value();
    c.tasksSubmitted = l.tasksSubmitted.value();
    c.submitterWaitNs = l.submitterWaitNs.value();
    c.workerIdleNs = l.workerIdleNs.value();
    c.drawCacheHits = l.drawCacheHits.value();
    c.drawCacheMisses = l.drawCacheMisses.value();
    c.kmeansBoundsSkipped = l.kmeansBoundsSkipped.value();
    c.kmeansFullScans = l.kmeansFullScans.value();
    c.leaderNormRejects = l.leaderNormRejects.value();
    c.leaderDistances = l.leaderDistances.value();
    c.workTraceDraws = l.workTraceDraws.value();
    c.workTraceBuildNs = l.workTraceBuildNs.value();
    c.sweepPasses = l.sweepPasses.value();
    c.sweepConfigs = l.sweepConfigs.value();
    c.sweepDrawsRetimed = l.sweepDrawsRetimed.value();
    c.sweepRetimeNs = l.sweepRetimeNs.value();
    return c;
}

double
RuntimeCounters::sweepConfigsPerPass() const
{
    return sweepPasses == 0 ? 0.0
                            : static_cast<double>(sweepConfigs) /
                                  static_cast<double>(sweepPasses);
}

double
RuntimeCounters::sweepDrawsRetimedPerSec() const
{
    return sweepRetimeNs == 0
               ? 0.0
               : static_cast<double>(sweepDrawsRetimed) /
                     (static_cast<double>(sweepRetimeNs) * 1e-9);
}

double
RuntimeCounters::drawCacheHitRate() const
{
    const std::uint64_t total = drawCacheHits + drawCacheMisses;
    return total == 0
               ? 0.0
               : static_cast<double>(drawCacheHits) /
                     static_cast<double>(total);
}

double
RuntimeCounters::kmeansBoundsSkipRate() const
{
    const std::uint64_t total = kmeansBoundsSkipped + kmeansFullScans;
    return total == 0
               ? 0.0
               : static_cast<double>(kmeansBoundsSkipped) /
                     static_cast<double>(total);
}

void
resetRuntimeCounters()
{
    // The legacy counters live under subsystem prefixes; reset each
    // family plus the ScopedRegion histograms, leaving unrelated
    // metrics (gws.warnings, bench gauges, ...) untouched.
    obs::MetricsRegistry &reg = metricsRegistry();
    reg.resetPrefix("runtime.");
    reg.resetPrefix("gpusim.");
    reg.resetPrefix("cluster.");
    reg.resetPrefix("core.");
    reg.resetPrefix(kRegionPrefix);
}

std::vector<RegionStat>
runtimeRegionStats()
{
    std::vector<RegionStat> out;
    for (const obs::MetricSnapshot &row :
         metricsRegistry().snapshotPrefix(kRegionPrefix)) {
        if (row.histCount == 0)
            continue;
        out.push_back(
            RegionStat{row.name.substr(std::string(kRegionPrefix).size()),
                       row.histSum, row.histCount});
    }
    std::sort(out.begin(), out.end(),
              [](const RegionStat &a, const RegionStat &b) {
                  return a.ns > b.ns;
              });
    return out;
}

ScopedRegion::ScopedRegion(const char *name)
    : span(name), regionName(name), startNs(runtime_detail::nowNs())
{
}

ScopedRegion::~ScopedRegion()
{
    const std::uint64_t elapsed = runtime_detail::nowNs() - startNs;
    metricsRegistry()
        .histogram(std::string(kRegionPrefix) + regionName)
        .record(elapsed);
}

std::string
runtimeCountersReport()
{
    const RuntimeCounters c = runtimeCounters();
    std::ostringstream oss;
    oss << "runtime: " << c.parallelRegions << " parallel + "
        << c.inlineRegions << " inline regions, " << c.chunksExecuted
        << " chunks, " << c.tasksSubmitted << " pool tasks\n";
    oss << "runtime: submitter wait "
        << static_cast<double>(c.submitterWaitNs) * 1e-6
        << " ms, worker idle "
        << static_cast<double>(c.workerIdleNs) * 1e-6 << " ms\n";
    if (c.drawCacheHits + c.drawCacheMisses > 0)
        oss << "runtime: draw-work memo cache: " << c.drawCacheHits
            << " hits / " << c.drawCacheMisses << " misses ("
            << c.drawCacheHitRate() * 100.0 << "% hit rate)\n";
    if (c.kmeansBoundsSkipped + c.kmeansFullScans > 0)
        oss << "runtime: kmeans bounds: " << c.kmeansBoundsSkipped
            << " skipped / " << c.kmeansFullScans << " full scans ("
            << c.kmeansBoundsSkipRate() * 100.0 << "% skipped)\n";
    if (c.leaderNormRejects + c.leaderDistances > 0)
        oss << "runtime: leader scan: " << c.leaderNormRejects
            << " norm rejects / " << c.leaderDistances
            << " full distances\n";
    if (c.workTraceDraws > 0)
        oss << "runtime: work trace: " << c.workTraceDraws
            << " draws flattened in "
            << static_cast<double>(c.workTraceBuildNs) * 1e-6
            << " ms\n";
    if (c.sweepPasses > 0)
        oss << "runtime: sweep: " << c.sweepPasses << " passes, "
            << c.sweepConfigsPerPass() << " configs/pass, "
            << c.sweepDrawsRetimed << " draw-configs retimed ("
            << c.sweepDrawsRetimedPerSec() * 1e-6 << " M/s)\n";
    for (const obs::MetricSnapshot &m :
         metricsRegistry().snapshotPrefix("gws.part.")) {
        oss << "runtime: " << m.name << ": ";
        if (m.type == obs::MetricType::Gauge)
            oss << m.gaugeValue;
        else
            oss << m.counterValue;
        oss << "\n";
    }
    for (const RegionStat &r : runtimeRegionStats())
        oss << "runtime: region " << r.name << ": "
            << static_cast<double>(r.ns) * 1e-6 << " ms over " << r.count
            << (r.count == 1 ? " entry\n" : " entries\n");
    return oss.str();
}

namespace runtime_detail {

void
noteParallelRegion(std::size_t chunks, std::size_t tasks)
{
    LegacyCounters &l = legacy();
    l.parallelRegions.increment();
    l.chunksExecuted.add(chunks);
    l.tasksSubmitted.add(tasks);
}

void
noteInlineRegion(std::size_t chunks)
{
    LegacyCounters &l = legacy();
    l.inlineRegions.increment();
    l.chunksExecuted.add(chunks);
}

void
noteSubmitterWait(std::uint64_t ns)
{
    legacy().submitterWaitNs.add(ns);
}

void
noteWorkerIdle(std::uint64_t ns)
{
    legacy().workerIdleNs.add(ns);
}

void
noteDrawCache(std::uint64_t hits, std::uint64_t misses)
{
    LegacyCounters &l = legacy();
    if (hits)
        l.drawCacheHits.add(hits);
    if (misses)
        l.drawCacheMisses.add(misses);
}

void
noteWorkTraceBuild(std::uint64_t draws, std::uint64_t ns)
{
    LegacyCounters &l = legacy();
    l.workTraceDraws.add(draws);
    l.workTraceBuildNs.add(ns);
}

void
noteSweepPass(std::uint64_t configs, std::uint64_t drawsRetimed,
              std::uint64_t ns)
{
    LegacyCounters &l = legacy();
    l.sweepPasses.increment();
    l.sweepConfigs.add(configs);
    l.sweepDrawsRetimed.add(drawsRetimed);
    l.sweepRetimeNs.add(ns);
}

void
noteKmeansBounds(std::uint64_t skipped, std::uint64_t fullScans)
{
    LegacyCounters &l = legacy();
    if (skipped)
        l.kmeansBoundsSkipped.add(skipped);
    if (fullScans)
        l.kmeansFullScans.add(fullScans);
}

void
noteLeaderScan(std::uint64_t rejects, std::uint64_t distances)
{
    LegacyCounters &l = legacy();
    if (rejects)
        l.leaderNormRejects.add(rejects);
    if (distances)
        l.leaderDistances.add(distances);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace runtime_detail

} // namespace gws
