#include "core/sweep.hh"

#include "gpusim/draw_work_cache.hh"
#include "runtime/counters.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

SweepResult
retimeAll(const WorkTrace &trace, std::span<const GpuConfig> configs,
          const SweepConfig &config)
{
    ScopedRegion region("core.retimeAll");
    const std::uint64_t t0 = runtime_detail::nowNs();
    GWS_ASSERT(!configs.empty(), "retimeAll with no configs");
    for (const GpuConfig &cfg : configs)
        GWS_ASSERT(capacityConfigHash(cfg) == trace.capacityKey(),
                   "config '", cfg.name,
                   "' changes capacity parameters; the work trace was "
                   "computed under a different capacity hash");

    const std::size_t n_cfg = configs.size();
    const std::size_t groups = trace.groupCount();
    const std::size_t draws = trace.drawCount();

    SweepResult result;
    result.configCount = n_cfg;
    result.groupCount = groups;
    result.drawCount = draws;
    result.totalNs.assign(n_cfg, 0.0);
    result.groupNs.assign(n_cfg * groups, 0.0);
    result.bottleneckNs.assign(n_cfg * numStages, 0.0);
    result.bottleneckCount.assign(n_cfg * numStages, 0);
    if (config.perDraw)
        result.drawNs.assign(n_cfg * draws, 0.0);

    std::vector<GpuSimulator> sims;
    sims.reserve(n_cfg);
    for (const GpuConfig &cfg : configs)
        sims.emplace_back(cfg);

    // Per-group histogram partials, combined in ascending group order
    // below, so every rounded sum is independent of the thread count.
    std::vector<double> group_hist_ns(groups * n_cfg * numStages, 0.0);
    std::vector<std::uint64_t> group_hist_count(
        groups * n_cfg * numStages, 0);

    parallelFor(0, groups, 1, [&](std::size_t g) {
        for (std::size_t c = 0; c < n_cfg; ++c) {
            const std::size_t slab = (g * n_cfg + c) * numStages;
            double total = 0.0;
            for (std::size_t i = trace.groupBegin(g); i < trace.groupEnd(g);
                 ++i) {
                const DrawCost dc = sims[c].timeDrawWork(trace.work(i));
                const auto b = static_cast<std::size_t>(dc.bottleneck);
                total += dc.totalNs;
                group_hist_ns[slab + b] += dc.totalNs;
                ++group_hist_count[slab + b];
                if (config.perDraw)
                    result.drawNs[c * draws + i] = dc.totalNs;
            }
            result.groupNs[c * groups + g] =
                total + configs[c].frameOverheadUs * 1e3;
        }
    });

    for (std::size_t c = 0; c < n_cfg; ++c) {
        double total = 0.0;
        for (std::size_t g = 0; g < groups; ++g)
            total += result.groupNs[c * groups + g];
        result.totalNs[c] = total;
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t slab = (g * n_cfg + c) * numStages;
            for (std::size_t s = 0; s < numStages; ++s) {
                result.bottleneckNs[c * numStages + s] +=
                    group_hist_ns[slab + s];
                result.bottleneckCount[c * numStages + s] +=
                    group_hist_count[slab + s];
            }
        }
    }

    runtime_detail::noteSweepPass(n_cfg, n_cfg * draws,
                                  runtime_detail::nowNs() - t0);
    return result;
}

WorkTrace
buildSubsetWorkTrace(const Trace &trace, const WorkloadSubset &subset,
                     const GpuSimulator &simulator)
{
    ScopedRegion region("core.buildSubsetWorkTrace");
    const std::uint64_t t0 = runtime_detail::nowNs();

    std::vector<std::size_t> sizes;
    sizes.reserve(subset.units.size());
    for (const SubsetUnit &unit : subset.units)
        sizes.push_back(unit.frameSubset.clustering.k);

    WorkTrace wt(capacityConfigHash(simulator.config()), sizes);
    parallelFor(0, subset.units.size(), 1, [&](std::size_t u) {
        const SubsetUnit &unit = subset.units[u];
        const Frame &frame = trace.frame(unit.frameIndex);
        std::size_t row = wt.groupBegin(u);
        for (std::size_t rep : unit.frameSubset.clustering.representatives)
            wt.work(row++) =
                simulator.computeDrawWork(trace, frame.draws()[rep]);
    });

    runtime_detail::noteWorkTraceBuild(wt.drawCount(),
                                       runtime_detail::nowNs() - t0);
    return wt;
}

std::vector<GpuConfig>
clockSweepConfigs(const GpuConfig &base, const std::vector<double> &scales)
{
    std::vector<GpuConfig> configs;
    configs.reserve(scales.size());
    for (double scale : scales)
        configs.push_back(base.withCoreClockScale(scale));
    return configs;
}

} // namespace gws
