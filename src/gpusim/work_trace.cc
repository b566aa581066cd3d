#include "gpusim/work_trace.hh"

#include "gpusim/draw_work_cache.hh"
#include "runtime/counters.hh"
#include "runtime/parallel_for.hh"

namespace gws {

WorkTrace::WorkTrace(std::uint64_t capacity_key,
                     const std::vector<std::size_t> &group_sizes)
    : offsets(group_sizes.size() + 1, 0), capKey(capacity_key)
{
    for (std::size_t g = 0; g < group_sizes.size(); ++g)
        offsets[g + 1] = offsets[g] + group_sizes[g];
    rows.resize(offsets.back());
}

double
WorkTrace::totalDramBytes() const
{
    double total = 0.0;
    for (const DrawWork &w : rows)
        total += w.traffic.totalDramBytes();
    return total;
}

WorkTrace
buildWorkTrace(const Trace &trace, const GpuSimulator &simulator)
{
    ScopedRegion region("gpusim.buildWorkTrace");
    const std::uint64_t t0 = runtime_detail::nowNs();

    std::vector<std::size_t> sizes;
    sizes.reserve(trace.frameCount());
    for (const Frame &frame : trace.frames())
        sizes.push_back(frame.drawCount());

    WorkTrace wt(capacityConfigHash(simulator.config()), sizes);
    parallelFor(0, trace.frameCount(), 1, [&](std::size_t f) {
        const Frame &frame = trace.frame(f);
        std::size_t row = wt.groupBegin(f);
        for (const DrawCall &draw : frame.draws())
            wt.work(row++) = simulator.computeDrawWork(trace, draw);
    });

    runtime_detail::noteWorkTraceBuild(wt.drawCount(),
                                       runtime_detail::nowNs() - t0);
    return wt;
}

} // namespace gws
