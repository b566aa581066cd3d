/**
 * @file
 * google-benchmark microbenchmarks of the GPU performance model:
 * cache accesses, the texture-stream sampler, per-draw simulation,
 * the work/time split used by frequency sweeps, and whole-frame
 * simulation.
 */

#include <benchmark/benchmark.h>

#include "gpusim/access_stream.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/gpu_simulator.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace {

using namespace gws;

const Trace &
simTrace()
{
    static const Trace t = [] {
        GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
        p.segments = 1;
        p.segmentFramesMin = p.segmentFramesMax = 2;
        p.drawsPerFrame = 120.0;
        return GameGenerator(p).generate();
    }();
    return t;
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{16 * 1024, 64, 4});
    Rng rng(1);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(rng.uniformInt(0, 1 << 20));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_TextureStream(benchmark::State &state)
{
    StreamParams p;
    p.totalAccesses = 100000;
    p.footprintBytes = 4 << 20;
    p.locality = 0.85;
    p.seed = 42;
    const CacheConfig l1{16 * 1024, 64, 4}, l2{1 << 20, 64, 16};
    for (auto _ : state)
        benchmark::DoNotOptimize(runTextureStream(
            p, l1, l2, static_cast<std::uint64_t>(state.range(0))));
}
BENCHMARK(BM_TextureStream)->Arg(128)->Arg(512)->Arg(2048);

void
BM_TextureStreamFullL2(benchmark::State &state)
{
    // A short stream (scale == 1) runs against the full-size L2 of
    // range(0) MiB: the path where building the caches per draw used
    // to cost more than the accesses.
    StreamParams p;
    p.totalAccesses = 384;
    p.footprintBytes = 256 << 10;
    p.locality = 0.85;
    p.seed = 42;
    const CacheConfig l1{16 * 1024, 64, 4};
    const CacheConfig l2{static_cast<std::uint64_t>(state.range(0)) << 20,
                         64, 16};
    for (auto _ : state)
        benchmark::DoNotOptimize(runTextureStream(p, l1, l2, 512));
}
BENCHMARK(BM_TextureStreamFullL2)->Arg(1)->Arg(4);

void
BM_SimulateDraw(benchmark::State &state)
{
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const auto &draws = t.frame(0).draws();
    std::size_t i = 0;
    for (auto _ : state) {
        // Every iteration simulates: the draw-work memo is emptied
        // outside the timed region, so no lookup is served warm.
        state.PauseTiming();
        drawWorkCacheClear();
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.simulateDraw(t, draws[i]));
        i = (i + 1) % draws.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulateDraw);

void
BM_TimeDrawWork(benchmark::State &state)
{
    // The frequency-sweep fast path: re-pricing precomputed work.
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    std::vector<DrawWork> works;
    for (const auto &d : t.frame(0).draws())
        works.push_back(sim.computeDrawWork(t, d));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.timeDrawWork(works[i]));
        i = (i + 1) % works.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeDrawWork);

void
BM_SimulateFrame(benchmark::State &state)
{
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    for (auto _ : state) {
        state.PauseTiming();
        drawWorkCacheClear();
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.simulateFrame(t, t.frame(0)));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.frame(0).drawCount()));
}
BENCHMARK(BM_SimulateFrame);

} // namespace

BENCHMARK_MAIN();
