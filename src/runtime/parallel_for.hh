/**
 * @file
 * Chunked parallel loops over index ranges, built on the global
 * ThreadPool, with a determinism contract the rest of the library
 * leans on:
 *
 *  - Chunk boundaries depend only on (range, grain) — never on the
 *    thread count — so the set of sub-ranges executed is identical on
 *    every machine and configuration.
 *  - parallelMap writes result[i] by index, and parallelReduce
 *    combines chunk partials in ascending chunk order, so
 *    floating-point results are bit-identical at any thread count.
 *  - Exceptions thrown by the body are caught per chunk and the
 *    lowest-index one is rethrown in the calling thread (also
 *    independent of scheduling).
 *
 * Small ranges (a single chunk), threads = 1, and loops entered from
 * inside a pool worker (nested parallelism) all run inline in the
 * calling thread with the same chunk structure.
 *
 * Grain guidance: pass 0 to take RuntimeConfig::grainSize (right for
 * element costs in the ~100 ns..1 us range, e.g. feature-space
 * distance scans); pass an explicit small grain for heavyweight
 * elements (1 for whole frames / subset units, tens for draw-call
 * simulation at ~1 us each). Chunks should cost >= ~10 us so pool
 * overhead stays in the noise.
 */

#ifndef GWS_RUNTIME_PARALLEL_FOR_HH
#define GWS_RUNTIME_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/runtime_config.hh"

namespace gws {

/** Chunks a range of n indices splits into at a grain (0 = default). */
std::size_t chunkCountFor(std::size_t n, std::size_t grain);

/**
 * Run body(chunkBegin, chunkEnd) over [begin, end) split into
 * grain-sized chunks (grain 0 = RuntimeConfig::grainSize), in
 * parallel on the global pool. The call returns after every chunk has
 * executed; the lowest-index chunk exception (if any) is rethrown.
 */
void parallelChunks(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>
                        &body);

/** Run fn(i) for every i in [begin, end); see parallelChunks. */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            Fn &&fn)
{
    const auto &f = fn;
    parallelChunks(begin, end, grain,
                   [&f](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i)
                           f(i);
                   });
}

/**
 * Map [begin, end) through fn into a vector, out[i - begin] = fn(i).
 * Results land at their index, so ordering is inherently stable.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t begin, std::size_t end, std::size_t grain,
            Fn &&fn)
{
    std::vector<T> out(end > begin ? end - begin : 0);
    const auto &f = fn;
    parallelChunks(begin, end, grain,
                   [&f, &out, begin](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i)
                           out[i - begin] = f(i);
                   });
    return out;
}

/**
 * Chunked reduction: chunkFn(chunkBegin, chunkEnd) produces one
 * partial per chunk; partials are combined left-to-right in chunk
 * order via combine(acc, partial) starting from init. The combine
 * order is fixed by index — not completion order — which is what
 * makes floating-point reductions deterministic at any thread count.
 */
template <typename T, typename ChunkFn, typename CombineFn>
T
parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
               T init, ChunkFn &&chunkFn, CombineFn &&combine)
{
    if (end <= begin)
        return init;
    const std::size_t g = resolvedGrain(grain);
    const std::size_t chunks = chunkCountFor(end - begin, g);
    std::vector<T> partials(chunks);
    const auto &cf = chunkFn;
    parallelChunks(begin, end, g,
                   [&cf, &partials, begin, g](std::size_t b,
                                              std::size_t e) {
                       partials[(b - begin) / g] = cf(b, e);
                   });
    T acc = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c)
        acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

} // namespace gws

#endif // GWS_RUNTIME_PARALLEL_FOR_HH
