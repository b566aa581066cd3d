/**
 * @file
 * The benchmark's three workloads, one per paper figure:
 *
 *  - freq_scaling (Fig. 7): buildWorkloadSubset + runFreqScaling at
 *    eight core clocks on the baseline design, per game;
 *  - pathfinding (Fig. 9): buildWorkloadSubset + runPathfinding over
 *    the five design presets, per game;
 *  - cluster_families (Fig. 2): evaluateFramePrediction of every
 *    corpus frame under the four clustering families.
 *
 * Each workload runs in one of two modes over the same inputs. The
 * composite mode calls the production entry points above. The split
 * mode makes the public calls those entry points are made of, each
 * under its own obs::SpanScope, and must reproduce the composite
 * results bit for bit.
 *
 * A run is a few rounds. Each round generates its own games, with
 * (run seed, round) mixed into every profile seed, so each seed gives
 * different traces of the same size.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/freq_scaling.hh"
#include "core/pathfinding.hh"
#include "core/predictor.hh"
#include "synth/suite.hh"

namespace perfbench {

enum class Workload
{
    FreqScaling,
    Pathfinding,
    ClusterFamilies,
};

/** The workload's name on the command line and in BENCHMARK.json. */
const char *workloadName(Workload w);

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload *out);

/** Rounds of one run of the workload; each is its own process. */
std::size_t runRounds(Workload w);

/** Timed set-ups of one run of the workload; setup_s is their median. */
std::size_t runSetups(Workload w);

/** The four clustering families, production family first. */
const std::vector<gws::ClusterAlgo> &clusterFamilies();

/** The design presets of the pathfinding study, in study order. */
std::vector<gws::GpuConfig> pathfindingDesigns();

/**
 * Game profiles of one round of a run: the workload's games at the
 * given scale with a fixed playthrough length, (seed, round) mixed
 * into each profile seed.
 */
std::vector<gws::GameProfile> roundProfiles(Workload w, gws::SuiteScale scale,
                                          std::uint64_t seed,
                                          std::size_t round);

/** Everything one round's study reads. */
struct RoundInputs
{
    std::vector<gws::Trace> traces;

    /** Genre of each trace. */
    std::vector<std::string> genres;

    /** Corpus frames (cluster_families only). */
    std::vector<gws::CorpusFrame> corpus;
};

/** The set-up of one round: generate its traces (and corpus). */
RoundInputs generateInputs(Workload w,
                         const std::vector<gws::GameProfile> &games);

// --- split equivalents of the production entry points -----------------

/** runFreqScaling as buildWorkTrace + buildSubsetWorkTrace + 2 retimes. */
gws::FreqScalingResult
freqScalingSplit(const gws::Trace &trace, const gws::WorkloadSubset &subset,
                 const gws::GpuConfig &base,
                 const gws::FreqScalingConfig &config);

/**
 * runPathfinding as one buildWorkTrace + retimeAll per capacity group
 * (grouped by preset name; retimeAll panics if a group mixes cache
 * geometries) and one predictTotalNs per design.
 */
gws::PathfindingResult
pathfindingSplit(const gws::Trace &trace, const gws::WorkloadSubset &subset,
                 const std::vector<gws::GpuConfig> &designs);

/**
 * evaluateFramePrediction as buildFrameSubset (span cluster.<family>)
 * + simulateDraw ground truth (span truth_span) + predictItemCosts and
 * assessClusterQuality (span core.predict).
 */
gws::FramePredictionReport
framePredictionSplit(const gws::Trace &trace, const gws::Frame &frame,
                     const gws::GpuSimulator &simulator,
                     const gws::DrawSubsetConfig &config,
                     const std::string &truth_span);

// --- running and checking ---------------------------------------------

/** Per-family aggregate on cluster_families. */
struct FamilyTally
{
    std::uint64_t frames = 0;
    std::uint64_t reps = 0;
    double errSum = 0.0;
    double effSum = 0.0;
};

/** Accumulated results and checks of a run. */
struct Tally
{
    /** Operations: game studies, or (frame, family) evaluations. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** One line per failed operation. */
    std::vector<std::string> failures;

    /** FNV-1a over every simulated cost and derived statistic. */
    std::uint64_t digest = 0xcbf29ce484222325ULL;

    /** Parent draws priced (× design points or × families). */
    double drawsPriced = 0.0;

    /** Subset-predicted vs fully simulated error samples. */
    std::vector<double> errors;

    /** Minimum correlation seen (improvement, speedup or frame time). */
    double minCorr = 1.0;

    /** Efficiency numerator and denominator. */
    double effNum = 0.0;
    double effDen = 0.0;

    /**
     * Leader error sum and frames under the leader contract. The
     * contract covers a whole run, so the caller that gathers the
     * rounds checks it.
     */
    double contractErrSum = 0.0;
    std::uint64_t contractFrames = 0;

    /** cluster_families: per family, in clusterFamilies() order. */
    std::vector<FamilyTally> families;

    /**
     * Peak resident set in MiB during each game study, or during each
     * corpus frame's evaluation under all four families, with the
     * peak mark reset before it.
     */
    std::vector<double> opPeakMib;

    /** Draws (or draw × config pairs) handled, by layer label. */
    std::map<std::string, double> layerDraws;

    void mix(double v);
    void mix(std::uint64_t v);
};

/**
 * Reset the kernel's peak-RSS mark of this process to its current
 * resident set (Linux: write "5" to /proc/self/clear_refs); throws
 * where that is not supported.
 */
void resetPeakRss();

/** Peak resident set of this process in MiB since the last reset. */
double peakRssMib();

/**
 * Run one round's study over its inputs, folding results into tally:
 * the composite entry points, or with split the calls they are made
 * of.
 */
void runStudy(Workload w, const RoundInputs &inputs, bool split,
              Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
