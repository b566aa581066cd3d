#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/sweep.hh"
#include "gpusim/work_trace.hh"
#include "obs/mem.hh"
#include "obs/trace.hh"
#include "synth/generator.hh"
#include "util/stats.hh"

namespace perfbench {

using namespace gws;

namespace {

/** One game of a workload and the length its playthrough is cut to. */
struct GameSpec
{
    const char *name;
    std::uint32_t segments;
    std::uint32_t framesPerSegment;
};

/** How one workload's runs are made. */
struct WorkloadSpec
{
    /** The games of one round at paper scale. */
    std::vector<GameSpec> games;

    /** Rounds per run, each in its own process. */
    std::size_t rounds;

    /** Timed set-ups per run; setup_s is their median. */
    std::size_t setups;
};

/**
 * The table of workloads. Every segment has the same length, so a seed
 * changes what is drawn but not how many frames there are; only draws
 * per frame vary with the seed. A round of a sweep workload stays well
 * below the draw-work memo's default 262,144 entries (about 215,000
 * draws on freq_scaling, about 69,000 draws under 3 cache geometries on
 * pathfinding), so within a round every repeated draw is served from
 * the memo and nothing is turned away. Pathfinding runs one game per
 * round so that its playthrough can be 60 frames long: at 30 frames
 * shock2's subset missed the 99.7 % speedup correlation on some seeds.
 */
const WorkloadSpec &
workloadSpec(Workload w)
{
    static const WorkloadSpec freq = {
        {{"shock1", 6, 10}, {"shock2", 6, 10}, {"frontier", 6, 10}}, 7, 5};
    static const WorkloadSpec path = {
        {{"shock2", 5, 12}}, 7, 7};
    static const WorkloadSpec families = {
        {{"shock1", 2, 12},
         {"shock2", 2, 12},
         {"shockinf", 2, 12},
         {"frontier", 2, 12},
         {"vanguard", 2, 12},
         {"circuit", 2, 12},
         {"nomad", 2, 12},
         {"skylink", 2, 12},
         {"tensor", 2, 12},
         {"legion", 2, 12}},
        8,
        5};
    switch (w) {
      case Workload::FreqScaling:
        return freq;
      case Workload::Pathfinding:
        return path;
      case Workload::ClusterFamilies:
        return families;
    }
    throw std::logic_error("unknown workload");
}

/**
 * CI scale, for the benchmark's tests: the first game of each sweep
 * workload and all ten games of cluster_families, six 10-frame
 * segments each.
 */
std::vector<GameSpec>
ciGames(Workload w)
{
    std::vector<GameSpec> games = workloadSpec(w).games;
    if (w != Workload::ClusterFamilies)
        games.resize(1);
    for (GameSpec &g : games) {
        g.segments = 6;
        g.framesPerSegment = 10;
    }
    return games;
}

/** splitmix64 finaliser: decorrelates nearby seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Genres held to the paper's ~1 % mean per-frame leader error. On the
 * compute genre (dispatch-proxy draws) the leader error is 2–4 % at
 * paper scale, so it is measured but not held to the contract.
 */
bool
genreHoldsLeaderContract(const std::string &genre)
{
    return genre != "compute";
}

constexpr std::uint64_t corpusFramesPerRound = 10;
constexpr double minCorrelation = 0.997;

/** rank[i] = position of item i when sorted ascending by cost. */
std::vector<std::size_t>
rankOf(const std::vector<double> &costs)
{
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return costs[a] < costs[b];
              });
    std::vector<std::size_t> rank(costs.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos)
        rank[order[pos]] = pos;
    return rank;
}

/**
 * Capacity group of a design preset: presets that differ only in
 * clocks and rates share the baseline cache geometry and one work
 * trace. A wrong entry here makes retimeAll panic.
 */
std::string
capacityGroup(const std::string &preset)
{
    if (preset == "wide" || preset == "fastmem")
        return "baseline";
    return preset;
}

void
recordFailure(Tally &t, const std::string &what)
{
    ++t.failed;
    t.failures.push_back(what);
}

bool
weightsCoverParent(const WorkloadSubset &subset, const Trace &trace)
{
    const double frames = static_cast<double>(trace.frameCount());
    return std::fabs(subset.totalFrameWeight() - frames) <= 1e-9 * frames;
}

void
runFreqScalingStudy(const RoundInputs &in, bool split, Tally &t)
{
    const GpuConfig base = makeGpuPreset("baseline");
    const FreqScalingConfig fcfg;
    for (const Trace &trace : in.traces) {
        ++t.attempted;
        resetPeakRss();
        try {
            WorkloadSubset subset;
            {
                obs::SpanScope span("subset.build");
                subset = buildWorkloadSubset(trace, SubsetConfig{});
            }
            const FreqScalingResult r =
                split ? freqScalingSplit(trace, subset, base, fcfg)
                      : runFreqScaling(trace, subset, base, fcfg);

            for (double v : r.parentNs)
                t.mix(v);
            for (double v : r.subsetNs)
                t.mix(v);
            t.mix(r.correlation);
            t.mix(static_cast<std::uint64_t>(subset.subsetDraws()));

            const std::size_t b = fcfg.baselineIndex;
            t.errors.push_back(std::fabs(r.subsetNs[b] - r.parentNs[b]) /
                               r.parentNs[b]);
            t.minCorr = std::min(t.minCorr, r.correlation);
            const double parent = static_cast<double>(subset.parentDraws);
            const double reps = static_cast<double>(subset.subsetDraws());
            t.effNum += parent - reps;
            t.effDen += parent;
            t.drawsPriced += parent;
            t.layerDraws["gpusim.work_trace.baseline"] += parent;
            t.layerDraws["sweep.draw_configs"] +=
                (parent + reps) * static_cast<double>(fcfg.scales.size());

            if (r.correlation < minCorrelation)
                recordFailure(t, trace.name() + ": correlation " +
                                     std::to_string(r.correlation));
            else if (!weightsCoverParent(subset, trace))
                recordFailure(t, trace.name() +
                                     ": subset weights do not sum to "
                                     "the parent frame count");
        } catch (const std::exception &e) {
            recordFailure(t, trace.name() + ": " + e.what());
        }
        t.opPeakMib.push_back(peakRssMib());
    }
}

void
runPathfindingStudy(const RoundInputs &in, bool split, Tally &t)
{
    const std::vector<GpuConfig> designs = pathfindingDesigns();
    for (const Trace &trace : in.traces) {
        ++t.attempted;
        resetPeakRss();
        try {
            WorkloadSubset subset;
            {
                obs::SpanScope span("subset.build");
                subset = buildWorkloadSubset(trace, SubsetConfig{});
            }
            const PathfindingResult r =
                split ? pathfindingSplit(trace, subset, designs)
                      : runPathfinding(trace, subset, designs);

            for (const DesignPointScore &p : r.points) {
                t.mix(p.parentNs);
                t.mix(p.subsetNs);
            }
            for (std::size_t rank : r.subsetRanking)
                t.mix(static_cast<std::uint64_t>(rank));
            t.mix(r.speedupCorrelation);
            t.mix(r.rankCorrelation);

            const DesignPointScore &base = r.points.front();
            t.errors.push_back(std::fabs(base.subsetNs - base.parentNs) /
                               base.parentNs);
            t.minCorr = std::min(t.minCorr, r.speedupCorrelation);
            const double parent = static_cast<double>(subset.parentDraws);
            const double reps = static_cast<double>(subset.subsetDraws());
            t.effNum += parent - reps;
            t.effDen += parent;
            t.drawsPriced += parent * static_cast<double>(designs.size());
            for (const GpuConfig &d : designs)
                if (capacityGroup(d.name) == d.name)
                    t.layerDraws["gpusim.work_trace." + d.name] += parent;
            t.layerDraws["sweep.draw_configs"] +=
                parent * static_cast<double>(designs.size());

            if (!r.rankingPreserved)
                recordFailure(t, trace.name() + ": design ranking changed");
            else if (r.speedupCorrelation < minCorrelation)
                recordFailure(t, trace.name() + ": speedup correlation " +
                                     std::to_string(r.speedupCorrelation));
            else if (!weightsCoverParent(subset, trace))
                recordFailure(t, trace.name() +
                                     ": subset weights do not sum to "
                                     "the parent frame count");
        } catch (const std::exception &e) {
            recordFailure(t, trace.name() + ": " + e.what());
        }
        t.opPeakMib.push_back(peakRssMib());
    }
}

void
runClusterFamiliesStudy(const RoundInputs &in, bool split, Tally &t)
{
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const auto &families = clusterFamilies();
    t.families.resize(families.size());

    std::vector<double> leader_actual, leader_predicted;
    for (const CorpusFrame &cf : in.corpus) {
        const Trace &trace = in.traces[cf.traceIndex];
        const Frame &frame = trace.frame(cf.frameIndex);
        resetPeakRss();
        for (std::size_t f = 0; f < families.size(); ++f) {
            ++t.attempted;
            try {
                DrawSubsetConfig cfg;
                cfg.algo = families[f];
                const FramePredictionReport r =
                    split ? framePredictionSplit(
                                trace, frame, sim, cfg,
                                f == 0 ? "gpusim.ground_truth_cold"
                                       : "gpusim.ground_truth_repeat")
                          : evaluateFramePrediction(trace, frame, sim, cfg);

                t.mix(r.actualNs);
                t.mix(r.predictedNs);
                t.mix(static_cast<std::uint64_t>(r.drawsSimulated));
                t.mix(r.quality.meanIntraError);
                t.mix(static_cast<std::uint64_t>(r.quality.outliers));

                FamilyTally &ft = t.families[f];
                ++ft.frames;
                ft.reps += r.drawsSimulated;
                ft.errSum += r.relError();
                ft.effSum += r.efficiency;
                t.drawsPriced += static_cast<double>(r.drawsTotal);
                if (f != 0)
                    continue;
                t.errors.push_back(r.relError());
                t.effNum += r.efficiency;
                t.effDen += 1.0;
                leader_actual.push_back(r.actualNs);
                leader_predicted.push_back(r.predictedNs);
                if (genreHoldsLeaderContract(in.genres[cf.traceIndex])) {
                    t.contractErrSum += r.relError();
                    ++t.contractFrames;
                }
            } catch (const std::exception &e) {
                recordFailure(t, trace.name() + " frame " +
                                     std::to_string(cf.frameIndex) + " " +
                                     toString(families[f]) + ": " +
                                     e.what());
            }
        }
        t.opPeakMib.push_back(peakRssMib());
    }

    if (leader_actual.size() >= 2)
        t.minCorr = std::min(t.minCorr,
                             pearson(leader_actual, leader_predicted));
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::FreqScaling:
        return "freq_scaling";
      case Workload::Pathfinding:
        return "pathfinding";
      case Workload::ClusterFamilies:
        return "cluster_families";
    }
    throw std::logic_error("unknown workload");
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::FreqScaling, Workload::Pathfinding,
                       Workload::ClusterFamilies}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const std::vector<ClusterAlgo> &
clusterFamilies()
{
    static const std::vector<ClusterAlgo> families = {
        ClusterAlgo::Leader, ClusterAlgo::KMeansBic,
        ClusterAlgo::Agglomerative, ClusterAlgo::GraphPartition};
    return families;
}

std::size_t
runRounds(Workload w)
{
    return workloadSpec(w).rounds;
}

std::size_t
runSetups(Workload w)
{
    return workloadSpec(w).setups;
}

std::vector<GpuConfig>
pathfindingDesigns()
{
    std::vector<GpuConfig> designs;
    for (const std::string &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));
    return designs;
}

std::vector<GameProfile>
roundProfiles(Workload w, SuiteScale scale, std::uint64_t seed,
            std::size_t round)
{
    const std::vector<GameSpec> specs =
        scale == SuiteScale::Paper ? workloadSpec(w).games : ciGames(w);
    std::vector<GameProfile> profiles;
    for (const GameSpec &spec : specs) {
        GameProfile p = builtinProfile(spec.name, scale);
        p.seed = mix64(p.seed ^ mix64(seed ^ mix64(round)));
        p.segments = spec.segments;
        p.segmentFramesMin = spec.framesPerSegment;
        p.segmentFramesMax = spec.framesPerSegment;
        p.validate();
        profiles.push_back(std::move(p));
    }
    return profiles;
}

RoundInputs
generateInputs(Workload w, const std::vector<GameProfile> &games)
{
    RoundInputs in;
    for (const GameProfile &p : games) {
        in.traces.push_back(GameGenerator(p).generate());
        in.genres.push_back(p.genre);
    }
    if (w == Workload::ClusterFamilies)
        in.corpus = sampleCorpus(in.traces, corpusFramesPerRound);
    return in;
}

FreqScalingResult
freqScalingSplit(const Trace &trace, const WorkloadSubset &subset,
                 const GpuConfig &base, const FreqScalingConfig &config)
{
    FreqScalingResult result;
    result.scales = config.scales;

    const GpuSimulator base_sim(base);
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, config.scales);
    SweepConfig parent_pass;
    parent_pass.path = config.path;
    SweepConfig subset_pass = parent_pass;
    subset_pass.perDraw = true;

    std::optional<WorkTrace> parent_work;
    {
        obs::SpanScope span("gpusim.work_trace.baseline");
        parent_work.emplace(buildWorkTrace(trace, base_sim));
    }
    SweepResult parent_sweep;
    {
        obs::SpanScope span("sweep.retime");
        parent_sweep = retimeAll(*parent_work, points, parent_pass);
    }
    parent_work.reset();

    std::optional<WorkTrace> subset_work;
    {
        obs::SpanScope span("gpusim.subset_work_trace");
        subset_work.emplace(buildSubsetWorkTrace(trace, subset, base_sim));
    }
    SweepResult subset_sweep;
    {
        obs::SpanScope span("sweep.retime");
        subset_sweep = retimeAll(*subset_work, points, subset_pass);
    }

    {
        obs::SpanScope span("core.predict");
        for (std::size_t c = 0; c < points.size(); ++c) {
            result.parentNs.push_back(parent_sweep.totalNs[c]);
            const double overhead = points[c].frameOverheadUs * 1e3;
            double subset_total = 0.0;
            for (std::size_t u = 0; u < subset.units.size(); ++u) {
                const SubsetUnit &unit = subset.units[u];
                std::vector<double> rep_costs;
                for (std::size_t i = subset_work->groupBegin(u);
                     i < subset_work->groupEnd(u); ++i)
                    rep_costs.push_back(subset_sweep.drawNsAt(c, i));
                const auto predicted = predictItemCosts(
                    unit.frameSubset.clustering, rep_costs,
                    subset.prediction, unit.frameSubset.workUnits);
                double frame_ns = overhead;
                for (double ns : predicted)
                    frame_ns += ns;
                subset_total += unit.frameWeight * frame_ns;
            }
            result.subsetNs.push_back(subset_total);
        }
    }

    const double parent_base = result.parentNs[config.baselineIndex];
    const double subset_base = result.subsetNs[config.baselineIndex];
    for (std::size_t i = 0; i < config.scales.size(); ++i) {
        result.parentImprovement.push_back(parent_base /
                                           result.parentNs[i]);
        result.subsetImprovement.push_back(subset_base /
                                           result.subsetNs[i]);
        result.maxImprovementGap = std::max(
            result.maxImprovementGap,
            std::fabs(result.parentImprovement.back() -
                      result.subsetImprovement.back()));
    }
    result.correlation =
        pearson(result.parentImprovement, result.subsetImprovement);
    return result;
}

PathfindingResult
pathfindingSplit(const Trace &trace, const WorkloadSubset &subset,
                 const std::vector<GpuConfig> &designs)
{
    // Capacity groups in first-seen order, as the engine forms them.
    std::vector<std::string> group_names;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const std::string group = capacityGroup(designs[i].name);
        std::size_t g = 0;
        while (g < group_names.size() && group_names[g] != group)
            ++g;
        if (g == group_names.size()) {
            group_names.push_back(group);
            groups.emplace_back();
        }
        groups[g].push_back(i);
    }

    std::vector<double> parent_costs(designs.size(), 0.0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::vector<std::size_t> &members = groups[g];
        const GpuSimulator sim(designs[members.front()]);
        std::vector<GpuConfig> configs;
        for (std::size_t i : members)
            configs.push_back(designs[i]);
        std::optional<WorkTrace> work;
        {
            obs::SpanScope span("gpusim.work_trace." + group_names[g]);
            work.emplace(buildWorkTrace(trace, sim));
        }
        SweepResult sweep;
        {
            obs::SpanScope span("sweep.retime");
            sweep = retimeAll(*work, configs, SweepConfig{});
        }
        for (std::size_t m = 0; m < members.size(); ++m)
            parent_costs[members[m]] = sweep.totalNs[m];
    }

    PathfindingResult result;
    std::vector<double> subset_costs;
    {
        obs::SpanScope span("core.predict");
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const GpuSimulator sim(designs[i]);
            DesignPointScore score;
            score.name = designs[i].name;
            score.parentNs = parent_costs[i];
            score.subsetNs = subset.predictTotalNs(trace, sim);
            subset_costs.push_back(score.subsetNs);
            result.points.push_back(std::move(score));
        }
    }
    for (auto &score : result.points) {
        score.parentSpeedup = parent_costs[0] / score.parentNs;
        score.subsetSpeedup = subset_costs[0] / score.subsetNs;
    }
    result.parentRanking = rankOf(parent_costs);
    result.subsetRanking = rankOf(subset_costs);
    result.rankingPreserved = result.parentRanking == result.subsetRanking;

    std::vector<double> parent_speedups, subset_speedups;
    for (const auto &score : result.points) {
        parent_speedups.push_back(score.parentSpeedup);
        subset_speedups.push_back(score.subsetSpeedup);
    }
    result.speedupCorrelation = pearson(parent_speedups, subset_speedups);
    result.rankCorrelation = spearman(parent_costs, subset_costs);
    return result;
}

FramePredictionReport
framePredictionSplit(const Trace &trace, const Frame &frame,
                     const GpuSimulator &simulator,
                     const DrawSubsetConfig &config,
                     const std::string &truth_span)
{
    std::optional<FrameSubset> subset;
    {
        obs::SpanScope span(std::string("cluster.") +
                                      toString(config.algo));
        subset.emplace(buildFrameSubset(trace, frame, config));
    }
    const Clustering &c = subset->clustering;

    FramePredictionReport report;
    report.frameIndex = frame.index();
    report.drawsTotal = frame.drawCount();
    report.drawsSimulated = c.k;
    report.efficiency = c.efficiency();

    std::vector<double> costs;
    costs.reserve(frame.drawCount());
    double actual = 0.0;
    {
        obs::SpanScope span(truth_span);
        for (const auto &draw : frame.draws()) {
            costs.push_back(simulator.simulateDraw(trace, draw).totalNs);
            actual += costs.back();
        }
    }
    const double overhead = simulator.config().frameOverheadUs * 1e3;
    report.actualNs = actual + overhead;

    obs::SpanScope span("core.predict");
    std::vector<double> rep_costs(c.k, 0.0);
    for (std::size_t cl = 0; cl < c.k; ++cl)
        rep_costs[cl] = costs[c.representatives[cl]];
    const auto predicted = predictItemCosts(c, rep_costs, config.prediction,
                                            subset->workUnits);
    double predicted_total = 0.0;
    for (double ns : predicted)
        predicted_total += ns;
    report.predictedNs = predicted_total + overhead;
    report.quality = assessClusterQuality(c, costs, config.prediction,
                                          subset->workUnits);
    return report;
}

void
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    if (!f)
        throw std::runtime_error("cannot reset the peak-RSS mark");
}

double
peakRssMib()
{
    return static_cast<double>(obs::peakRssBytes()) / (1024.0 * 1024.0);
}

void
Tally::mix(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

void
Tally::mix(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xffu;
        digest *= 0x100000001b3ULL;
    }
}

void
runStudy(Workload w, const RoundInputs &inputs, bool split, Tally &tally)
{
    switch (w) {
      case Workload::FreqScaling:
        runFreqScalingStudy(inputs, split, tally);
        return;
      case Workload::Pathfinding:
        runPathfindingStudy(inputs, split, tally);
        return;
      case Workload::ClusterFamilies:
        runClusterFamiliesStudy(inputs, split, tally);
        return;
    }
}

} // namespace perfbench
