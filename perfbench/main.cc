/**
 * @file
 * The benchmark program. A run of a workload is one set-up process and
 * one process per round, each printing one JSON object on its last
 * line:
 *
 *   perfbench <workload> --seed N --threads T --setup
 *   perfbench <workload> --seed N --threads T --round R
 *             [--scale paper|ci] [--split] [--spans-out FILE]
 *
 * --setup generates the inputs of every round of the run several times
 * over and reports each set-up's wall time and the number of rounds.
 * --round R generates round R's inputs, untimed, and then times its
 * study. A round in its own process starts with an empty draw-work memo
 * and its own heap, so its peak resident set is that of its inputs and
 * its study alone.
 *
 * Without --split the round calls the production entry points. With
 * --split it makes the same study out of the public calls those entry
 * points are made of, records the library's spans, reports the
 * per-layer times, and writes the spans to FILE as a Chrome trace.
 * perfbench/run.py is the entry point that builds and launches it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/counters.hh"
#include "runtime/runtime_config.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

struct Options
{
    Workload workload = Workload::FreqScaling;
    std::uint64_t seed = 0;
    std::size_t threads = 0;
    bool setup = false;
    bool haveRound = false;
    std::size_t round = 0;
    gws::SuiteScale scale = gws::SuiteScale::Paper;
    bool split = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "<freq_scaling|pathfinding|cluster_families> --seed N "
                 "--threads T (--setup | --round R) [--scale paper|ci] "
                 "[--split] [--spans-out FILE]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    if (argc < 2 || !parseWorkload(argv[1], &opt.workload))
        usage(argc < 2 ? "missing workload"
                       : std::string("unknown workload '") + argv[1] + "'");
    bool have_seed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--split") {
            opt.split = true;
            continue;
        }
        if (flag == "--setup") {
            opt.setup = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--seed") {
            opt.seed = parseCount(flag, value);
            have_seed = true;
        } else if (flag == "--threads") {
            opt.threads = parseCount(flag, value);
        } else if (flag == "--round") {
            opt.round = parseCount(flag, value);
            opt.haveRound = true;
        } else if (flag == "--scale") {
            const std::string s = value;
            if (s != "paper" && s != "ci")
                usage("bad scale '" + s + "'");
            opt.scale = s == "ci" ? gws::SuiteScale::Ci
                                  : gws::SuiteScale::Paper;
        } else if (flag == "--spans-out") {
            opt.spansOut = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!have_seed || opt.threads == 0)
        usage("--seed and --threads (>= 1) are required");
    if (opt.setup == opt.haveRound)
        usage("give exactly one of --setup and --round");
    if (opt.haveRound && opt.round >= runRounds(opt.workload))
        usage("--round must be below " +
              std::to_string(runRounds(opt.workload)));
    return opt;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Every digit of v, so that a value reads back exactly. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Appends `"name": {"value": v, "unit": "u"}` entries. */
class MetricWriter
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        out += (out.empty() ? "\"" : ", \"") + name + "\": {\"value\": " +
               jsonNumber(value) + ", \"unit\": \"" + unit + "\"}";
    }

    std::string json() const { return "{" + out + "}"; }

  private:
    std::string out;
};

std::string
jsonArray(const std::vector<double> &xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(xs[i]);
    return out + "]";
}

/** Start recording spans, without a cap, and mark the main thread. */
void
startTrace()
{
    gws::obs::setTraceCapPerThread(0);
    gws::obs::traceBegin();
    gws::obs::traceInstant("perfbench.main", "");
}

/**
 * Stop recording and sum the wall seconds of the main thread's
 * top-level spans by name. These are the benchmark's layer spans; the
 * library's own spans nest inside them or run on pool threads.
 */
std::map<std::string, double>
finishTrace(const std::string &spans_out)
{
    gws::obs::traceEnd();
    const std::vector<gws::obs::TraceEvent> events =
        gws::obs::traceSnapshot();
    std::uint32_t main_tid = 0;
    for (const auto &ev : events)
        if (ev.phase == gws::obs::TracePhase::Instant &&
            ev.name == "perfbench.main")
            main_tid = ev.tid;
    std::map<std::string, double> seconds;
    for (const auto &ev : events)
        if (ev.phase == gws::obs::TracePhase::Complete && ev.depth == 0 &&
            ev.tid == main_tid)
            seconds[ev.name] += 1e-9 * static_cast<double>(ev.durationNs);
    if (!spans_out.empty() && !gws::obs::writeChromeTrace(spans_out))
        throw std::runtime_error("cannot write " + spans_out);
    return seconds;
}

double
spanSeconds(const std::map<std::string, double> &spans,
            const std::string &name)
{
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
}

double
layerDraws(const Tally &t, const std::string &prefix)
{
    double n = 0.0;
    for (const auto &[label, draws] : t.layerDraws)
        if (label.compare(0, prefix.size(), prefix) == 0)
            n += draws;
    return n;
}

/** Microseconds per draw, or 0 when the layer priced no draws. */
double
usPerDraw(double seconds, double draws)
{
    return draws > 0.0 ? 1e6 * seconds / draws : 0.0;
}

/** Per-layer metrics of one split round, from its layer spans. */
std::string
spanMetrics(const Tally &t, const std::map<std::string, double> &spans,
            double run_wall)
{
    MetricWriter m;
    m.add("subset.build_s", spanSeconds(spans, "subset.build"), "s");

    double work_s = 0.0;
    for (const char *group : {"baseline", "bigcache", "mobile"}) {
        const std::string label = std::string("gpusim.work_trace.") + group;
        const double s = spanSeconds(spans, label);
        work_s += s;
        m.add(std::string("gpusim.work_trace_s.") + group, s, "s");
        m.add(std::string("gpusim.us_per_draw.") + group,
              usPerDraw(s, layerDraws(t, label)), "us");
    }
    m.add("gpusim.work_trace_s", work_s, "s");
    m.add("gpusim.us_per_draw",
          usPerDraw(work_s, layerDraws(t, "gpusim.work_trace.")), "us");
    m.add("gpusim.subset_work_trace_s",
          spanSeconds(spans, "gpusim.subset_work_trace"), "s");
    m.add("gpusim.ground_truth_cold_s",
          spanSeconds(spans, "gpusim.ground_truth_cold"), "s");
    m.add("gpusim.ground_truth_repeat_s",
          spanSeconds(spans, "gpusim.ground_truth_repeat"), "s");

    const double retime_s = spanSeconds(spans, "sweep.retime");
    m.add("sweep.retime_s", retime_s, "s");
    m.add("sweep.draw_configs_per_s",
          retime_s > 0.0 ? layerDraws(t, "sweep.draw_configs") / retime_s
                         : 0.0,
          "1/s");
    m.add("core.predict_s", spanSeconds(spans, "core.predict"), "s");

    const auto &families = clusterFamilies();
    for (std::size_t f = 0; f < families.size(); ++f) {
        const std::string name = gws::toString(families[f]);
        const FamilyTally ft =
            f < t.families.size() ? t.families[f] : FamilyTally{};
        const double frames =
            std::max<double>(1.0, static_cast<double>(ft.frames));
        m.add("cluster." + name + "_s", spanSeconds(spans, "cluster." + name),
              "s");
        m.add("cluster." + name + ".reps", static_cast<double>(ft.reps),
              "count");
        m.add("cluster." + name + ".err_pct", 100.0 * ft.errSum / frames,
              "%");
        m.add("cluster." + name + ".efficiency_pct",
              100.0 * ft.effSum / frames, "%");
    }

    double covered = 0.0;
    for (const auto &[name, s] : spans)
        covered += s;
    m.add("trace.coverage_pct", 100.0 * covered / run_wall, "%");
    return m.json();
}

/** Generate every round's inputs `setups` times; time each set-up. */
std::string
runSetup(const Options &opt)
{
    const std::size_t rounds = runRounds(opt.workload);
    std::vector<std::vector<gws::GameProfile>> games;
    for (std::size_t r = 0; r < rounds; ++r)
        games.push_back(roundProfiles(opt.workload, opt.scale, opt.seed, r));

    if (opt.split)
        startTrace();
    std::vector<double> setup_s;
    std::vector<RoundInputs> inputs;
    for (std::size_t i = 0; i < runSetups(opt.workload); ++i) {
        inputs.clear();
        const double t0 = nowSeconds();
        {
            gws::obs::SpanScope span("synth.generate");
            for (const auto &round_games : games)
                inputs.push_back(generateInputs(opt.workload, round_games));
        }
        setup_s.push_back(nowSeconds() - t0);
    }

    std::string out = "\"rounds\": " + std::to_string(rounds) +
                      ", \"setup_s\": " + jsonArray(setup_s);
    if (opt.split) {
        const auto spans = finishTrace(opt.spansOut);
        MetricWriter m;
        m.add("synth.generate_s",
              spanSeconds(spans, "synth.generate") /
                  static_cast<double>(setup_s.size()),
              "s");
        out += ", \"spans\": " + m.json();
    }
    return out;
}

/** Generate one round's inputs and time its study. */
std::string
runRound(const Options &opt)
{
    const RoundInputs inputs = generateInputs(
        opt.workload,
        roundProfiles(opt.workload, opt.scale, opt.seed, opt.round));

    // Resident set once the inputs exist; each operation's peak is
    // taken from there.
    resetPeakRss();
    const double inputs_rss = peakRssMib();
    const gws::RuntimeCounters c0 = gws::runtimeCounters();

    if (opt.split)
        startTrace();
    Tally tally;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    runStudy(opt.workload, inputs, opt.split, tally);
    const double wall = nowSeconds() - t0;
    const double cpu = processCpuSeconds() - cpu0;
    const gws::RuntimeCounters c1 = gws::runtimeCounters();

    MetricWriter process;
    process.add("runtime.cpu_s", cpu, "s");
    process.add("runtime.util_pct",
                100.0 * cpu / (wall * static_cast<double>(opt.threads)),
                "%");
    process.add("synth.inputs_rss_mib", inputs_rss, "MiB");
    process.add("runtime.study_rss_mib", median(tally.opPeakMib) - inputs_rss,
                "MiB");
    process.add("gpusim.draw_memo_hits",
                static_cast<double>(c1.drawCacheHits - c0.drawCacheHits),
                "count");
    process.add("gpusim.draw_memo_misses",
                static_cast<double>(c1.drawCacheMisses - c0.drawCacheMisses),
                "count");

    std::string failures;
    for (const std::string &f : tally.failures)
        failures += (failures.empty() ? "\"" : ", \"") +
                    gws::obs::jsonEscape(f) + "\"";
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(tally.digest));

    std::string out =
        "\"round\": " + std::to_string(opt.round) +
        ", \"attempted\": " + std::to_string(tally.attempted) +
        ", \"failed\": " + std::to_string(tally.failed) +
        ", \"failures\": [" + failures + "]" + ", \"digest\": \"" + digest +
        "\"" + ", \"round_s\": " + jsonNumber(wall) +
        ", \"draws_priced\": " + jsonNumber(tally.drawsPriced) +
        ", \"op_peak_rss_mib\": " + jsonArray(tally.opPeakMib) +
        ", \"errors\": " + jsonArray(tally.errors) +
        ", \"min_corr\": " + jsonNumber(tally.minCorr) +
        ", \"eff_num\": " + jsonNumber(tally.effNum) +
        ", \"eff_den\": " + jsonNumber(tally.effDen) +
        ", \"contract_err_sum\": " + jsonNumber(tally.contractErrSum) +
        ", \"contract_frames\": " + std::to_string(tally.contractFrames) +
        ", \"process\": " + process.json();
    if (opt.split)
        out += ", \"spans\": " +
               spanMetrics(tally, finishTrace(opt.spansOut), wall);
    return out;
}

int
run(const Options &opt)
{
    gws::RuntimeConfig rc;
    rc.threads = opt.threads;
    gws::setRuntimeConfig(rc);

    const std::string body = opt.setup ? runSetup(opt) : runRound(opt);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %zu, "
                "\"split\": %s, %s}\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), opt.threads,
                opt.split ? "true" : "false", body.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
