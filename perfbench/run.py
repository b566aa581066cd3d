#!/usr/bin/env python3
"""Build and run one benchmark workload; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

The benchmark program (perfbench) is built from source into
.bench_build/perfbench on first use. A run is one set-up process, which
times several set-ups of the run's inputs, and then one process per
round, each generating its round's inputs and timing its study. Every
process gets its thread count passed explicitly and has every GWS_*
variable removed from its environment, so the library runs on its
default paths.

--trace 0 runs the production entry points and prints the end-to-end
metrics. --trace 1 makes the run twice, untraced and then split into
its layers under spans, checks that both give identical results, and
prints the per-layer metrics plus the tracing overhead.

A run measures a fixed amount of work, sized to take about
run_seconds (BENCHMARK.json) on a 4-vCPU host; --seconds is accepted
but does not change the work, so that runs on faster and
slower code stay comparable.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(CHECKOUT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")

# Worker threads of the library's pool, per workload (see README.md for
# why). Rounds and set-ups per run are in perfbench's workload table.
THREADS = {"freq_scaling": 2, "pathfinding": 2, "cluster_families": 1}

# The paper's ~1 % mean per-frame error of the leader family, held over
# all frames of a run outside the compute genre.
LEADER_CONTRACT_MAX_ERR = 0.01

# A run must end within 180 s; a run that builds, within 900 s.
BUILD_DEADLINE_S = 880.0
RUN_DEADLINE_S = 170.0


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(deadline):
    """Configure (once) and build perfbench; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("GWS_")}


def run_program(args, mode, split, deadline):
    """Run one perfbench process; return its result object."""
    cmd = [PROGRAM, args.workload, "--seed", str(args.seed),
           "--threads", str(THREADS[args.workload]),
           "--scale", args.scale] + mode
    if split:
        label = "-".join(m.lstrip("-") for m in mode)
        spans = os.path.join(BUILD_DIR, "spans-%s-%d-%s.json"
                             % (args.workload, args.seed, label))
        cmd += ["--split", "--spans-out", spans]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def make_run(args, split, deadline):
    """The set-up process, then one process per round."""
    setup = run_program(args, ["--setup"], split, deadline)
    rounds = [run_program(args, ["--round", str(r)], split, deadline)
              for r in range(setup["rounds"])]
    for r in rounds:
        for failure in r["failures"]:
            log("failed: round %d: %s" % (r["round"], failure))
    return setup, rounds


def outcome(rounds):
    """(attempted, failed) over the run, with the leader contract."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    frames = sum(r["contract_frames"] for r in rounds)
    if frames:
        mean_err = sum(r["contract_err_sum"] for r in rounds) / frames
        if mean_err > LEADER_CONTRACT_MAX_ERR:
            log("failed: leader contract broken: mean error %.4f" % mean_err)
            # Every leader evaluation the contract covers fails.
            failed += frames
    return attempted, failed


def results(rounds):
    """What a traced run must reproduce exactly, round by round."""
    keys = ("digest", "attempted", "failed", "errors", "min_corr",
            "eff_num", "eff_den", "contract_err_sum", "contract_frames")
    return [[r[k] for k in keys] for r in rounds]


def metric(value, unit):
    return {"value": value, "unit": unit}


def fast_quartile(values, lower_is_faster):
    """The quartile of the rounds on the fast side.

    Other work on the host only ever slows a round down, and the rounds
    of a run are repeats of work of one size, so the fast quartile
    tracks the program's own cost more steadily than the median does.
    """
    q = statistics.quantiles(values, n=4)
    return q[0] if lower_is_faster else q[2]


def end_to_end(setup, rounds):
    eff_den = sum(r["eff_den"] for r in rounds)
    efficiency = sum(r["eff_num"] for r in rounds) / eff_den
    return {
        "setup_s": metric(statistics.median(setup["setup_s"]), "s"),
        "run_s": metric(fast_quartile([r["round_s"] for r in rounds], True),
                        "s"),
        "draws_per_s": metric(fast_quartile(
            [r["draws_priced"] / r["round_s"] for r in rounds], False),
            "1/s"),
        "peak_rss_mib": metric(statistics.median(
            p for r in rounds for p in r["op_peak_rss_mib"]), "MiB"),
        "efficiency_pct": metric(100.0 * efficiency, "%"),
        "min_corr_pct": metric(100.0 * min(r["min_corr"] for r in rounds),
                               "%"),
    }


def median_metrics(objects):
    """Each metric's median over the rounds' metric objects."""
    out = {}
    for name, first in objects[0].items():
        out[name] = metric(statistics.median(o[name]["value"]
                                             for o in objects),
                           first["unit"])
    return out


def per_layer(plain_rounds, split_setup, split_rounds):
    """Span metrics of the split run; process metrics of the plain one."""
    metrics = dict(split_setup["spans"])
    metrics.update(median_metrics([r["spans"] for r in split_rounds]))
    metrics.update(median_metrics([r["process"] for r in plain_rounds]))
    errors = [e for r in plain_rounds for e in r["errors"]]
    metrics["subset.mean_err_pct"] = metric(
        100.0 * statistics.fmean(errors), "%")
    metrics["subset.max_err_pct"] = metric(100.0 * max(errors), "%")
    base = fast_quartile([r["round_s"] for r in plain_rounds], True)
    traced = fast_quartile([r["round_s"] for r in split_rounds], True)
    metrics["trace.overhead_pct"] = metric(100.0 * (traced - base) / base,
                                           "%")
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="paper", choices=("paper", "ci"),
                        help="game scale; ci is for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    start = time.monotonic()
    try:
        build(start + BUILD_DEADLINE_S)
        deadline = min(start + BUILD_DEADLINE_S,
                       time.monotonic() + RUN_DEADLINE_S)
        setup, rounds = make_run(args, False, deadline)
        attempted, failed = outcome(rounds)
        if args.trace == 0:
            metrics = end_to_end(setup, rounds)
        else:
            split_setup, split_rounds = make_run(args, True, deadline)
            if (results(split_rounds) != results(rounds)
                    or split_setup["rounds"] != setup["rounds"]):
                log("traced run differs from untraced run")
                failed = attempted
            metrics = per_layer(rounds, split_setup, split_rounds)
    except (OSError, RuntimeError, ValueError, KeyError, TypeError,
            ZeroDivisionError, statistics.StatisticsError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
