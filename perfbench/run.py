"""phenocloud benchmark: one command for every workload.

    python3 perfbench/run.py --workload control-plane --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and exits with code 2, printing no result, when ``src/`` is missing.

Inputs are generated from ``--seed`` under ``.perfbench/work/`` and removed
at the end.  Set-up is done ``SETUPS`` times and ``setup_s`` is their median.
Then rounds of the three operation groups run, closed loop: the workload's
own group every other round, each other group one round in four, so that
every run reports every metric.  The number of rounds follows from
``--seconds`` alone (see ``schedule``), so the same arguments always make
the same operations.  Every result is checked by ``oracle``.

With ``--trace 0`` the last line of stdout carries the gated end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics, taken from spans recorded around each call into the package, and
the process-bound end-to-end figures, which are too noisy on a shared VM to
gate.  In a traced
run the workload's own rounds alternate between tracing on and off, and
``trace.overhead_pct`` compares their median round times.  Spans are
written to ``.perfbench/traces/`` and every result, with its provenance, to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3
# The fanout group has no workload of its own: it runs one round in four of
# both workloads, so that each run can measure longer within the time the
# benchmark is allowed.
WORKLOADS = ("control-plane", "provision")
GROUPS = WORKLOADS + ("fanout",)
# Seconds one round of each group takes on the seed code on a 2-vCPU Xeon
# VM.  They turn --seconds into a fixed number of rounds: a run makes the
# same operations however fast the host or the code is, and takes about
# --seconds on that host.
ROUND_SECONDS = {"control-plane": 4.5, "provision": 1.4, "fanout": 1.6}
# A round that would end past this many seconds of rounds, by the longest
# round of its group so far, is skipped unless its group still lacks its
# first round (traced run: the workload's first two), so that code far
# slower than the seed code still ends in time.
LIMIT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workers):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workers,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "scan_workers": {"light": workers, "heavy": [1, workers], "command": workers},
        "bench_processes": workers,
        "scaling_note": (
            f"nproc={workers}: scan_speedup is t(W=1)/t(W={workers}); this host "
            f"cannot show scaling beyond W={workers}"
        ),
    }


def schedule(workload, seconds):
    """The groups' rounds in order: the pattern ``own, other, own, other``
    repeated as often as fits ``seconds`` at ``ROUND_SECONDS``, at least once."""
    others = [g for g in GROUPS if g != workload]
    pattern = [workload, others[0], workload, others[1]]
    reps = max(1, round(seconds / sum(ROUND_SECONDS[g] for g in pattern)))
    return pattern * reps


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "phenocloud" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'phenocloud'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phenocloud

    if Path(phenocloud.__file__).resolve().parent != (SRC / "phenocloud").resolve():
        print(f"error: imported phenocloud from {phenocloud.__file__}", file=sys.stderr)
        return 2

    import spans
    import workloads

    end_to_end, per_layer = declared_metrics()
    workers = len(os.sched_getaffinity(0))
    work_base = OUT / "work"
    work_base.mkdir(parents=True, exist_ok=True)
    workdirs = []
    try:
        setup_times = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_base))
            workdirs.append(workdir)
            data = workloads.Inputs(workdir, args.seed)
            setup_times.append(time.perf_counter() - start)
        for stale in workdirs[:-1]:
            shutil.rmtree(stale)

        harness = workloads.Harness()
        tracer = spans.Tracer() if args.trace else spans.NullTracer()
        untraced = spans.NullTracer()
        groups = {
            "control-plane": workloads.ControlPlane(data, harness, str(SRC)),
            "provision": workloads.Provision(data, harness),
            "fanout": workloads.Fanout(data, harness, workers),
        }
        # Interleaved over the whole run, so that a slow spell of the host
        # is shared by every metric.
        need = {g: 1 for g in groups}
        if args.trace:
            need[args.workload] = 2  # one traced round and one untraced
        done = Counter()
        round_walls = {True: [], False: []}
        group_walls = {g: [] for g in groups}
        # The inputs live for the whole run.  Frozen, they stay out of the
        # collector's scans, so a collection inside a timed call costs what
        # it would in a process that holds only that call's objects.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        for name in schedule(args.workload, args.seconds):
            due = time.perf_counter() - started + max(group_walls[name], default=0.0)
            if due > LIMIT_S and done[name] >= need[name]:
                continue
            own = name == args.workload
            traced = bool(args.trace) and not (own and done[name] % 2)
            harness.tracer = tracer if traced else untraced
            t0 = time.perf_counter()
            groups[name].round(done[name])
            group_walls[name].append(time.perf_counter() - t0)
            if own:
                round_walls[traced].append(group_walls[name][-1])
            done[name] += 1
        harness.tracer = untraced

        # Each group's end-to-end figures; BENCHMARK.json gates only the
        # steady ones and lists the process-bound ones under per_layer.
        metrics = {}
        for group in groups.values():
            metrics.update(group.end_to_end())
        if args.trace:
            for group in groups.values():
                metrics.update(group.layer_metrics(tracer))
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(round_walls[True]) / statistics.median(round_walls[False]) - 1.0)
            metrics["trace.spans"] = len(tracer.spans)
            declared = per_layer
            (OUT / "traces").mkdir(exist_ok=True)
            tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["ok_ratio"] = (harness.attempted - harness.failed) / harness.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            declared = end_to_end
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    missing = sorted(set(names) - {k for k, val in metrics.items() if val is not None})
    extra = sorted(set(metrics) - {m["name"] for m in end_to_end + per_layer})
    if missing or extra:
        print(f"error: metrics missing {missing}, undeclared {extra}", file=sys.stderr)
        return 1

    result = {
        "correct": harness.wrong == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    info = dict(provenance(args, workers), rounds=dict(done), errors=dict(harness.errors))
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        cp = groups["control-plane"]
        op_samples = {f"{i} {op} {first}": cp.op_times[i]
                      for i, (op, first, *_) in enumerate(cp.script)}
        json.dump(dict(info, result=result, samples=harness.values, op_samples=op_samples,
                       setup_samples=setup_times, round_seconds=group_walls),
                  fh, indent=2, sort_keys=True)
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
