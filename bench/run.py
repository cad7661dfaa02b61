"""bwtk benchmark: three workloads, their end-to-end metrics, and a traced run.

Run from the repository root:

    python3 bench/run.py --workload dna_single --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload pair_cli --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload index_roundtrip --seed 1 --seconds 1 --smoke

Load model: closed loop, one client, one operation at a time, one process
and no threads; the CLI workloads run at most one `bwtk` child at a time.

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
alternates untraced and traced in-process iterations, then derives the
per-layer metrics from the traced ones (see tracing.py and metrics.py).
Output checks run outside the timed section in both modes.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. A
result file with provenance, sample counts and, for traced runs, every span
is written to bench/out/. The program is imported from src/ next to bench/;
without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, SINGLE_MEASURES, PAIR_KERNELS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
DEADLINE_S = 175  # a run must end within 180 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="bwtk benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def import_bwtk() -> None:
    """Import bwtk from src/ of this checkout, never from anywhere else."""
    if not (SRC / "bwtk" / "__init__.py").is_file():
        sys.exit(f"bench: no bwtk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bwtk

    if Path(bwtk.__file__).resolve().parent != (SRC / "bwtk").resolve():
        sys.exit(f"bench: bwtk imported from {bwtk.__file__}, not from {SRC}")


def timed_loop(seconds: float, body) -> list:
    """Call body() until another call would likely end after `seconds`; at least once.

    Garbage left by one call is collected before the next, outside its timing.
    """
    out = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        out.append(body())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def judge(wl, iterations) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and why each failure happened."""
    import checks

    try:
        want, bad = wl.expected(iterations[0])
    except Exception as exc:  # a check that cannot run fails every operation
        want, bad = None, {"*": [f"checks raised {exc!r}"]}
    attempted = failed = 0
    problems: list[str] = []
    for it in iterations:
        for op in it.ops:
            attempted += 1
            if not op.ok:
                why = [op.error]
            else:
                why = bad.get(op.name) or bad.get("*")
                if not why and not checks.close(op.output, want[op.name]):
                    why = [f"output differs from the expected: {str(op.output)[:200]}"]
            if why:
                failed += 1
                problems += [f"{op.name}: {w}" for w in why]
    return attempted, failed, list(dict.fromkeys(problems))


def plain_run(wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with nothing wrapped."""
    setup = [wl.setup_once() for _ in range(SETUP_REPEATS)]
    iterations = timed_loop(seconds, lambda: wl.iterate(False))
    rss = [it.rss_mb for it in iterations if it.rss_mb is not None]
    if not rss:  # in-process workload: this fresh process ran every iteration
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    samples = {
        "wall_s": [it.wall_s for it in iterations],
        "setup_s": setup,
        "peak_rss_mb": rss,
        "index_bytes_per_symbol": [wl.index_bytes_per_symbol()],
    }
    attempted, failed, problems = judge(wl, iterations)
    return samples, {"attempted": attempted, "failed": failed, "problems": problems}


def traced_run(wl, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced in-process iterations, each paired with an untraced one."""
    from tracing import Tracer, analyse

    untraced, traced, tracers = [], [], []

    def pair() -> None:
        untraced.append(wl.iterate(True))
        tracer = Tracer()
        gc.collect()
        with tracer.installed(), tracer.span("iteration"):
            traced.append(wl.iterate(True))
        tracers.append(tracer)

    timed_loop(seconds, pair)
    first = tracers[0]
    passes = max((ix.enumerations for ix in first.indexes), default=0)
    analyses = [analyse(t) for t in tracers]
    samples: dict[str, list[float]] = {}
    span_of = {
        "text.load_input_s": "text.load_input",
        "text.map_alphabet_s": "text.map_alphabet",
        "suffix.suffix_array_s": "suffix.suffix_array",
        "suffix.build_bwt_s": "suffix.build_bwt",
        "suffix.dump_s": "suffix.dump",
        "suffix.load_s": "suffix.load",
        "wavelet.build_s": "wavelet.build",
    }
    fns = [fn for fn, _ in SINGLE_MEASURES] + list(PAIR_KERNELS)
    span_of.update({f"kernels.{fn}_s": f"kernels.{fn}" for fn in fns})
    for metric, span in span_of.items():
        samples[metric] = [a["total_s"].get(span, 0.0) for a in analyses]
    for hot in ("range_distinct", "rank"):
        samples[f"wavelet.{hot}_calls"] = [first.hot[f"wavelet.{hot}"][0]]
        samples[f"wavelet.{hot}_s"] = [t.hot[f"wavelet.{hot}"][1] for t in tracers]
    samples["cli.self_s"] = [a["self_s"].get("cli.run", 0.0) for a in analyses]
    samples["enumerate.passes"] = [passes]

    bare = wl.bare_pass(first.indexes) if first.indexes else None
    for kind in ("right_maximal", "generalized"):
        for stat in ("visits", "us_per_visit", "peak_frames"):
            samples[f"enumerate.{kind}_{stat}"] = [0]
    samples["wavelet.range_distinct_per_visit"] = [0]
    bare_traced_s = 0.0
    if bare is not None:
        kind, stats, bare_s = bare
        visits = stats["visits"]
        samples[f"enumerate.{kind}_visits"] = [visits]
        samples[f"enumerate.{kind}_peak_frames"] = [stats["peak_frames"]]
        samples[f"enumerate.{kind}_us_per_visit"] = [bare_s / visits * 1e6]
        # the same pass traced, so that folds subtract a pass paying the same wrappers
        tracer = Tracer()
        with tracer.installed():
            _, _, bare_traced_s = wl.bare_pass(first.indexes)
        samples["wavelet.range_distinct_per_visit"] = [tracer.hot["wavelet.range_distinct"][0] / visits]
    for fn in fns:
        fn_s = samples[f"kernels.{fn}_s"]
        samples[f"kernels.{fn}_fold_s"] = [s - bare_traced_s if s else 0.0 for s in fn_s]

    samples["cli.startup_s"] = [0.0]
    if wl.uses_cli:
        samples["cli.startup_s"] = [wl.import_seconds() for _ in range(STARTUP_REPEATS)]
    walls = statistics.median([it.wall_s for it in traced]), statistics.median([it.wall_s for it in untraced])
    samples["trace.overhead_frac"] = [walls[0] / walls[1] - 1.0]
    samples["trace.coverage_frac"] = [a["coverage_frac"] for a in analyses]
    attempted, failed, problems = judge(wl, untraced + traced)
    samples["failed_frac"] = [failed / attempted]
    extra = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "exact_counts_by_iteration": [
            {name: calls for name, (calls, _) in t.hot.items()} for t in tracers
        ],
        "layer_self_s": [a["layer_self_s"] for a in analyses],
        "spans": [
            {"iteration": k, "name": name, "start": start - t.spans[0][1], "end": end - t.spans[0][1],
             "parent": parent, "hot_s": hot}
            for k, t in enumerate(tracers)
            for name, start, end, parent, hot in t.spans
        ],
    }
    return samples, extra


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace, wl) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "bwtk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": wl.sizes,
        "setup_repeats": SETUP_REPEATS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _stop(signum, frame) -> None:
    # raised inside the run, so a running child is killed and the work directory removed
    raise TimeoutError(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_bwtk()
    import workloads

    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir, SRC)
        run = traced_run if args.trace else plain_run
        samples, extra = run(wl, args.seconds)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()}
    correct = extra["failed"] == 0 and not extra["problems"]
    record = {
        "provenance": provenance(args, wl),
        "correct": correct,
        "metrics": {
            name: dict(metrics[name], samples=len(samples[name]), values=samples[name]) for name in units
        },
        **extra,
    }
    if not args.trace:
        record["failed_frac"] = extra["failed"] / extra["attempted"]
    suffix = "-smoke" if args.smoke else ""
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in extra["problems"][:20]:
        print(f"bench: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": extra["attempted"], "failed": extra["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
