"""Benchmark of nematicflow's command-line jobs, end to end and per layer.

    python3 perfbench/run.py --workload relax128 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/.  --workload all runs every workload in turn.

Each repetition is a fresh process (child.py) that imports the package,
parses the workload's config, builds the initial data, calls the
experiment driver the CLI calls, and checks the driver's outputs.  The
loop is closed: one job at a time.  Repetitions run until --seconds is
used up, and every end-to-end metric is the median over them.  The seed
fixes all inputs: initial data, perturbation and ensemble seeds derive
from it, so every repetition of a run sees the same inputs.

With --trace 1 the run alternates untraced and traced repetitions and adds
one probe process; it prints the per-layer metrics of layers.py, including
trace.overhead_s, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (output checks) and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import layers  # noqa: E402

# Run lengths per repetition, sized so that a repetition takes a few seconds
# on one core and a --seconds 30 run holds five or more of them.
RELAX_STEPS = 20
TWIN_STEPS = 30
VERIFY_TRIALS = 30  # the harness minimum
# Every child process is stopped by this many seconds after the run starts,
# so that a run ends within 180 s even if the program under test hangs.
RUN_LIMIT_S = 170
# Reference time of one child.calibrate chunk.  Reported times are seconds
# on a machine running at the speed where a chunk takes this long (about the
# median chunk on the 2-core x86-64 host the benchmark was defined on); see
# README.md "Machine-speed calibration".  Changing it rescales every time.
CALIBRATION_REF_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def derived_seeds(seed):
    """Initial-data, perturbation and ensemble seeds of one workload seed."""
    return {"initial": seed, "perturbation": seed + 1_000_000,
            "ensemble": seed + 2_000_000}


def config_text(workload, seed):
    s = derived_seeds(seed)
    initial = f"[initial]\nprofile = random\nseed = {s['initial']}\n"
    if workload == "relax128":
        return ("[grid]\nn = 128\n\n"
                f"[time]\ndt = 1e-3\nt_end = {RELAX_STEPS}e-3\n"
                "scheme = imex2\ncadence = 1\n\n"
                "[coefficients]\npreset = ansatz\n\n" + initial)
    if workload == "twin64":
        return ("[grid]\nn = 64\n\n"
                f"[time]\ndt = 1e-3\nt_end = {TWIN_STEPS}e-3\n"
                "scheme = imex1\ncadence = 1\n\n"
                "[coefficients]\npreset = ansatz\n\n" + initial + "\n"
                f"[twin]\nmode = perturb\ndelta = 1e-6\nseed = {s['perturbation']}\n")
    if workload == "verify64":
        return (initial + "\n"
                f"[verify]\nn_trials = {VERIFY_TRIALS}\nseed = {s['ensemble']}\n"
                "grids = 64\n")
    raise ValueError(workload)


WORKLOADS = ("relax128", "twin64", "verify64")
THROUGHPUT = {"relax128": "steps_per_s", "twin64": "steps_per_s",
              "verify64": "trials_per_s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def spawn(mode, workload, config_path, work_dir, env, deadline):
    """Run one child process to completion; returns its result dict."""
    out = tempfile.mkdtemp(prefix=mode + "-", dir=work_dir)
    result_path = os.path.join(out, "result.json")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, workload, config_path, out, result_path],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - start), check=False)
        error = proc.stderr.strip()[-2000:] if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = f"{mode} process stopped at the {RUN_LIMIT_S} s run limit"
    duration = time.perf_counter() - start
    if error is None and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    else:
        result = {"error": error or "no result written"}
    result["duration"] = duration
    return result


def measure(workload, seed, seconds, trace, work_dir):
    """Repetitions of one workload for `seconds`; returns the result dicts."""
    env = child_env()
    config_path = os.path.join(work_dir, f"{workload}.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_text(workload, seed))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    warm = spawn("warmup", workload, config_path, work_dir, env, deadline)
    if "error" in warm:
        raise RuntimeError("cannot import nematicflow:\n" + warm["error"])
    probe = (spawn("probe", workload, config_path, work_dir, env, deadline)
             if trace else None)
    kinds = ("plain", "traced") if trace else ("plain",)
    reps = {kind: [] for kind in kinds}
    longest = {kind: 0.0 for kind in kinds}
    for kind in itertools.cycle(kinds):
        elapsed = time.perf_counter() - start
        if reps[kind] and elapsed + longest[kind] > seconds:
            break
        result = spawn(kind, workload, config_path, work_dir, env, deadline)
        longest[kind] = max(longest[kind], result["duration"])
        reps[kind].append(result)
    return reps, probe


def tally(results):
    """(attempted, failed, failure lines) over the output checks of all runs."""
    attempted = failed = 0
    lines = []
    for r in results:
        if "error" in r:
            attempted += 1
            failed += 1
            lines.append("process failed: " + r["error"].splitlines()[-1]
                         if r["error"] else "process failed")
            continue
        for name, ok, detail in r.get("checks", ()):
            attempted += 1
            if not ok:
                failed += 1
                lines.append(f"check {name} failed: {detail}")
    return attempted, failed, lines


def end_to_end(runs, scaled=True):
    """Medians over repetitions, with times scaled to reference speed.

    The scale is CALIBRATION_REF_S over the median of all calibration
    chunks of the run (child.calibrate runs just before and just after each
    repetition's driver), so slow drift in the host's speed cancels.
    """
    ok = [r for r in runs if "error" not in r]
    scale = (CALIBRATION_REF_S / statistics.median(
        t for r in ok for t in r["calibration_s"])) if scaled else 1.0
    return {
        "wall_s": scale * statistics.median(r["wall_s"] for r in ok),
        "setup_s": scale * statistics.median(r["setup_s"] for r in ok),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in ok) / scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "nematicflow"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return None


def manifest(workload, seed, seconds, trace, reps):
    env = child_env()
    return {
        "workload": workload, "seed": seed, "derived_seeds": derived_seeds(seed),
        "seconds": seconds, "trace": trace,
        "repetitions": {k: len(v) for k, v in reps.items()},
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, seconds, trace, work_dir):
    reps, probe = measure(workload, seed, seconds, trace, work_dir)
    everything = [r for runs in reps.values() for r in runs] + ([probe] if probe else [])
    attempted, failed, failures = tally(everything)
    plain = reps["plain"]
    ok_plain = [r for r in plain if "error" not in r]
    print("manifest " + json.dumps(manifest(workload, seed, seconds, trace, reps)))
    print(f"{workload} seed {seed}: {len(plain)} untraced repetitions, "
          f"{attempted} output checks")
    values = end_to_end(ok_plain) if ok_plain else {}
    raw = end_to_end(ok_plain, scaled=False) if ok_plain else {}
    units = {name: unit for name, unit, _ in layers.END_TO_END}
    for name, value in values.items():
        label = THROUGHPUT[workload] if name == "work_per_s" else name
        print(f"  {label:<14} {_fmt(value):>12} {units[name]:<4} "
              f"(unscaled {_fmt(raw[name])})")
    print(f"  {'error_rate':<14} {_fmt(failed / attempted):>12} ratio "
          f"({failed} of {attempted} checks failed)")
    for line in failures:
        print("  " + line)
    metrics = {}
    table = layers.END_TO_END
    if trace:
        complete = "error" not in probe and all(
            "error" not in r for r in reps["traced"]) and ok_plain
        if complete:
            per = layers.per_layer(reps["traced"], ok_plain,
                                   layers.load_spans(probe["spans"]))
            values = {name: value for name, (value, _) in per.items()}
            print(f"per-layer ({len(reps['traced'])} traced repetitions):")
            for name, unit, _ in layers.PER_LAYER:
                value, samples = per[name]
                high = layers.tail(samples) if samples else None
                extra = (f" (n={len(samples)}, p{high[0]}={_fmt(high[1])})"
                         if high else f" (n={len(samples)})" if samples else "")
                print(f"  {name:<34} {_fmt(value):>12} {unit}{extra}")
        else:
            values = {}
        table = layers.PER_LAYER
    for name, unit, _ in table:
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    correct = failed == 0 and len(values) == len(table)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nematicflow", "__init__.py")):
        print(f"no nematicflow sources under {SRC}", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = report(name, args.seed, args.seconds, args.trace, work_dir)
            sys.stdout.flush()
            print(json.dumps(result))
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
