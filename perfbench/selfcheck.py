"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the required shape and declares exactly the metrics
   of layers.py, with the same units.
2. The FFT counters give the transform counts measured at the commit that
   introduced the benchmark, and repeat them exactly: 22 inverse + 28
   forward per imex1 step (one nonlinear evaluation), 44 + 56 per imex2
   step, 64 per uniqueness_record at N = 64.  A change that alters the
   counts on purpose updates EXPECTED_COUNTS and says so.
3. A one-second run of twin64, untraced and traced, prints every declared
   metric by name with its unit, and its traced counts match step 2.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402

EXPECTED_COUNTS = {
    "imex1 step, N=64": (22, 28),
    "imex2 step, N=64": (44, 56),
    "uniqueness_record, N=64": 64,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(isinstance(bench["run_seconds"], int)
           and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [w["name"] for w in bench["workloads"]]
    expect(2 <= len(names) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in bench["workloads"]), "workloads")
    for section, table in (("end_to_end", layers.END_TO_END),
                           ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        expect(declared == list(table), f"{section} matches layers.py")
        names += [m["name"] for m in bench[section]]
        expect(all(NAME.match(n) and UNIT.match(u) and b in ("lower", "higher")
                   for n, u, b in declared), f"{section} names and units")
    expect(all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
           "end_to_end bounds in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s present with the largest bound")
    expect(len(names) == len(set(names)), "names used once")
    return bench


def measure_counts():
    from tracing import Tracer
    import nematicflow as nf

    tracer = Tracer()
    tracer.install_fft_counters()
    tracer.install_entry_points()
    grid = nf.GridSpec(64)
    coeffs = nf.LeslieCoefficients.ansatz()
    u, d = nf.generate_initial(grid, seed=3)
    state = nf.State(grid, u, d, 0.0)
    u2, d2 = nf.perturb(u, d, 4, 1e-6)
    twin = nf.State(grid, u2, d2, 0.0)
    counts = {}
    for _ in range(2):
        for scheme in ("imex1", "imex2"):
            start = len(tracer.spans)
            nf.dynamics.step(state, coeffs, nf.SolverConfig(1e-3, 1e-3, scheme))
            span = tracer.spans[start]
            counts.setdefault(f"{scheme} step, N=64", []).append((span[5], span[6]))
        start = len(tracer.spans)
        nf.diagnostics.uniqueness_record(state, twin, coeffs)
        span = tracer.spans[start]
        counts.setdefault("uniqueness_record, N=64", []).append(span[5] + span[6])
    for label, expected in EXPECTED_COUNTS.items():
        seen = counts[label]
        expect(seen[0] == seen[1], f"{label}: counts repeat exactly {seen}")
        expect(seen[0] == expected, f"{label}: {seen[0]} == {expected}")


def check_printed(bench):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "twin64",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode == 0 and lines, f"twin64 --trace {trace} runs")
        if proc.returncode or not lines:
            print(proc.stderr[-2000:])
            continue
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["attempted"] >= 1,
               f"--trace {trace}: result keys, correct")
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(printed == declared, f"--trace {trace}: every {section} metric "
                                    "printed with its unit")
        if trace:
            metrics = result["metrics"]
            expect((metrics["dynamics.fft2_inverse_per_step"]["value"],
                    metrics["dynamics.fft2_forward_per_step"]["value"],
                    metrics["diagnostics.fft2_per_sample"]["value"])
                   == (*EXPECTED_COUNTS["imex1 step, N=64"],
                       EXPECTED_COUNTS["uniqueness_record, N=64"]),
                   "traced twin64 counts equal the expected counts")
        else:
            human = "\n".join(lines[:-1])
            expect(all(re.search(rf"\b{n}\s+\S+ {re.escape(u)}\b", human)
                       or n == "work_per_s" for n, u in declared.items())
                   and re.search(r"steps_per_s\s+\S+ 1/s", human)
                   and "error_rate" in human,
                   "--trace 0: summary lines name each metric with its unit")


def main():
    bench = check_manifest()
    measure_counts()
    check_printed(bench)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
