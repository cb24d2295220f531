"""End-to-end and per-layer benchmark of the `np` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hodge-general --seed 0 --seconds 30 --trace 0

One process and one thread run a closed loop with a single client: the
next seeded document starts only when the previous report is rendered.
Each document goes through `npoly.cli.main([...])` in process with stdout
captured, so JSON loading, support resolution, the computation and the
rendering are all timed. Every report is checked (see checks.py). On the
default seed, each report in the recorded prefix of the stream is also
compared byte for byte, through its digest, with the report the seed code
rendered; stderr says how many were compared.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each document runs once traced and once untraced (the two
reports must be identical), and the line holds the per-layer metrics.
Spans go to bench/out/. Runs keep assertions enabled, as `np` does.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests"

MIN_REPORTS = 100  # p90 then has at least 10 samples beyond it
HARD_STOP_S = 150.0  # leave room under the 180 s limit for set-up and output
SETUP_RUNS = 9

_SETUP_SNIPPET = """
import time
t = time.perf_counter()
import npoly
from npoly import cli
cli.build_parser()
elapsed = time.perf_counter() - t
print(repr(elapsed), npoly.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; it exits nonzero without a result."""


def load_npoly() -> dict:
    """Import npoly from this checkout's src/ and return its layer modules."""
    if not (SRC / "npoly" / "__init__.py").is_file():
        raise BenchError(f"no npoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import npoly
    from npoly import catalog, cli, decompose, diagonal, exactmath, polytope, primes

    if Path(npoly.__file__).resolve().parent != SRC / "npoly":
        raise BenchError(f"imported npoly from {npoly.__file__}, not from {SRC}")
    return {"exactmath": exactmath, "polytope": polytope, "diagonal": diagonal,
            "decompose": decompose, "primes": primes, "catalog": catalog, "cli": cli}


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median time of `import npoly` + `cli.build_parser()` in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        elapsed, origin = proc.stdout.split()
        if Path(origin).resolve().parent != SRC / "npoly":
            raise BenchError(f"set-up imported npoly from {origin}")
        times.append(float(elapsed))
    return statistics.median(times)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(workload: str) -> list:
    """[content key, report digest] of each recorded default-seed document, in order."""
    path = DIGESTS / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no recorded digests at {path}")
    return json.loads(path.read_text(encoding="utf-8"))["reports"]


def invoke(cli, argv):
    """One closed-loop request: (exit code, stdout, stderr, seconds, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # a traceback or an argparse exit fails the report
        code, error = None, traceback.format_exc()
    seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds, error


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0
    problems: list = field(default_factory=list)
    records: list = field(default_factory=list)
    digest_checked: int = 0
    tracer: tracing.Tracer | None = None


def run_documents(workload: str, seed: int, seconds: float, traced: bool, modules: dict,
                  digests: list, min_reports: int = MIN_REPORTS,
                  max_reports: int | None = None) -> Result:
    """Run the seeded stream until `seconds` pass and `min_reports` are done.

    `digests` is the recorded prefix of this stream (see load_digests), or
    empty for a seed that has none.
    """
    cli = modules["cli"]
    result = Result(tracer=tracing.Tracer(modules) if traced else None)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"doc-{workload}-{seed}.json"
    began = perf_counter()
    try:
        for doc in workloads.documents(workload, seed):
            elapsed = perf_counter() - began
            if (elapsed >= seconds and result.attempted >= min_reports) or elapsed >= HARD_STOP_S:
                break
            if max_reports is not None and result.attempted >= max_reports:
                break
            path.write_text(doc.text(), encoding="utf-8")
            recorded = digests[doc.index] if doc.index < len(digests) else None
            run_one(doc, doc.argv(str(path)), cli, result, recorded)
    finally:
        path.unlink(missing_ok=True)
    return result


def run_one(doc, argv, cli, result: Result, recorded: list | None) -> None:
    """Run, time and check one document, adding its outcome to `result`.

    `recorded` is the document's [content key, report digest] pair from the
    recorded stream, or None when the document is past it.
    """
    tracer = result.tracer
    problems = []
    if tracer is not None:
        with tracer.installed(doc.index):
            code, out, err, seconds, error = invoke(cli, argv)
        result.traced_s += seconds
        code2, out2, _, seconds, error2 = invoke(cli, argv)
        result.untraced_s += seconds
        if (code2, out2, error2 is None) != (code, out, error is None):
            problems.append("traced report differs from the untraced one")
    else:
        code, out, err, seconds, error = invoke(cli, argv)
    result.attempted += 1
    result.latencies.append(seconds)
    report_sha = _sha(out)
    key = doc.key()
    if error is not None:
        problems.append(f"traceback: {error.strip().splitlines()[-1]}")
    elif code != 0:
        problems.append(f"exit code {code}: {err.strip()}")
    else:
        problems += checks.check(doc, out)
        if recorded is not None:
            result.digest_checked += 1
            if recorded[0] != key:
                problems.append("document differs from the recorded stream")
            elif recorded[1] != report_sha:
                problems.append("report differs from the recorded digest")
    result.records.append([key, report_sha])
    if problems:
        result.failed += 1
        result.problems.append(f"document {doc.index} ({doc.command} {doc.text()}): "
                               + "; ".join(problems))


# ---------------------------------------------------------------------------
# metrics

def end_to_end(result: Result, setup_s: float) -> dict:
    lat = result.latencies
    return {
        "reports_per_s": (len(lat) - result.failed) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (result.attempted - result.failed) / result.attempted,
    }


E2E_UNITS = {"reports_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio"}

# Per-layer metrics beyond <layer>.self_s and <layer>.calls:
# name -> (kind, sources). Times and counts are per report.
PER_LAYER = {
    "polytope.hodge_data.s": ("incl", ["polytope.hodge_data"]),
    "polytope.hodge_data.box_points": ("work", ["polytope.hodge_data.box_points"]),
    "polytope.hodge_data.useful_ratio": ("ratio", ["polytope.hodge_data.weighted_points",
                                                   "polytope.hodge_data.box_points"]),
    "polytope.build.s": ("incl", ["polytope.build"]),
    "polytope.build.subsets": ("work", ["polytope.build.subsets"]),
    "polytope.build.facets": ("work", ["polytope.build.facets"]),
    "polytope.build.useful_ratio": ("ratio", ["polytope.build.facets",
                                              "polytope.build.subsets"]),
    "exactmath.solve_unique.calls": ("calls", ["exactmath.solve_unique"]),
    "exactmath.determinant.calls": ("calls", ["exactmath.determinant"]),
    "polytope.normalized_volume.s": ("incl", ["polytope.normalized_volume"]),
    "polytope.triangulate.calls": ("calls", ["polytope.triangulate"]),
    "diagonal.group.s": ("incl", ["diagonal.group"]),
    "diagonal.group.order": ("work", ["diagonal.group.order"]),
    "diagonal.m_action.calls": ("calls", ["diagonal.m_action"]),
    "diagonal.orbits.s": ("incl", ["diagonal.orbits"]),
    "diagonal.orbits.count": ("work", ["diagonal.orbits.count"]),
    "diagonal.is_ordinary.s": ("incl", ["diagonal.is_ordinary"]),
    "diagonal.ordinary_residues.s": ("incl", ["diagonal.ordinary_residues"]),
    "diagonal.ordinary_residues.units": ("work", ["diagonal.ordinary_residues.units"]),
    "diagonal.from_matrix.s": ("incl", ["diagonal.from_matrix"]),
    "exactmath.snf.s": ("incl", ["exactmath.snf"]),
    "exactmath.smith_engine.calls": ("calls", ["exactmath.smith_engine"]),
    "exactmath.lp_min_sum.calls": ("calls", ["exactmath.lp_min_sum"]),
    "exactmath.lp_min_sum.s": ("incl", ["exactmath.lp_min_sum"]),
    "polytope.in_hull.calls": ("calls", ["polytope.in_hull"]),
    "polytope.affine_facets.s": ("incl", ["polytope.affine_facets"]),
    "decompose.collapse_step.calls": ("calls", ["decompose.collapse_step"]),
    "decompose.complete_collapse.s": ("incl", ["decompose.complete_collapse"]),
    "decompose.complete_collapse.pieces": ("work", ["decompose.complete_collapse.pieces"]),
    "decompose.facial_decompose.calls": ("calls", ["decompose.facial_decompose"]),
    "decompose.generic_ordinary_certificate.s": (
        "incl", ["decompose.generic_ordinary_certificate"]),
    "cli.render.s": ("incl", ["cli.render_json", "cli.render_text", "cli.render_csv"]),
    "cli.report_bytes": ("bytes", ["cli.report_bytes"]),
    "cli.load_resolve.s": ("incl", ["cli.load_input", "cli.resolve_support"]),
    "catalog.make.s": ("incl", ["catalog.make"]),
    "primes.is_prime.calls": ("calls", ["primes.is_prime"]),
    "primes.primes_below.s": ("incl", ["primes.primes_below"]),
}
_UNITS = {"incl": "s/report", "work": "count/report", "bytes": "bytes/report",
          "calls": "calls/report", "ratio": "ratio"}


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s/report"
        units[f"{layer}.calls"] = "calls/report"
    for name, (kind, _) in PER_LAYER.items():
        units[name] = _UNITS[kind]
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer(result: Result) -> dict:
    t = result.tracer
    reports = result.attempted
    values = {}
    for layer in tracing.LAYERS:
        prefix = layer + "."
        values[f"{layer}.self_s"] = sum(
            v for k, v in t.self_s.items() if k.startswith(prefix)) / reports
        values[f"{layer}.calls"] = sum(
            v for k, v in t.calls.items() if k.startswith(prefix)) / reports
    for name, (kind, sources) in PER_LAYER.items():
        if kind == "ratio":
            num, den = (t.work[s] for s in sources)
            values[name] = num / den if den else 0.0
        else:
            table = {"incl": t.incl_s, "work": t.work, "bytes": t.work, "calls": t.calls}[kind]
            values[name] = sum(table[s] for s in sources) / reports
    values["trace.overhead_ratio"] = result.traced_s / result.untraced_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        modules = load_npoly()
        digests = load_digests(args.workload) if args.seed == workloads.DEFAULT_SEED else []
        setup_s = None if args.trace else measure_setup()
    except (BenchError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = run_documents(args.workload, args.seed, args.seconds, bool(args.trace),
                           modules, digests)
    for problem in result.problems[:10]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(f"bench: {result.digest_checked} of {result.attempted} reports compared with "
          f"recorded digests (seed {workloads.DEFAULT_SEED} only)", file=sys.stderr)
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        count = result.tracer.write_spans(spans)
        print(f"bench: wrote {count} spans to {spans}", file=sys.stderr)
        values, units = per_layer(result), per_layer_units()
    else:
        values, units = end_to_end(result, setup_s), E2E_UNITS
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
