"""Tests of the benchmark itself: determinism, checks, tracing, digests.

Run from the root of a checkout with `python3 -m pytest bench/test_bench.py`.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = run.load_npoly()


def _prefix(workload, seed, count):
    return list(itertools.islice(workloads.documents(workload, seed), count))


def _serialized(docs):
    return json.dumps([[d.command, list(d.options), d.doc] for d in docs])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload):
    first, again = _prefix(workload, 0, 120), _prefix(workload, 0, 120)
    assert _serialized(first) == _serialized(again)
    assert _serialized(first) != _serialized(_prefix(workload, 1, 120))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_support_repeats_within_a_stream(workload):
    supports = [tuple(sorted(d.support)) for d in _prefix(workload, 3, 300)]
    assert len(set(supports)) == len(supports)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_passes_traced(workload):
    result = run.run_documents(workload, 1, 0.0, True, MODULES, [],
                               min_reports=10, max_reports=10)
    assert result.attempted == 10
    assert result.problems == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_and_reports_match_digests(workload):
    digests = run.load_digests(workload)
    runs = [run.run_documents(workload, workloads.DEFAULT_SEED, 0.0, True, MODULES, digests,
                              min_reports=8, max_reports=8) for _ in range(2)]
    assert runs[0].records == runs[1].records == digests[:8]
    assert runs[0].problems == []
    assert runs[0].digest_checked == 8
    assert runs[0].tracer.snapshot() == runs[1].tracer.snapshot()


def test_a_report_unlike_its_digest_fails():
    digests = [[key, "0" * 16] for key, _ in run.load_digests("decompose-faces")[:2]]
    result = run.run_documents("decompose-faces", workloads.DEFAULT_SEED, 0.0, False,
                               MODULES, digests, min_reports=3, max_reports=3)
    assert (result.attempted, result.failed, result.digest_checked) == (3, 2, 2)
    assert all("recorded digest" in p for p in result.problems)


def test_tracer_restores_npoly():
    def state():
        return ({k: dict(vars(m)) for k, m in MODULES.items()},
                dict(MODULES["cli"].RENDERERS),
                dict(vars(MODULES["diagonal"].DiagonalSimplex)),
                dict(vars(MODULES["polytope"].NewtonPolyhedron)))

    before = state()
    with tracing.Tracer(MODULES).installed(0):
        assert MODULES["cli"].main is not before[0]["cli"]["main"]
        assert MODULES["cli"].RENDERERS != before[1]
    assert state() == before


def test_self_times_partition_traced_time():
    result = run.run_documents("decompose-faces", 2, 0.0, True, MODULES, [],
                               min_reports=4, max_reports=4)
    tracer = result.tracer
    root = tracer.incl_s["cli.main"]
    assert sum(tracer.self_s.values()) == pytest.approx(root, rel=1e-6)
    assert root <= result.traced_s


def _first_output(workload, command, tmp_path):
    doc = next(d for d in workloads.documents(workload, 0) if d.command == command)
    path = tmp_path / "doc.json"
    path.write_text(doc.text(), encoding="utf-8")
    code, out, _, _, _ = run.invoke(MODULES["cli"], doc.argv(str(path)))
    assert code == 0 and checks.check(doc, out) == []
    return doc, json.loads(out)


def test_checker_rejects_a_wrong_hodge_number(tmp_path):
    doc, rep = _first_output("hodge-general", "hodge", tmp_path)
    rep["hodge_numbers"]["0"] = str(int(rep["hodge_numbers"]["0"]) + 1)
    assert checks.check(doc, json.dumps(rep))


def test_checker_rejects_a_wrong_orbit_slope(tmp_path):
    doc, rep = _first_output("diagonal-groups", "diagonal", tmp_path)
    orbit = next(o for o in rep["orbits"] if o["slope"] != "0")
    orbit["slope"] = "0"
    assert checks.check(doc, json.dumps(rep))


def test_checker_rejects_a_wrong_scan_verdict(tmp_path):
    doc, rep = _first_output("diagonal-groups", "scan", tmp_path)
    row = next(r for r in rep["rows"] if r["verdict"] == "non-ordinary")
    row["verdict"] = "ordinary"
    assert checks.check(doc, json.dumps(rep))


def test_checker_rejects_a_piece_off_its_face(tmp_path):
    doc, rep = _first_output("decompose-faces", "decompose", tmp_path)
    rep["faces"][0]["collapse"]["pieces"][0][0] = ["0", "0", "99"]
    assert checks.check(doc, json.dumps(rep))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_npoly_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hodge-general", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
