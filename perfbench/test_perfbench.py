"""Self-checks of the benchmark: generators, span arithmetic, output checks.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402


def _first(workload, seed, n_blocks=2):
    return list(itertools.islice(cases.blocks(workload, seed), n_blocks))


def _shape_mix(block):
    """The part of each shape that the seed must not change."""
    keep = ("backend", "foam", "jmax")
    return sorted(tuple(str(c.shape[k]) for k in keep) + (c.commands,) for c in block)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    a, b, other = _first(workload, 7), _first(workload, 7), _first(workload, 8)
    assert [[c.config for c in blk] for blk in a] == [[c.config for c in blk] for blk in b]
    assert [[c.config for c in blk] for blk in a] != [[c.config for c in blk] for blk in other]
    assert all(_shape_mix(blk) == _shape_mix(a[0]) for blk in a + other)


def test_self_time_subtracts_the_covered_part_of_children():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap (3 covered), and
    # [8, 12] runs past the parent's end (2 covered); grandchild [1.5, 2].
    synthetic = [
        ("parent", 0.0, 10.0, -1, "c", None),
        ("a", 1.0, 3.0, 0, "c", None),
        ("b", 2.0, 4.0, 0, "c", None),
        ("c", 8.0, 12.0, 0, "c", None),
        ("g", 1.5, 2.0, 1, "c", None),
    ]
    assert spans.self_times(synthetic) == pytest.approx([5.0, 1.5, 2.0, 4.0, 0.5])


def test_recorder_self_times_of_a_nested_call_add_up():
    rec = spans.Recorder()

    def inner(x):
        return sum(range(x))

    inner_w = rec.wrap("inner", inner)

    def outer():
        return inner_w(20000) + inner_w(30000)

    outer_w = rec.wrap("outer", outer)
    rec.active = True
    outer_w()
    rec.active = False
    assert [s[0] for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    own = spans.self_times(rec.spans)
    total = rec.spans[0][2] - rec.spans[0][1]
    assert sum(own) == pytest.approx(total, rel=1e-9)
    assert all(t >= 0 for t in own)


def test_recorder_wraps_every_import_site_and_reports_absent_names():
    import spinfoam_oqs.amplitudes as amplitudes
    import spinfoam_oqs.recoupling as recoupling

    original = recoupling.wigner6j
    rec = spans.Recorder()
    absent = rec.install(("recoupling.wigner6j", "recoupling.no_such_function"))
    try:
        assert absent == ["recoupling.no_such_function"]
        assert amplitudes.wigner6j is recoupling.wigner6j is not original
        rec.active = True
        amplitudes.pr_vertex(1, 1, 1, 1, 1, 1)
        rec.active = False
        assert [s[0] for s in rec.spans] == ["recoupling.wigner6j"]
        assert rec.spans[0][5] in (True, False)
    finally:
        rec.uninstall()
    assert amplitudes.wigner6j is original


def _run_case(case, tmp_path):
    from spinfoam_oqs import cli

    case_dir = tmp_path / "case"
    case_dir.mkdir()
    config = case_dir / "config.json"
    config.write_text(json.dumps(case.config), encoding="utf-8")
    out = case_dir / "out"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for command in case.commands:
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return case_dir, out, sink.getvalue()


@pytest.fixture
def relax_case(tmp_path):
    import random

    case = cases.kappa_case(random.Random(3), "t", 5, 40, 0.6, 2,
                            ("evolve", "steady-state"), (0.2, 0.8))
    return (case,) + _run_case(case, tmp_path)


def test_checks_accept_a_correct_case(relax_case):
    case, case_dir, out, stdout = relax_case
    assert checks.check_case(case, case_dir, out, stdout) == []


def _edit_cell(path, row, column, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(edit(float(cells[column])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checks_reject_a_perturbed_trajectory(relax_case):
    case, case_dir, out, stdout = relax_case
    _edit_cell(out / "trajectory.csv", 20, 2, lambda p: p + 1e-7)  # p_0 at step 19
    problems = checks.check_case(case, case_dir, out, stdout)
    assert any("sum to the trace" in p for p in problems)


def test_checks_reject_a_negative_eigenvalue(relax_case):
    case, case_dir, out, stdout = relax_case
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    _edit_cell(out / "trajectory.csv", 7, len(lines[0].split(",")) - 1, lambda _: -1e-8)
    problems = checks.check_case(case, case_dir, out, stdout)
    assert any("min eigenvalue" in p for p in problems)


def test_checks_reject_a_perturbed_population_history(relax_case):
    case, case_dir, out, stdout = relax_case
    # Move weight between two populations: trace and eigenvalues stay fine.
    _edit_cell(out / "trajectory.csv", 41, 2, lambda p: p + 1e-6)
    _edit_cell(out / "trajectory.csv", 41, 3, lambda p: p - 1e-6)
    problems = checks.check_case(case, case_dir, out, stdout)
    assert any("rate equation" in p for p in problems)


def test_checks_reject_a_perturbed_kappa(relax_case):
    case, case_dir, out, stdout = relax_case
    _edit_cell(out / "kappa.csv", 1, 1, lambda k: k + 1e-9)
    problems = checks.check_case(case, case_dir, out, stdout)
    assert any("kappa.csv" in p for p in problems)
