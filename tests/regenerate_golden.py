"""Rewrite the golden fixture that ``test_golden.py`` compares against.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/regenerate_golden.py

The case set is rebuilt from its sources: every shipped scenario (an
evolve config under ``evolve`` and ``steady-state``, a fit config under
``fit`` and ``sample --n 2000``), the first two seed-0 cases of each
``perfbench/cases.py`` kind (block 0 of each workload, run with that
case's commands), and these picked cases:

* ``relax_wide-s0-b2-6``: a superposition over two closed classes whose
  zero eigenvalues round to slightly negative values;
* the first ``gaussian_tied`` foam case with ``jmax = 4``;
* the first d >= 12 ``relax_wide`` case, with coherence pairs (1, 11) and
  (11, 1), whose ``re_rho_<i>_<j>`` names need the separating underscore.

The ``sparse2`` cases and ``explicit_kappa_identity`` are the two-class
steady cases.  Every file that changes is listed before it is
overwritten, by column, with its largest absolute and relative
difference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402  (perfbench/cases.py)
from test_golden import (  # noqa: E402
    GOLDEN,
    describe_differences,
    fixture_outputs,
    library_versions,
    run_case,
)

SAMPLE_N = "2000"


def _commands(names) -> list[list[str]]:
    return [[name, "--n", SAMPLE_N] if name == "sample" else [name] for name in names]


def shipped_cases() -> dict:
    found = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        config = json.loads(text)
        inputs = {"config.json": text}
        if "backend" in config:
            names = ("evolve", "steady-state")
        else:
            names = ("fit", "sample")
            if "basis_file" in config:
                basis = config["basis_file"]
                inputs[basis] = (path.parent / basis).read_text(encoding="utf-8")
        found[f"scenario-{path.stem}"] = (_commands(names), inputs)
    return found


def _entry(case: cases.Case, config=None) -> tuple:
    inputs = {"config.json": json.dumps(config or case.config, indent=1) + "\n", **case.files}
    return _commands(case.commands), inputs


def perfbench_cases() -> dict:
    found, per_kind = {}, {}
    for workload in cases.WORKLOADS:
        for case in next(cases.blocks(workload, 0)):
            if per_kind.setdefault(case.kind, 0) < 2:
                per_kind[case.kind] += 1
                found[case.case_id] = _entry(case)
    return found


def picked_cases(taken) -> dict:
    found = {}
    wide = cases.blocks("relax_wide", 0)
    b2_6 = [next(wide) for _ in range(3)][2][6]
    found[b2_6.case_id] = _entry(b2_6)
    tied = next(c for c in next(cases.blocks("foam_batch", 0))
                if c.shape["bath"] == "gaussian_tied" and c.shape["jmax"] == 4)
    if tied.case_id not in taken:
        found[tied.case_id] = _entry(tied)
    wide = next(c for c in next(cases.blocks("relax_wide", 0)) if c.shape["d"] >= 12)
    config = dict(wide.config, coherences=[[0, 1], [1, 11], [11, 1]])
    found[f"{wide.case_id}-coherences"] = _entry(wide, config)
    return found


def main() -> int:
    case_set = {**shipped_cases(), **perfbench_cases()}
    case_set.update(picked_cases(case_set))
    old = GOLDEN / "manifest.json"
    old_cases = json.loads(old.read_text(encoding="utf-8"))["cases"] if old.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        made = {}
        for name, (commands, inputs) in case_set.items():
            (work / "cases" / name / "input").mkdir(parents=True)
            for file, text in inputs.items():
                (work / "cases" / name / "input" / file).write_text(text, encoding="utf-8")
            made[name] = run_case(work / "cases" / name, commands, work / "runs" / name)
            if name in old_cases:
                if (GOLDEN / name / "input").exists() and any(
                    (GOLDEN / name / "input" / f).read_text(encoding="utf-8") != t
                    for f, t in inputs.items()
                ):
                    print(f"{name}: inputs changed")
                for line in describe_differences(name, fixture_outputs(GOLDEN / name), made[name]):
                    print(line)
            else:
                print(f"{name}: new case")
        for name in set(old_cases) - set(case_set):
            print(f"{name}: case removed")
        if GOLDEN.exists():
            shutil.rmtree(GOLDEN)
        for name, outputs in made.items():
            shutil.copytree(work / "cases" / name / "input", GOLDEN / name / "input")
            for file, data in outputs.items():
                target = GOLDEN / name / "output" / file
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
    manifest = {
        "versions": library_versions(),
        "cases": {name: commands for name, (commands, _) in case_set.items()},
    }
    old.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(case_set)} cases to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
