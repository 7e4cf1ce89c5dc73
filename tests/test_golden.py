"""Every output of a fixed case set, compared byte for byte with a fixture.

``fixtures/golden`` holds one directory per case, with the case's inputs
(``input/``) and every file its CLI commands wrote (``output/``), plus a
``manifest.json`` that lists each case's commands and the library versions
the outputs were made with.  The cases are the shipped scenarios, two
seed-0 cases of each ``perfbench/cases.py`` kind and a few cases picked for
what they exercise; ``regenerate_golden.py`` builds them and rewrites the
fixture.  ``wall_time_s`` is the one value not compared.

On a mismatch the test names each file and column that changed, with its
largest absolute and relative difference, and the library versions that
differ from the fixture's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np

from spinfoam_oqs.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
_WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]+')


def library_versions() -> dict:
    """NumPy, SciPy and the OpenBLAS builds they link."""
    import scipy

    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            versions[f"{name}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            versions[f"{name}_blas"] = "unknown"
    return versions


def run_case(case_dir: Path, commands, work: Path) -> dict[str, bytes]:
    """Run a case's commands on a copy of its inputs; its output files.

    Each command is a subcommand name and its extra arguments; every one
    reads ``input/config.json`` and writes into one output directory.
    ``wall_time_s`` in a report is written as 0; what the commands print
    is dropped.
    """
    inputs = work / "input"
    shutil.copytree(case_dir / "input", inputs)
    out = work / "output"
    for command, *extra in commands:
        argv = [command, "--config", str(inputs / "config.json"), "--out", str(out), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise AssertionError(f"{case_dir.name}: {' '.join(argv)} exited {code}")
    return {
        path.relative_to(out).as_posix(): _WALL_TIME.sub(rb"\g<1>0", path.read_bytes())
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def _float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _largest(pairs) -> str:
    """Largest absolute and relative difference over (expected, actual) pairs."""
    numeric = [(a, b) for a, b in pairs if _float(a) is not None and _float(b) is not None]
    text = f"{len(pairs)} values differ"
    if len(numeric) < len(pairs):
        text += f" ({len(pairs) - len(numeric)} not numeric)"
    if numeric:
        diffs = [(abs(_float(a) - _float(b)), max(abs(_float(a)), abs(_float(b))))
                 for a, b in numeric]
        abs_max = max(d for d, _ in diffs)
        rel_max = max(d / scale if scale else 0.0 for d, scale in diffs)
        text += f", largest absolute {abs_max:.3g}, relative {rel_max:.3g}"
    return text


def _csv_columns(name, expected: str, actual: str) -> list[str]:
    old = [line.split(",") for line in expected.splitlines()]
    new = [line.split(",") for line in actual.splitlines()]
    if not old or not new or old[0] != new[0]:
        return [f"{name}: header {new[0] if new else None} != {old[0] if old else None}"]
    if len(old) != len(new):
        return [f"{name}: {len(new) - 1} rows, expected {len(old) - 1}"]
    found = []
    for j, column in enumerate(old[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], new[1:]) if a[j] != b[j]]
        if pairs:
            found.append(f"{name} column {column}: {_largest(pairs)}")
    return found


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value; list indices are written []."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, f"{path}[]")
    else:
        yield path, value


def _json_columns(name, expected: str, actual: str) -> list[str]:
    old, new = list(_leaves(json.loads(expected))), list(_leaves(json.loads(actual)))
    if [p for p, _ in old] != [p for p, _ in new]:
        return [f"{name}: keys or lengths differ"]
    changed: dict[str, list] = {}
    for (path, a), (_, b) in zip(old, new):
        if a != b and not (isinstance(a, float) and math.isnan(a) and math.isnan(b)):
            changed.setdefault(path, []).append((a, b))
    found = [f"{name} key {path}: {_largest(pairs)}" for path, pairs in changed.items()]
    return found or [f"{name}: same values, different bytes"]


def describe_differences(case: str, expected: dict[str, bytes], actual: dict[str, bytes]) -> list[str]:
    """One line per changed file column or JSON key of a case's outputs."""
    found = []
    for name in sorted(set(expected) | set(actual)):
        label = f"{case}/{name}"
        if name not in actual or name not in expected:
            found.append(f"{label}: {'not written' if name not in actual else 'not expected'}")
        elif expected[name] != actual[name]:
            old, new = expected[name].decode("utf-8"), actual[name].decode("utf-8")
            if name.endswith(".csv"):
                found += _csv_columns(label, old, new) or [f"{label}: bytes differ"]
            else:
                found += _json_columns(label, old, new)
    return found


def fixture_outputs(case_dir: Path) -> dict[str, bytes]:
    out = case_dir / "output"
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_outputs_match_golden_fixture(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    found = []
    for case, commands in manifest["cases"].items():
        actual = run_case(GOLDEN / case, commands, tmp_path / case)
        found += describe_differences(case, fixture_outputs(GOLDEN / case), actual)
    if found:
        here = library_versions()
        moved = [f"{k} {manifest['versions'].get(k)} -> {v}"
                 for k, v in here.items() if manifest["versions"].get(k) != v]
        if moved:
            found.append("library versions differ from the fixture's: " + "; ".join(moved))
        raise AssertionError("outputs differ from the golden fixture:\n" + "\n".join(found))
