"""Command-line scenario runner.

Subcommands: evolve, steady-state, two-level, fit, sample, compare,
spectral-temperature.  ``evolve`` runs a batch of configs one after the
other and records a bad config in the run's report.json.  Every other
command rejects bad input (an unreadable or invalid file, a missing
column, a bad seed, count or sweep) with ``error: <Type>: <message>`` on
stderr and exit status 1, before writing any output.  Every file is
written by ``scenario.write_output``: CSV with a header row, UTF-8, LF line
endings; JSON with a stable key order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np


def _load_config(path: str, args) -> "ScenarioConfig":
    from .scenario import ScenarioConfig

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if args.jmax is not None and isinstance(data, dict):  # replaces the file's jmax, then checked
        data = {**data, "jmax": args.jmax}
    return ScenarioConfig.from_mapping(data)


def _out_dir(args, config_path: str, batch: bool = False) -> Path:
    """``--out`` itself, or its ``<config stem>`` subdirectory in a batch;
    without ``--out``, ``<config stem>_out`` next to the config."""
    stem = Path(config_path).stem
    if args.out:
        return Path(args.out) / stem if batch else Path(args.out)
    return Path(config_path).resolve().parent / (stem + "_out")


def _fail(exc: Exception) -> int:
    """Report a rejected input on stderr; the command's exit status."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def _cmd_evolve(args) -> int:
    from .scenario import run_scenario, write_output

    batch = len(args.config) > 1
    failed = 0
    for path in args.config:
        out = _out_dir(args, path, batch)
        try:
            cfg = _load_config(path, args)
        except Exception as exc:  # noqa: BLE001 - bad config is a run failure
            report = {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "config_path": str(path),
            }
            write_output(out / "report.json", report)
        else:
            report = run_scenario(cfg, out)
        print(f"{path}: {report['status']}"
              + (f" ({report.get('error')})" if report["status"] != "ok" else ""))
        if report["status"] != "ok":
            failed += 1
    return 1 if failed else 0


def _cmd_steady_state(args) -> int:
    from .scenario import steady_state_report

    try:
        cfg = _load_config(args.config, args)
    except Exception as exc:  # noqa: BLE001 - bad config is a run failure
        return _fail(exc)
    report = steady_state_report(cfg, _out_dir(args, args.config))
    if report["status"] != "ok":
        print(f"error: {report.get('error')}", file=sys.stderr)
        return 1
    for idx, pops in enumerate(report["populations"]):
        print(f"steady[{idx}]: " + ", ".join(f"{p:.6g}" for p in pops))
    return 0


def _cmd_two_level(args) -> int:
    from .amplitudes import AsymptoticParams, two_level_rho11

    params = AsymptoticParams(
        gamma_immirzi=args.gamma_immirzi,
        regge_action=args.regge_action,
        alpha=complex(args.alpha_re, args.alpha_im),
        n_plus_abs=args.n_plus_abs,
    )
    if args.sweep is None:
        value = two_level_rho11(args.lambda1, args.lambda2, params)
        print(repr(value))
        return 0
    from .scenario import _column, _csv_rows

    lo, hi, n = args.sweep
    grid = np.linspace(float(lo), float(hi), int(n))
    lambda1, lambda2 = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    rho11 = [
        two_level_rho11(l1, l2, params)
        for l1, l2 in zip(lambda1.tolist(), lambda2.tolist())
    ]
    columns = [_column(lambda1), _column(lambda2), _column(rho11)]
    return _write_csv(args.out, "two_level_sweep.csv",
                      _csv_rows(["lambda1", "lambda2", "rho11"], columns))


def _write_csv(out, default_name: str, text: str) -> int:
    """Write ``text`` to ``out`` (into it when it is a directory)."""
    from .scenario import write_output

    out = Path(out or default_name)
    if out.is_dir():
        out = out / default_name
    write_output(out, text)
    print(f"wrote {out}")
    return 0


def _cmd_fit(args) -> int:
    from .bathfit import fit_bath
    from .scenario import fit_problem, write_output

    vertices, basis, problem = fit_problem(args.config, args.seed)
    result = fit_bath(problem)
    payload = {
        "params": [float(x) for x in result.params],
        "cost": result.cost,
        "evaluations": result.evaluations,
        "seed": result.seed,
        "status": result.status,
        "vertices": vertices,
        "dim": len(basis),
    }
    write_output(_out_dir(args, args.config) / "fit_report.json", payload)
    print(f"C = {result.cost!r} after {result.evaluations} evaluations ({result.status})")
    return 0


def _cmd_sample(args) -> int:
    from .bathfit import sample_cost_distribution
    from .scenario import fit_problem, histogram_csv, write_output

    _vertices, _basis, problem = fit_problem(args.config, args.seed)
    hist = sample_cost_distribution(problem, args.n)
    write_output(_out_dir(args, args.config) / "histogram.csv", histogram_csv(hist))
    print(
        f"n={hist.n_samples} min={hist.minimum!r} mean={hist.mean!r} max={hist.maximum!r}"
    )
    return 0


def _read_csv(path: str, columns=()) -> tuple[list[str], np.ndarray]:
    """A CSV's header and its nonblank rows, each cell parsed by ``float``.

    Raises ValueError naming the file for any of ``columns`` the header
    lacks and for a row whose cell count differs from the header's.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    missing = [name for name in columns if name not in header]
    if missing:
        raise ValueError(f"{path} has no column {', '.join(map(repr, missing))}")
    for cells in rows:
        if len(cells) != len(header):
            raise ValueError(f"{path}: a row has {len(cells)} cells, the header {len(header)}")
    values = [[float(cell) for cell in cells] for cells in rows]
    return header, np.array(values).reshape(len(rows), len(header))


def _cmd_compare(args) -> int:
    from .qed_reference import compare_curves

    curves = []
    for path, x_col, y_col in (
        (args.series_a, args.x_col, args.y_col),
        (args.series_b, args.x_col_b or args.x_col, args.y_col_b or args.y_col),
    ):
        header, rows = _read_csv(path, (x_col, y_col))
        x, y = rows[:, header.index(x_col)], rows[:, header.index(y_col)]
        curves.append((x / x.max() if args.normalized_time else x, y))
    print(repr(compare_curves(*curves)))
    return 0


def _cmd_spectral_temperature(args) -> int:
    from .lindblad import Trajectory
    from .observables import EnergySpectrum
    from .scenario import temperature_csv

    spins = tuple(s.strip() for s in args.spins.split(","))
    spec = EnergySpectrum(spins, scale=args.scale)
    header, rows = _read_csv(args.trajectory)
    pop_cols = [i for i, name in enumerate(header) if name.startswith("p_")]
    if len(pop_cols) != len(spins):
        raise ValueError(
            f"trajectory has {len(pop_cols)} population columns, got {len(spins)} spins"
        )
    states = np.zeros((len(rows), len(spins), len(spins)), dtype=complex)
    diagonal = np.arange(len(spins))
    states[:, diagonal, diagonal] = rows[:, pop_cols]
    return _write_csv(args.out, "temperature.csv", temperature_csv(Trajectory(states), spec))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfoam-oqs",
        description="Reduced open-system dynamics of spin-network states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run one or more scenario configs")
    p.add_argument("--config", nargs="+", required=True)
    p.add_argument("--jmax", default=None, help="override spin cutoff (e.g. 2 or 5/2)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("steady-state", help="steady states of a scenario's generator")
    p.add_argument("--config", required=True)
    p.add_argument("--jmax", default=None, help="override spin cutoff (e.g. 2 or 5/2)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_steady_state)

    p = sub.add_parser("two-level", help="closed-form two-level steady state")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--alpha-re", type=float, default=0.0)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--gamma-immirzi", type=float, default=1.0)
    p.add_argument("--regge-action", type=float, default=1.0)
    p.add_argument("--n-plus-abs", type=float, default=1.0)
    p.add_argument(
        "--sweep", nargs=3, metavar=("LO", "HI", "N"), default=None,
        help="write a rho11 grid over [LO, HI]^2 with N points per axis",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_two_level)

    p = sub.add_parser("fit", help="fit the simplified two-vertex model to a foam target")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the fit config's seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="cost distribution at random model parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None, help="override the fit config's seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("compare", help="L2 distance of two integral-normalized CSV series")
    p.add_argument("series_a")
    p.add_argument("series_b")
    p.add_argument("--x-col", default="time")
    p.add_argument("--y-col", default="release")
    p.add_argument("--x-col-b", default=None)
    p.add_argument("--y-col-b", default=None)
    p.add_argument("--normalized-time", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "spectral-temperature", help="temperature series from an exported trajectory"
    )
    p.add_argument("--trajectory", required=True)
    p.add_argument("--spins", required=True, help="comma-separated level spins, e.g. 0,1,2")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectral_temperature)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # an unreadable or invalid input
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
