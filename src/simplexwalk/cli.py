"""Command-line front end emitting reproducible CSV/JSON artifacts.

Floats are written with 12 significant digits and '.' as the decimal
separator, so identical invocations produce byte-identical output.  CSV files
start with '#' comment lines carrying the run parameters.  Files are written
atomically (temp file + rename); without --out, output goes to stdout.  The
SIMPLEXWALK_OUTDIR environment variable, when set, is prepended to relative
--out paths.

Exit codes: 0 success, 1 check failure, 2 usage error.  A usage error is a
ValueError, raised by a rule of the CLI itself, an --out path that cannot be
written or an input that the library refuses, or a request too large for
memory; its message is printed as "error: <message>".  Each distinct
warning a request raises is printed as one "warning: <message>" line,
unless the request is refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__, dynamics, graph, spectral, subspace, theory
from .dynamics import Stage

_SWEEP_POINTS = 500
_EVOLVE_SAMPLES = 2000
_WIDTH_OFFSETS = 41


class CheckFailure(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sci(x: float) -> str:
    """Scientific notation with at most three significant digits and no
    padded exponent: 1e-10, 2.2e-07 -> 2.2e-7."""
    # numpy keeps the point when rounding cuts every fraction digit: 1.e-8
    return np.format_float_scientific(x, precision=2, trim="-", exp_digits=1).replace(".e", "e")


def _tolerance(floor: float, scale: float) -> float:
    """A check's tolerance: the floor, or 100 eps times the scale when larger."""
    return max(floor, 100 * np.finfo(float).eps * scale)


def _json_value(key: str, x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    if not np.isfinite(x):
        raise ValueError(f"{key} is {x} at this input, and JSON has no non-finite numbers")
    return float(_fmt(float(x)))


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    # Path("") is the current directory, which no caller means by it
    if not args.out:
        raise ValueError("--out is empty: give a file path, or omit --out to write to stdout")
    out = Path(args.out)
    outdir = os.environ.get("SIMPLEXWALK_OUTDIR")
    if outdir and not out.is_absolute():
        out = Path(outdir) / out
    try:
        # a file in the parent's place then fails as "Not a directory", not "File exists"
        if not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=out.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None


def _json_doc(payload: dict) -> str:
    return json.dumps({k: _json_value(k, v) for k, v in payload.items()}, indent=2) + "\n"


def _csv_doc(comments: list[str], header: str, columns) -> str:
    """Comment lines, the header, then one row of ``"%.12g"`` cells per row
    of the columns (1-D arrays, or 2-D blocks of adjacent columns).  The rows
    come from ``csvformat.format_rows``; comments and the header are written
    as they are."""
    from . import csvformat  # imported on the first CSV, like its tables

    return "\n".join(comments + [header]) + "\n" + csvformat.format_rows(np.column_stack(columns))


def cmd_predict(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    payload: dict = {"M": spec.M, "w": spec.w}
    payload.update(dataclasses.asdict(theory.predict(spec)))
    payload["validity_margin"] = theory.validity_margin(spec)
    _write_output(args, _json_doc(payload))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    result = spectral.gamma_sweep(spec, (args.lo, args.hi), args.points)
    _write_output(args, _csv_doc(
        [f"# simplexwalk {__version__} sweep M={spec.M} w={_fmt(spec.w)} "
         f"lo={_fmt(args.lo)} hi={_fmt(args.hi)} points={args.points}"],
        "gamma," + ",".join(f"{tag}_{k}" for tag in spectral.PROBE_TAGS for k in range(7)),
        [result.gammas] + [result.curves[tag] for tag in spectral.PROBE_TAGS],
    ))
    return 0


def _schedule_from_args(args: argparse.Namespace, spec: graph.GraphSpec) -> list[Stage]:
    given = [(args.gamma1, args.t1), (args.gamma2, args.t2)]
    return [
        Stage(gamma if gamma_arg is None else gamma_arg, t if t_arg is None else t_arg)
        for (gamma, t), (gamma_arg, t_arg) in zip(dynamics.two_stage_schedule(spec), given)
    ]


def cmd_evolve(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    schedule = _schedule_from_args(args, spec)
    series = dynamics.run_schedule(spec, schedule, samples_per_stage=args.samples)
    stage_desc = " ".join(
        f"gamma_{k+1}={_fmt(s.gamma)} t_{k+1}={_fmt(s.duration)}"
        for k, s in enumerate(schedule)
    )
    _write_output(args, _csv_doc(
        [f"# simplexwalk {__version__} evolve M={spec.M} w={_fmt(spec.w)} "
         f"samples={args.samples}",
         f"# stages: {stage_desc}",
         "# stage_end_times: " + ",".join(_fmt(b) for b in series.stage_boundaries)],
        "t,prob_a,prob_b,norm",
        [series.times, series.prob_a, series.prob_b, series.norm],
    ))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    if spec.M > 30:
        raise ValueError(
            "verify builds the full vertex space and is limited to M <= 30 "
            f"(N <= 930); got M={spec.M}"
        )
    gamma = args.gamma if args.gamma is not None else dynamics.two_stage_schedule(spec)[0].gamma

    ham_red = subspace.reduced_hamiltonian(spec, gamma)
    # Rounding grows with the generator's norm, bounded by gamma * ||A|| plus
    # the oracle's 1, and for an evolution also with the time.
    h_norm = gamma * spec.degree + 1.0
    evolution_tol = _tolerance(1e-8, 10.0 * h_norm)
    # the leakage residual of a unit state never exceeds 1
    if evolution_tol >= 1:
        raise ValueError(
            f"verify's evolution tolerance {_sci(evolution_tol)} at this gamma and w "
            "is not below 1, so its dynamics and leakage checks could not fail"
        )
    basis = subspace.class_basis(spec)
    ham_full = subspace.full_hamiltonian(spec, gamma)
    checks: list[tuple[str, bool, str]] = []

    projected = basis.matrix @ ham_full @ basis.matrix.T
    dev = float(np.max(np.abs(projected - ham_red)))
    tol = _tolerance(1e-10, h_norm)
    checks.append(("projection", dev <= tol,
                   f"max|P H P^T - H_reduced| = {dev:.3e} (tol {_sci(tol)})"))

    psi_full = subspace.full_initial_state(spec)
    psi_red = subspace.reduced_initial_state(spec)
    dyn_dev = 0.0
    for t in (1.0, 10.0):
        lifted = basis.lift(dynamics.evolve(ham_red, psi_red, t))
        full = dynamics.evolve(ham_full, psi_full, t)
        dyn_dev = max(dyn_dev, float(np.linalg.norm(full - lifted)))
    checks.append(("dynamics", dyn_dev <= evolution_tol,
                   f"max full-vs-reduced state deviation = {dyn_dev:.3e} "
                   f"(tol {_sci(evolution_tol)})"))

    leakage = 0.0
    for k in range(7):
        lifted = basis.lift(np.eye(7)[k].astype(complex))
        evolved = dynamics.evolve(ham_full, lifted, 10.0)
        residual = evolved - basis.matrix.T @ (basis.matrix @ evolved)
        leakage = max(leakage, float(np.linalg.norm(residual)))
    checks.append(("leakage", leakage <= evolution_tol,
                   f"max out-of-subspace leakage = {leakage:.3e} (tol {_sci(evolution_tol)})"))

    census = graph.edge_census(spec)
    census_ok = census == theory.census_formulas(spec.M)
    checks.append(("census", census_ok, "edge census matches the closed forms"))

    lines = [f"# verify M={spec.M} w={_fmt(spec.w)} gamma={_fmt(gamma)}"]
    passed = 0
    for name, ok, detail in checks:
        passed += ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name:<12} {detail}")
    lines.append(f"{passed}/{len(checks)} checks passed")
    _write_output(args, "\n".join(lines) + "\n")
    if passed < len(checks):
        raise CheckFailure(f"{len(checks) - passed} verification check(s) failed")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    counts = theory.census_formulas(args.M)
    lines = [
        f"# simplexwalk {__version__} census M={args.M}",
        "class_pair,weight_tier,count",
    ]
    for lo, hi, tier in graph.CENSUS_KEYS:
        lines.append(f"{lo}~{hi},{tier},{counts[(lo, hi, tier)]}")
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    lam1_closed = theory.algebraic_connectivity_formula(spec.M, spec.w)
    # the quotient's lambda1 and ||A|| were measured within 15 eps ||A|| of
    # the closed forms; where that is not small against lambda1, it is noise
    bound = 15 * np.finfo(float).eps * spec.degree
    if bound >= 1e-3 * lam1_closed:
        raise ValueError(
            f"connectivity cannot resolve lambda1 at M={spec.M}, w={_fmt(spec.w)}: "
            f"its error bound 15 eps ||A|| = {bound:.3g} must be below 1e-3 of "
            f"lambda1 = {lam1_closed:.3g}"
        )
    lam1, op_norm = subspace.connectivity_and_norm(spec)
    payload = {
        "M": spec.M,
        "w": spec.w,
        "lambda1": lam1,
        "lambda1_closed_form": lam1_closed,
        "op_norm": op_norm,
        "op_norm_closed_form": spec.degree,
        "normalized_connectivity": lam1 / spec.degree,
    }
    _write_output(args, _json_doc(payload))
    return 0


def cmd_width(args: argparse.Namespace) -> int:
    spec = graph.GraphSpec(args.M, args.w)
    if args.offsets < 3 or args.offsets % 2 == 0:
        raise ValueError("offsets must be an odd integer >= 3")
    gamma_c = dynamics.two_stage_schedule(spec)[args.stage - 1].gamma
    scale = spec.M ** -1.5
    lo = args.eps_lo if args.eps_lo is not None else 1e-3 * scale
    hi = args.eps_hi if args.eps_hi is not None else min(1e2 * scale, 0.5 * gamma_c)
    if not 0 < lo < hi < np.inf:
        raise ValueError("epsilon range must be finite and satisfy 0 < lo < hi")
    per_side = (args.offsets - 1) // 2
    positive = np.logspace(np.log10(lo), np.log10(hi), per_side)
    eps_grid = np.concatenate([-positive[::-1], [0.0], positive])
    peaks = dynamics.width_scan(spec, args.stage, eps_grid)
    _write_output(args, _csv_doc(
        [f"# simplexwalk {__version__} width M={spec.M} w={_fmt(spec.w)} "
         f"stage={args.stage} gamma_c={_fmt(gamma_c)} offsets={args.offsets}"],
        "epsilon,p_peak",
        [eps_grid, peaks],
    ))
    return 0


# built once per process: parse_args keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexwalk",
        description="Two-stage quantum-walk search on the weighted simplex "
        "of complete graphs: predictions, scans, and evolutions as CSV/JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_w: bool = True) -> None:
        p.add_argument("--M", type=int, required=True, help="cluster size (>= 3)")
        if with_w:
            p.add_argument("--w", type=float, default=1.0,
                           help="inter-cluster edge weight (> 0, default 1)")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("predict", help="closed-form quantities as flat JSON")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="eigenstate overlap curves over a gamma grid")
    common(p)
    p.add_argument("--lo", type=float, required=True, help="gamma grid start")
    p.add_argument("--hi", type=float, required=True, help="gamma grid end")
    p.add_argument("--points", type=int, default=_SWEEP_POINTS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evolve", help="probability time series along a schedule")
    common(p)
    p.add_argument("--gamma1", type=float, help="stage-1 gamma (default: critical)")
    p.add_argument("--t1", type=float, help="stage-1 duration (default: closed form)")
    p.add_argument("--gamma2", type=float, help="stage-2 gamma (default: critical)")
    p.add_argument("--t2", type=float, help="stage-2 duration (default: closed form)")
    p.add_argument("--samples", type=int, default=_EVOLVE_SAMPLES,
                   help="samples per stage")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="full-space vs reduced-space checks (M <= 30)")
    common(p)
    p.add_argument("--gamma", type=float,
                   help="jumping rate (default: the schedule's stage-1 rate)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="edge census by class pair and weight tier")
    common(p, with_w=False)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("connectivity", help="algebraic connectivity and operator norm")
    common(p)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("width", help="peak success vs gamma detuning of one stage")
    common(p)
    p.add_argument("--stage", type=int, required=True, choices=(1, 2))
    p.add_argument("--offsets", type=int, default=_WIDTH_OFFSETS,
                   help="odd number of detunings (log-spaced, symmetric, plus 0)")
    p.add_argument("--eps-lo", type=float, dest="eps_lo",
                   help="smallest |detuning| (default 1e-3 / M^1.5)")
    p.add_argument("--eps-hi", type=float, dest="eps_hi",
                   help="largest |detuning| (default min(1e2 / M^1.5, gamma_c / 2))")
    p.set_defaults(func=cmd_width)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Each distinct warning of a request becomes one plain "warning:" line, on
    # every request and whatever the process's warning filters: Python's own
    # display shows a warning once per process and with the path of the code
    # that raised it.  A refused request prints its "error:" line alone.
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            print(f"error: the request does not fit in memory{detail}", file=sys.stderr)
            return 2
        except CheckFailure as exc:
            code, failure = 1, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if failure is not None:
        print(f"failure: {failure}", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())
