"""Command-line front end.

Subcommands: ``diagnose`` (full single-point report), ``scan`` (parameter
plane with CSV/JSON output), ``curves`` (critical-curve table), ``partition``
(partition function and free energy at a point), ``verify`` (built-in
cross-checks).

Exit codes: 0 success, 1 usage error (or a reader of stdout that has gone),
2 numeric-range error, 3 verification failure.
"""

import argparse
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .core import Couplings, DomainError, ParameterRangeError, derive_params
from .dynamics import DEFAULT_MAX_ITER, KERNEL_BACKEND
from .ferro import solve_ferro_fixed_points
from .partition import _free_energy_and_log_z, partition_recurrence
from .scan import (
    AxisSpec,
    ScanConfig,
    _check_seeds,
    _csv,
    _fmt,
    _json,
    _starts_for_seeds,
    _trajectories,
    format_csv,
    format_json,
    run_scan,
)
from .symmetric import (
    critical_temperature,
    solve_fixed_points,
    solve_two_cycles,
    tabulate_critical_curves,
)
from .verify import run_verify

USAGE_ERROR = 1
RANGE_ERROR = 2
VERIFY_ERROR = 3


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise DomainError(f"axis {text!r} must be name:min:max:steps")
    name, lo, hi, steps = parts
    try:
        return AxisSpec(name=name, min=float(lo), max=float(hi), steps=int(steps))
    except ValueError as exc:
        raise DomainError(f"bad axis {text!r}: {exc}") from exc


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad seed list {text!r}") from exc
    _check_seeds(seeds)
    return seeds


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from exc


def _emit(args, payload, lines: list[str]) -> int:
    # a report is the payload as JSON, or else its text lines
    _write_output(_json(payload) if args.format == "json" else "\n".join(lines) + "\n", args.output)
    return 0


def _warn_if_pure_python() -> None:
    # never fall back silently to the slow kernel; stdout stays untouched
    if KERNEL_BACKEND == "python":
        print(
            "warning: the compiled trajectory kernel is unavailable; running on the"
            " pure-Python kernel, about 60x slower (build it with `pip install -e .`"
            " or `python setup.py build_ext --inplace`)",
            file=sys.stderr,
        )


def _cmd_diagnose(args) -> int:
    c = Couplings(args.j1, args.j2, args.temperature)
    seeds = _parse_seeds(args.seeds)
    p = derive_params(c)
    t_c = critical_temperature(c.j2)
    fixed = solve_fixed_points(p)
    cycles = solve_two_cycles(p)
    para, comm2 = len(fixed.roots), len(cycles.roots)
    ferro = solve_ferro_fixed_points(p)

    starts = _starts_for_seeds(seeds)
    _warn_if_pure_python()
    runs = _trajectories(p, seeds, starts, args.max_iter)
    phases = [label.phase for _, _, label in runs]
    # majority phase; ties resolved by first appearance, for determinism
    consensus = max(dict.fromkeys(phases), key=phases.count)

    report = {
        "couplings": c._asdict(),
        "weights": p._asdict(),
        "critical_temperature": t_c,
        "below_critical": (t_c is not None and c.temperature < t_c),
        "phase_counts": {"paramagnetic": para, "two_commensurate": comm2},
        "fixed_points": [r._asdict() for r in fixed.roots],
        "fixed_point_regime": fixed.regime,
        "two_cycles": cycles._asdict(),
        "ferro_fixed_points": [{"C": f.C, "u": f.u, "residual": f.full_residual} for f in ferro],
        "trajectories": [
            {
                "seed": seed,
                **label._asdict(),
                "iterations": outcome.iterations_used,
                "residual": outcome.residual,
            }
            for seed, outcome, label in runs
        ],
        "consensus_phase": consensus,
        "kernel_backend": KERNEL_BACKEND,
    }
    lines = [
        f"point: j1={_fmt(c.j1)} j2={_fmt(c.j2)} T={_fmt(c.temperature)}",
        f"weights: a={_fmt(p.a)} b={_fmt(p.b)} b^4={_fmt(p.b_tilde)}",
        f"critical temperature: {'n/a (j2=0)' if t_c is None else _fmt(t_c)}"
        + ("" if t_c is None else f"  ({'below' if c.temperature < t_c else 'at/above'} it)"),
        f"phase counts on the flip-symmetric slice: paramagnetic={para} two-commensurate={comm2}",
        f"fixed points ({fixed.regime}):",
    ]
    for r in fixed.roots:
        lines.append(f"  x={_fmt(r.x)}  f'={_fmt(r.derivative)}  {r.stability}")
    if cycles.roots:
        tag = " (degenerate)" if cycles.degenerate else ""
        lines.append("two-cycle ratios" + tag + ": " + ", ".join(_fmt(x) for x in cycles.roots))
    else:
        lines.append("two-cycle ratios: none")
    if ferro:
        lines.append("ferro fixed points:")
        for f in ferro:
            lines.append(f"  u=({', '.join(_fmt(x) for x in f.u)})  residual={f.full_residual:.2e}")
    else:
        lines.append("ferro fixed points: none")
    lines.append("trajectories:")
    for seed, outcome, label in runs:
        extra = f" period={label.period}" if label.period else ""
        lines.append(
            f"  seed={seed}: {label.phase}{extra} after {outcome.iterations_used} iterations"
            f" (m1={label.m1_residual:.2e}, m2={label.m2_residual:.2e})"
        )
    lines.append(f"consensus: {consensus}")
    return _emit(args, report, lines)


def _cmd_scan(args) -> int:
    cfg_kwargs = {name: getattr(args, name) for name in ScanConfig._fields}
    cfg_kwargs["axes"] = [_parse_axis(a) for a in args.axes]
    cfg_kwargs["seeds"] = _parse_seeds(args.seeds)
    overrides = {}
    if args.config:
        try:
            with open(args.config) as f:
                overrides = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError: also an integer past the digit limit
            print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
            return USAGE_ERROR
    try:
        if "axes" in overrides:
            overrides["axes"] = [AxisSpec(**a) for a in overrides["axes"]]
        cfg = ScanConfig(**{**cfg_kwargs, **overrides})
    except TypeError as exc:  # JSON of the wrong shape
        raise DomainError(f"bad config {args.config}: {exc}") from exc
    _warn_if_pure_python()
    rows = run_scan(cfg)
    text = format_csv(rows) if cfg.format == "csv" else format_json(rows, cfg)
    _write_output(text, args.output)
    return 0


def _cmd_curves(args) -> int:
    axes = [_parse_axis(a) for a in args.axis]
    if len(axes) != 1 or axes[0].name != "j2":
        raise DomainError("curves needs exactly one axis, over j2")
    columns = ("j2", "j1_plus", "j1_minus")
    samples = tabulate_critical_curves(axes[0].values(), args.temperature)
    rows = [(s.j2, s.j1_plus, s.j1_minus) for s in samples]
    return _emit(args, [dict(zip(columns, r)) for r in rows], _csv(columns, rows))


def _cmd_partition(args) -> int:
    if args.depth < 1:
        raise DomainError("--depth must be >= 1")
    c = Couplings(args.j1, args.j2, args.temperature)
    free_energy, log_z = _free_energy_and_log_z(c, args.depth)
    result = {"depth": args.depth, "free_energy_density": free_energy}
    if args.log:
        result["log_Z"] = log_z
    else:
        z, _ = partition_recurrence(derive_params(c), args.depth)
        result["Z"] = z
    lines = [f"depth: {args.depth}"]
    if "Z" in result:
        lines.append(f"Z = {_fmt(result['Z'])}")
    else:
        lines.append(f"log Z = {_fmt(result['log_Z'])}")
    lines.append(f"free energy density = {_fmt(result['free_energy_density'])}")
    return _emit(args, result, lines)


def _cmd_verify(_args) -> int:
    results = run_verify()
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed = failed or not r.passed
    return VERIFY_ERROR if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cayleyphase", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cayleyphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(*table, required=False):
        # a parent parser: flags that several subcommands share
        group = argparse.ArgumentParser(add_help=False)
        for name, kind, default in table:
            group.add_argument(name, type=kind, default=default, required=required)
        return group

    j1, j2, temperature = [(name, float, None) for name in ("--j1", "--j2", "--temperature")]
    point = flags(j1, j2, temperature, required=True)
    run = flags(("--seeds", str, "0"), ("--max-iter", int, DEFAULT_MAX_ITER))

    def add(name, handler, parents, formats, help):
        sp = sub.add_parser(name, parents=parents, help=help)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--output")
        sp.set_defaults(handler=handler)
        return sp

    add("diagnose", _cmd_diagnose, [point, run], ("text", "json"), "full report for one parameter point")
    # an axis may supply the scan's point flags
    sp = add("scan", _cmd_scan, [flags(j1, j2, temperature), run], ("csv", "json"),
             "evaluate a 1- or 2-axis parameter grid")
    sp.add_argument("--axis", action="append", default=[], metavar="NAME:MIN:MAX:STEPS", dest="axes")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--config", help="JSON file overriding flags")
    sp = add("curves", _cmd_curves, [flags(temperature, required=True)], ("csv", "json"),
             "critical-curve table over a j2 range")
    sp.add_argument("--axis", action="append", default=[], metavar="j2:MIN:MAX:STEPS")
    sp = add("partition", _cmd_partition, [point], ("text", "json"), "partition function and free energy")
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--log", action="store_true", help="log-scaled mode (any depth)")
    sub.add_parser("verify", help="run the built-in cross-checks").set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ParameterRangeError as exc:
        print(f"numeric range error: {exc}", file=sys.stderr)
        return RANGE_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; this tool reserves 2 for
        # numeric range problems, so remap
        return USAGE_ERROR if exc.code == 2 else exc.code


def _reader_gone() -> NoReturn:
    # the recipe of Python's signal docs: what output is left goes to
    # os.devnull, so the interpreter's flush at exit cannot fail again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(USAGE_ERROR)


def run() -> None:
    """The ``cayleyphase`` command: ``main``, then an exit without finalization.

    Once ``main`` has returned and stdout and stderr are flushed, the process
    leaves with ``os._exit``.  That skips the interpreter's finalization:
    module teardown, the last garbage collection, freeing numpy's objects,
    and every ``atexit`` hook, among them those that other code registered,
    such as coverage's subprocess hook.  The package registers none,
    ``--output`` is closed once written, and a scan reaps its forked
    children before ``main`` returns.  In-process callers use ``main``,
    which returns the exit code and never ends the process.

    A reader of stdout that has gone (a closed pipe) ends the command with
    exit 1 and no traceback, whether ``main``'s write or the flush finds it.
    Otherwise the ordinary exit stays where its behaviour matters: an
    exception from ``main`` reaches the interpreter as it is, and a failed
    flush or an exit code that is not an int leaves by ``SystemExit``, so
    the interpreter reports it as it would without this function.
    """
    try:
        code = main()
    except BrokenPipeError:
        _reader_gone()
    if isinstance(code, int):
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError:
            _reader_gone()
        except Exception:
            # a full disk, a closed or absent stream: the ordinary exit
            # reports it as it always did
            raise SystemExit(code)
        os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
