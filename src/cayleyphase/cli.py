"""Command-line front end.

Subcommands: ``diagnose`` (full single-point report), ``scan`` (parameter
plane with CSV/JSON output), ``curves`` (critical-curve table), ``partition``
(partition function and free energy at a point), ``verify`` (built-in
cross-checks).

Exit codes: 0 success, 1 usage error or output that could not be written
(a reader of stdout that has gone among them), 2 numeric-range error,
3 verification failure.
"""

import argparse
import json
import os
import sys

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
    _json,
    _json_safe,
    _numpy,
    _scan_chunks,
    _starts_for_seeds,
    _trajectories,
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


def _write_output(text, path: str | None) -> None:
    """Write a result, one string or an iterable of text chunks (a scan,
    a block of rows at a time), to ``path``, or to stdout when it is None,
    and flush it there.

    A failed write or flush ends the command with exit 1: a reader of stdout
    that has gone (a closed pipe) quietly, any other failure (a full disk,
    say) with one ``cannot write`` line on stderr."""
    blocks = (text,) if isinstance(text, str) else text
    try:
        if path is None:
            for block in blocks:
                sys.stdout.write(block)
            sys.stdout.flush()
        else:
            with open(path, "w") as f:
                for block in blocks:
                    f.write(block)
    except (OSError, AttributeError) as exc:  # AttributeError: no stdout, its descriptor was closed
        if not (path is None and isinstance(exc, BrokenPipeError)):
            print(f"cannot write {'<stdout>' if path is None else path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from exc


# a value in a text report: its JSON token, with no space in it
_token = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def _pairs(record: dict) -> str:
    return " ".join(f"{key}={_token(value)}" for key, value in record.items())


def _text(payload: dict) -> str:
    """The text form of a report: one line per field of ``payload``, in
    payload order. A record reads as ``key=value`` pairs, a list of records
    as one indented line per record, an empty list as ``none``, and every
    value as its JSON token, from the ``_json_safe`` payload that the JSON
    form encodes."""
    lines = []
    for key, value in _json_safe(payload).items():
        if value == []:
            lines.append(f"{key}: none")
        elif isinstance(value, dict):
            lines.append(f"{key}: {_pairs(value)}")
        elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
            lines += [f"{key}:", *(f"  {_pairs(record)}" for record in value)]
        else:
            lines.append(f"{key}: {_token(value)}")
    return "\n".join(lines) + "\n"


def _emit(args, payload) -> int:
    # a report is the payload as JSON, or else as text
    _write_output(_json(payload) if args.format == "json" else _text(payload), args.output)
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
        "phase_counts": {"paramagnetic": len(fixed.roots), "two_commensurate": len(cycles.roots)},
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
    return _emit(args, report)


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
    _numpy()  # a scan that cannot start fails before the warning
    _warn_if_pure_python()
    # every row is computed before the first byte is written: a failing grid
    # point writes nothing
    rows = run_scan(cfg)
    _write_output(_scan_chunks(rows, cfg.format, cfg), args.output)
    return 0


def _cmd_curves(args) -> int:
    axes = [_parse_axis(a) for a in args.axis]
    if len(axes) != 1 or axes[0].name != "j2":
        raise DomainError("curves needs exactly one axis, over j2")
    columns = ("j2", "j1_plus", "j1_minus")
    samples = tabulate_critical_curves(axes[0].values(), args.temperature)
    rows = [(s.j2, s.j1_plus, s.j1_minus) for s in samples]
    if args.format == "csv":
        _write_output("\n".join(_csv(columns, rows)) + "\n", args.output)
        return 0
    return _emit(args, [dict(zip(columns, r)) for r in rows])


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
    return _emit(args, result)


def _cmd_verify(_args) -> int:
    results = run_verify()
    _write_output("".join(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}\n" for r in results), None)
    return 0 if all(r.passed for r in results) else VERIFY_ERROR


class _Parser(argparse.ArgumentParser):
    # argparse's one output hook swallows a failed write: --help and the
    # subcommands' help go through the command's write instead
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_output(message, None)
        else:
            super()._print_message(message, file)


class _Version(argparse.Action):
    # argparse's own version action formats its text with textwrap, an
    # import that every --version call would pay
    def __call__(self, parser, *_):
        _write_output(f"cayleyphase {__version__}\n", None)
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cayleyphase", description=__doc__)
    parser.add_argument(
        "--version", action=_Version, nargs=0, default=argparse.SUPPRESS, help="show program's version number and exit"
    )
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


def run() -> None:
    """The ``cayleyphase`` command: ``main``, then an exit without finalization.

    ``main`` has flushed every result it wrote to stdout (see
    ``_write_output``); once stderr is flushed too, the process leaves with
    ``os._exit``.  That skips the interpreter's finalization: module
    teardown, the last garbage collection, freeing numpy's objects, and
    every ``atexit`` hook, among them those that other code registered, such
    as coverage's subprocess hook.  It also drops, unflushed, what a failed
    write left in stdout's buffer.  The package registers no hook,
    ``--output`` is closed once written, and a scan joins its threads
    before ``main`` returns.  In-process callers use ``main``,
    which returns the exit code and never ends the process.

    It first caps OpenBLAS at one thread, whatever the environment asks: the
    package never calls BLAS, and the pool OpenBLAS starts at numpy's import
    spins on a CPU of its own.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    if sys.stderr is None:
        # descriptor 2 closed before the start: the ordinary exit copes with it
        raise SystemExit(code)
    sys.stderr.flush()
    os._exit(code)
