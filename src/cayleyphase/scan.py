"""Parameter-plane scans with deterministic, worker-count-independent output.

A scan evaluates every grid point independently: derive the bond weights,
count the coexisting phases from the closed-form thresholds, and run one
classified trajectory per seed from a seed-determined random start (the same
start is reused across grid points so rows differ only through the physics).
Rows are emitted in grid order regardless of how many workers computed them,
and all floats are formatted to 17 significant digits, so a config maps to one
exact output byte stream.
"""

import functools
import json
import math
import os
from typing import NamedTuple, Optional

from . import __version__
from .core import BoltzmannParams, Couplings, DomainError, StateVector, derive_params
from .dynamics import (
    DEFAULT_MAX_ITER,
    PhaseLabel,
    TrajectoryOutcome,
    classify_phase,
    iterate,
)
from .symmetric import _phase_counts

__all__ = ["AxisSpec", "ScanConfig", "ScanRow", "format_csv", "format_json", "run_scan"]

AXIS_NAMES = ("j1", "j2", "temperature", "j2_over_j1")


# fields in a base class, so that __new__ can check them (see core.Couplings)
class _AxisSpecFields(NamedTuple):
    name: str
    min: float
    max: float
    steps: int


class AxisSpec(_AxisSpecFields):
    __slots__ = ()

    def __new__(cls, name: str, min: float, max: float, steps: int) -> "AxisSpec":
        if name not in AXIS_NAMES:
            raise DomainError(f"unknown axis {name!r}; expected one of {AXIS_NAMES}")
        _check_number("axis min", min)
        _check_number("axis max", max)
        # an infinite bound or span puts NaN or inf on the grid
        if not math.isfinite(float(max) - float(min)):
            raise DomainError("axis bounds and max - min must be finite")
        if type(steps) is not int:  # not a bool either
            raise DomainError(f"axis steps must be an integer, not {steps!r}")
        if steps < 1:
            raise DomainError("axis steps must be >= 1")
        if steps > 1 and not min < max:
            raise DomainError("axis requires min < max")
        return super().__new__(cls, name, min, max, steps)

    def values(self) -> list[float]:
        # np.linspace's arithmetic in its order, so the grid matches it bit for bit
        lo, hi = float(self.min), float(self.max)
        delta = hi - lo
        if self.steps == 1:
            return [0.0 * delta + lo]
        div = self.steps - 1
        step = delta / div
        if step == 0.0:  # the step underflows: divide first, as numpy does
            grid = [i / div * delta + lo for i in range(div)]
        else:
            grid = [i * step + lo for i in range(div)]
        grid.append(hi)
        return grid


def _check_number(name: str, value) -> None:
    # a JSON integer is an int of any size; it must also convert to a double.
    # A JSON true or false is a bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, not {value!r}")
    try:
        float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for a double") from None


def _check_seeds(seeds) -> None:
    if not (isinstance(seeds, (list, tuple)) and seeds and all(type(s) is int and s >= 0 for s in seeds)):
        raise DomainError(f"seeds must be a non-empty list of non-negative integers, not {seeds!r}")


class _ScanConfigFields(NamedTuple):
    axes: list[AxisSpec]
    j1: Optional[float]
    j2: Optional[float]
    temperature: Optional[float]
    seeds: list[int] | tuple[int, ...]
    max_iter: int
    format: str
    workers: int


class ScanConfig(_ScanConfigFields):
    __slots__ = ()

    def __new__(
        cls,
        axes: list[AxisSpec],
        j1: Optional[float] = None,
        j2: Optional[float] = None,
        temperature: Optional[float] = None,
        seeds: list[int] | tuple[int, ...] = (0,),
        max_iter: int = DEFAULT_MAX_ITER,
        format: str = "csv",
        workers: int = 1,
    ) -> "ScanConfig":
        if not 1 <= len(axes) <= 2:
            raise DomainError("a scan needs one or two axes")
        _check_seeds(seeds)
        for name, value in (("max_iter", max_iter), ("workers", workers)):
            if type(value) is not int:  # not a bool either
                raise DomainError(f"{name} must be an integer, not {value!r}")
        fixed = {"j1": j1, "j2": j2, "temperature": temperature}
        for name, value in fixed.items():
            if value is not None:
                _check_number(name, value)
        if workers < 1:
            raise DomainError("workers must be >= 1")
        if format not in ("csv", "json"):
            raise DomainError("format must be 'csv' or 'json'")
        axis_names = [a.name for a in axes]
        if len(set(axis_names)) != len(axis_names):
            raise DomainError("duplicate axis")
        if "j2" in axis_names and "j2_over_j1" in axis_names:
            raise DomainError("axes j2 and j2_over_j1 conflict")
        covers_j2 = "j2" in axis_names or "j2_over_j1" in axis_names
        if "j2_over_j1" in axis_names and "j1" in axis_names:
            raise DomainError("axis j2_over_j1 requires a fixed j1")
        for name in ("j1", "temperature"):
            if name not in axis_names and fixed[name] is None:
                raise DomainError(f"{name} must be fixed or an axis")
        if not covers_j2 and fixed["j2"] is None:
            raise DomainError("j2 must be fixed or an axis")
        return super().__new__(cls, axes, j1, j2, temperature, seeds, max_iter, format, workers)

    def to_dict(self) -> dict:
        # no worker count: it does not change the rows, and the output bytes
        # must not depend on it either
        config = self._asdict()
        config["axes"] = [a._asdict() for a in self.axes]
        del config["workers"]
        return config


class ScanRow(NamedTuple):
    grid_i: int
    grid_j: int
    j1: float
    j2: float
    temperature: float
    a: float
    b: float
    phase: str
    cycle_period: int
    para_count: int
    comm2_count: int
    m1_residual: float
    m2_residual: float
    iterations: int
    seed: int


# the CSV header and the JSON keys, in column order
CSV_COLUMNS = ScanRow._fields


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (XSL-RR 128/64)
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as 32-bit words."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


def _uniforms(seed: int) -> list[float]:
    """``np.random.default_rng(seed).uniform(-2.0, 2.0, 4)``, bit for bit."""
    w = _seed_words(seed)
    # little-endian 64-bit words s0..s3: state seed s0:s1, stream s2:s3
    s = [w[k] | w[k + 1] << 32 for k in (0, 2, 4, 6)]
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
    # PCG's seeding: one step from 0, add the seed, one more step
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(4):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (-rot & 63)) & _M64
        out.append(-2.0 + 4.0 * ((x >> 11) * 2.0**-53))
    return out


def _starts_for_seeds(seeds: list[int]) -> dict[int, tuple[float, float, float, float]]:
    # log-uniform components; the start is seed-determined and shared by every
    # grid point so phase differences across the grid are physical
    import numpy as np

    # numpy's array ``**`` (SIMD pow, not libm's) fixes the recorded starts;
    # Python floats, because numpy scalars would make the pure-Python kernel
    # twice as slow and leak their repr into error messages
    return {seed: tuple(float(x) for x in 10.0 ** np.array(_uniforms(seed))) for seed in seeds}


def _couplings_at(cfg: ScanConfig, values: dict[str, float]) -> Couplings:
    j1 = values.get("j1", cfg.j1)
    temperature = values.get("temperature", cfg.temperature)
    if "j2_over_j1" in values:
        j2 = values["j2_over_j1"] * j1
    else:
        j2 = values.get("j2", cfg.j2)
    return Couplings(j1=j1, j2=j2, temperature=temperature)


def _trajectories(
    p: BoltzmannParams, seeds: list[int], starts: dict, max_iter: int
) -> list[tuple[int, TrajectoryOutcome, PhaseLabel]]:
    """Each seed's classified run from its start, in seed order."""
    runs = []
    for seed in seeds:
        outcome = iterate(p, StateVector(*starts[seed]), max_iter)
        runs.append((seed, outcome, classify_phase(p, outcome)))
    return runs


def _grid(cfg: ScanConfig) -> list[tuple[int, int, dict[str, float]]]:
    """Every grid point as ``(i, j, axis values)``, in grid order."""
    axis0 = cfg.axes[0]
    if len(cfg.axes) == 1:
        return [(i, 0, {axis0.name: v0}) for i, v0 in enumerate(axis0.values())]
    axis1 = cfg.axes[1]
    values1 = axis1.values()
    return [
        (i, j, {axis0.name: v0, axis1.name: v1})
        for i, v0 in enumerate(axis0.values())
        for j, v1 in enumerate(values1)
    ]


def _evaluate_point(cfg: ScanConfig, starts: dict, point: tuple) -> list[ScanRow]:
    i, j, axis_values = point
    c = _couplings_at(cfg, axis_values)
    p = derive_params(c)
    para, comm2 = _phase_counts(p)
    return [
        ScanRow(
            grid_i=i,
            grid_j=j,
            j1=c.j1,
            j2=c.j2,
            temperature=c.temperature,
            a=p.a,
            b=p.b,
            phase=label.phase,
            cycle_period=outcome.period,
            para_count=para,
            comm2_count=comm2,
            m1_residual=label.m1_residual,
            m2_residual=label.m2_residual,
            iterations=outcome.iterations_used,
            seed=seed,
        )
        for seed, outcome, label in _trajectories(p, cfg.seeds, starts, cfg.max_iter)
    ]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share(evaluate, points: list) -> tuple[list, Optional[Exception]]:
    """The rows of each point in turn, up to the first point that raises,
    and that point's exception (or None); so with ``k`` points done, the
    failing point is ``points[k]``."""
    done = []
    try:
        for point in points:
            done.append(evaluate(point))
    except Exception as exc:
        return done, exc
    return done, None


def _fork_share(evaluate, points: list):
    """Evaluate ``points`` in a forked child; return a function that waits
    for the child and returns its ``_share`` result.

    Forked, not spawned: a spawned worker imports the package and numpy
    afresh, which costs more than a benchmark-sized grid takes. Forking is
    safe only while the process runs one thread, as the CLI does."""
    import pickle  # here, as it adds a fifth to the package's import time

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child inherits the scan and its starts, sends back only its
        # result, and leaves without running the parent's exit handlers
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                pickle.dump(_share(evaluate, points), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)

    def wait() -> tuple[list, Optional[Exception]]:
        try:
            with open(read_fd, "rb") as result:
                data = result.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:  # killed, or its result did not pickle: no row came back
            return [], RuntimeError(f"scan worker exited with status {code}")
        return pickle.loads(data)  # bytes from this program's own child

    return wait


def run_scan(cfg: ScanConfig) -> list[ScanRow]:
    """Evaluate the grid; rows are returned in deterministic grid order."""
    evaluate = functools.partial(_evaluate_point, cfg, _starts_for_seeds(cfg.seeds))
    grid = _grid(cfg)
    # start no more processes than can have work or a CPU; without fork the
    # scan runs in-process
    n = min(cfg.workers, len(grid), _available_cpus()) if hasattr(os, "fork") else 1
    # child k takes every n-th point from k, so the slow modulated region is
    # spread over all of them; the parent takes the points from 0
    waits = []
    try:
        for k in range(1, n):
            waits.append(_fork_share(evaluate, grid[k::n]))
        own = _share(evaluate, grid[0::n])
    finally:
        # every child is reaped, also when the parent is interrupted
        shares = [wait() for wait in waits]
    shares.insert(0, own)
    points = [None] * len(grid)
    failures = []
    for k, (done, exc) in enumerate(shares):
        points[k : k + n * len(done) : n] = done
        if exc is not None:
            failures.append((k + n * len(done), exc))
    if failures:
        # the earliest failing grid point, as a serial scan would report
        raise min(failures, key=lambda failure: failure[0])[1]
    return [row for rows in points for row in rows]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _csv(header, rows) -> list[str]:
    """The one CSV form, as lines: the header, then the rows' ``_fmt`` cells."""
    return [",".join(header), *(",".join(map(_fmt, r)) for r in rows)]


def format_csv(rows: list[ScanRow]) -> str:
    return "\n".join(_csv(CSV_COLUMNS, rows)) + "\n"


def _json_safe(obj):
    # strict JSON has no Infinity/NaN literals; floats first, as most values
    # are. A dict is edited in place, so a scan's rows are not held twice
    # while they are dumped: every payload is built for its one dump
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        for k, v in obj.items():
            obj[k] = _json_safe(v)
        return obj
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    # no indent, so json encodes in C; the item separator carries the line
    # break and the indent of a container's items at this depth
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), sort_keys=True, allow_nan=False)


def _encode_flat(obj, depth: int) -> str:
    # strict first: a non-finite value is rare, so only its container pays
    # for the copy without it
    try:
        return _encoder(depth).encode(obj)
    except ValueError:
        return _encoder(depth).encode(_json_safe(obj))


# the exact types json writes as scalars: a container holding only these goes
# to the C encoder whole; anything else (a named tuple too) is walked, so a
# container inside it is laid out as json.dumps lays it out
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dump(obj, depth: int) -> str:
    """``obj`` (whose dicts have string keys) as ``json.dumps(indent=2,
    sort_keys=True)`` writes it at ``depth``, with non-finite values as null."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return _encode_flat(obj, depth)
    if not obj:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, values)):
        body = _encode_flat(obj, depth + 1)[1:-1]  # without its brackets
    elif brackets == "{}":
        body = ("," + pad).join(f"{_encoder(0).encode(k)}: {_dump(v, depth + 1)}" for k, v in sorted(obj.items()))
    else:
        body = ("," + pad).join(_dump(v, depth + 1) for v in obj)
    return brackets[0] + pad + body + "\n" + "  " * depth + brackets[1]


def _json(payload) -> str:
    """The one JSON form: indented, keys sorted, non-finite values as null
    (the payload's dicts are edited in place)."""
    return _dump(payload, 0) + "\n"


def format_json(rows: list[ScanRow], cfg: ScanConfig) -> str:
    metadata = {"tool": "cayleyphase", "version": __version__, "config": cfg.to_dict()}
    return _json({"metadata": metadata, "results": [r._asdict() for r in rows]})
