"""Parameter-plane scans with deterministic, worker-count-independent output.

A scan evaluates every grid point independently: derive the bond weights,
count the coexisting phases from the closed-form thresholds, and run one
classified trajectory per seed from a seed-determined random start (the same
start is reused across grid points so rows differ only through the physics).
Rows are emitted in grid order regardless of how many workers computed them,
and all floats are formatted to 17 significant digits, so a config maps to one
exact output byte stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .core import Couplings, DomainError, StateVector, derive_params
from .dynamics import (
    CLASSIFY_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    classify_phase,
    iterate,
)
from .symmetric import _phase_counts

__all__ = ["AxisSpec", "ScanConfig", "ScanRow", "format_csv", "format_json", "run_scan"]

AXIS_NAMES = ("j1", "j2", "temperature", "j2_over_j1")

CSV_COLUMNS = (
    "grid_i",
    "grid_j",
    "j1",
    "j2",
    "temperature",
    "a",
    "b",
    "phase",
    "cycle_period",
    "para_count",
    "comm2_count",
    "m1_residual",
    "m2_residual",
    "iterations",
    "seed",
)


@dataclass(frozen=True)
class AxisSpec:
    name: str
    min: float
    max: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise DomainError(f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}")
        for name in ("min", "max"):
            if not isinstance(getattr(self, name), (int, float)):
                raise DomainError(f"axis {name} must be a number, not {getattr(self, name)!r}")
        if not isinstance(self.steps, int):
            raise DomainError(f"axis steps must be an integer, not {self.steps!r}")
        if self.steps < 1:
            raise DomainError("axis steps must be >= 1")
        if self.steps > 1 and not self.min < self.max:
            raise DomainError("axis requires min < max")

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


def _check_seeds(seeds) -> None:
    if not (isinstance(seeds, (list, tuple)) and seeds and all(type(s) is int and s >= 0 for s in seeds)):
        raise DomainError(f"seeds must be a non-empty list of non-negative integers, not {seeds!r}")


@dataclass
class ScanConfig:
    axes: list[AxisSpec]
    j1: Optional[float] = None
    j2: Optional[float] = None
    temperature: Optional[float] = None
    seeds: list[int] = field(default_factory=lambda: [0])
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL
    class_tol: float = CLASSIFY_TOL
    format: str = "csv"
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise DomainError("a scan needs one or two axes")
        _check_seeds(self.seeds)
        for name in ("max_iter", "workers"):
            if not isinstance(getattr(self, name), int):
                raise DomainError(f"{name} must be an integer, not {getattr(self, name)!r}")
        for name in ("tol", "class_tol"):
            if not isinstance(getattr(self, name), (int, float)):
                raise DomainError(f"{name} must be a number, not {getattr(self, name)!r}")
        for name in ("j1", "j2", "temperature"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (int, float)):
                raise DomainError(f"{name} must be a number or null, not {value!r}")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be 'csv' or 'json'")
        axis_names = [a.name for a in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise DomainError("duplicate axis")
        if "j2" in axis_names and "j2_over_j1" in axis_names:
            raise DomainError("axes j2 and j2_over_j1 conflict")
        fixed = {"j1": self.j1, "j2": self.j2, "temperature": self.temperature}
        covers_j2 = "j2" in axis_names or "j2_over_j1" in axis_names
        if "j2_over_j1" in axis_names and "j1" in axis_names:
            raise DomainError("axis j2_over_j1 requires a fixed j1")
        for name in ("j1", "temperature"):
            if name not in axis_names and fixed[name] is None:
                raise DomainError(f"{name} must be fixed or an axis")
        if not covers_j2 and fixed["j2"] is None:
            raise DomainError("j2 must be fixed or an axis")

    def to_dict(self) -> dict:
        # no worker count: it does not change the rows, and the output bytes
        # must not depend on it either
        return {
            "axes": [
                {"name": a.name, "min": a.min, "max": a.max, "steps": a.steps}
                for a in self.axes
            ],
            "j1": self.j1,
            "j2": self.j2,
            "temperature": self.temperature,
            "seeds": list(self.seeds),
            "max_iter": self.max_iter,
            "tol": self.tol,
            "class_tol": self.class_tol,
            "format": self.format,
        }


@dataclass(frozen=True)
class ScanRow:
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


def _starts_for_seeds(seeds: list[int]) -> dict[int, tuple[float, float, float, float]]:
    # log-uniform components; the start is seed-determined and shared by every
    # grid point so phase differences across the grid are physical
    import numpy as np

    starts = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        # Python floats: numpy scalars would make the pure-Python kernel twice
        # as slow and leak their repr into error messages
        starts[seed] = tuple(float(x) for x in 10.0 ** rng.uniform(-2.0, 2.0, size=4))
    return starts


def _couplings_at(cfg: ScanConfig, values: dict[str, float]) -> Couplings:
    j1 = values.get("j1", cfg.j1)
    temperature = values.get("temperature", cfg.temperature)
    if "j2_over_j1" in values:
        j2 = values["j2_over_j1"] * j1
    else:
        j2 = values.get("j2", cfg.j2)
    return Couplings(j1=j1, j2=j2, temperature=temperature)


def _evaluate_point(task) -> list[ScanRow]:
    (cfg, i, j, axis_values, starts) = task
    c = _couplings_at(cfg, axis_values)
    p = derive_params(c)
    para, comm2 = _phase_counts(p)
    rows = []
    for seed in cfg.seeds:
        u0 = StateVector(*starts[seed])
        outcome = iterate(p, u0, max_iter=cfg.max_iter, tol=cfg.tol)
        label = classify_phase(p, outcome, tol=cfg.class_tol)
        rows.append(
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
        )
    return rows


def run_scan(cfg: ScanConfig) -> list[ScanRow]:
    """Evaluate the grid; rows are returned in deterministic grid order."""
    starts = _starts_for_seeds(cfg.seeds)
    axis0 = cfg.axes[0]
    values0 = axis0.values()
    if len(cfg.axes) == 2:
        axis1 = cfg.axes[1]
        values1 = axis1.values()
        tasks = [
            (cfg, i, j, {axis0.name: v0, axis1.name: v1}, starts)
            for i, v0 in enumerate(values0)
            for j, v1 in enumerate(values1)
        ]
    else:
        tasks = [
            (cfg, i, 0, {axis0.name: v0}, starts)
            for i, v0 in enumerate(values0)
        ]

    if cfg.workers == 1:
        chunks = [_evaluate_point(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_evaluate_point, tasks, chunksize=4))
    return [row for chunk in chunks for row in chunk]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def format_csv(rows: list[ScanRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    # strict JSON has no Infinity/NaN literals
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def format_json(rows: list[ScanRow], cfg: ScanConfig) -> str:
    payload = {
        "metadata": {"tool": "cayleyphase", "version": __version__, "config": cfg.to_dict()},
        "results": [
            {col: _json_safe(getattr(r, col)) for col in CSV_COLUMNS} for r in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
