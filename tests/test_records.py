"""The package's records are immutable named tuples: fields are read-only,
they pickle (library callers may pickle any record), they build from positional or
keyword arguments, and the five that check their inputs still reject bad
ones."""

import json
import math
import pickle

import pytest

import cayleyphase as cp
from cayleyphase import AxisSpec, DomainError, ParameterRangeError, ScanConfig, StateVector
from cayleyphase.dynamics import DEFAULT_MAX_ITER
from cayleyphase.scan import CSV_COLUMNS
from cayleyphase.verify import VerifyResult


def one_of_each():
    """One instance of every record type the package defines."""
    c = cp.Couplings(1.0, 0.15, 0.6)
    p = cp.derive_params(c)
    slice_p = cp.BoltzmannParams(1.0, 0.5)
    u = StateVector(1.0, 0.37, 0.11, 0.92)
    outcome = cp.iterate(p, u, max_iter=2000)
    fixed = cp.solve_fixed_points(p)
    axis = AxisSpec("temperature", 0.5, 1.0, 2)
    cfg = ScanConfig(axes=[axis], j1=1.0, j2=0.15, seeds=[0], max_iter=2000)
    return [
        c,
        p,
        u,
        outcome,
        cp.classify_phase(p, outcome),
        VerifyResult("name", True, "detail"),
        fixed.roots[0],
        fixed,
        cp.solve_two_cycles(slice_p),
        cp.critical_curve(-1.0, 1.0),
        cp.solve_ferro_fixed_points(p)[0],
        axis,
        cfg,
        cp.run_scan(cfg)[0],
    ]


RECORDS = one_of_each()


def test_every_record_type_is_covered():
    assert len({type(r) for r in RECORDS}) == 14


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    assert isinstance(record, tuple)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):  # no instance dict either
        record.extra = 1


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_pickle_round_trip(index):
    record = RECORDS[index]
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record


def test_positional_and_keyword_construction():
    # the forms perfbench/probe.py uses
    assert cp.Couplings(0.5, -0.3, 1.0) == cp.Couplings(j1=0.5, j2=-0.3, temperature=1.0)
    assert StateVector(1.0, 0.37, 0.11, 0.92) == StateVector(u1=1.0, u2=0.37, u3=0.11, u4=0.92)
    assert AxisSpec("j2_over_j1", 0.0, 0.8, 10) == AxisSpec(name="j2_over_j1", min=0.0, max=0.8, steps=10)
    cfg = ScanConfig(axes=[AxisSpec("temperature", 0.25, 4.0, 4)], j1=1.0, j2=0.0, format="json")
    assert (cfg.temperature, cfg.seeds, cfg.max_iter, cfg.workers) == (None, (0,), DEFAULT_MAX_ITER, 1)
    assert ScanConfig(*cfg) == cfg
    # the tolerances are constants, not settings
    assert "tol" not in ScanConfig._fields
    for name, value in (("class_tol", 1e-6), ("tol", 1e-12)):
        with pytest.raises(TypeError, match=rf"ScanConfig.*unexpected keyword argument '{name}'"):
            ScanConfig(axes=cfg.axes, j1=1.0, j2=0.0, **{name: value})


def test_invalid_inputs_still_raise():
    with pytest.raises(DomainError, match="u2"):
        StateVector(1.0, math.nan, 1.0, 1.0)
    # ints too large for a double
    with pytest.raises(DomainError, match="u1"):
        StateVector(10**400, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterRangeError, match="weight a"):
        cp.BoltzmannParams(10**400, 1.0)
    with pytest.raises(DomainError, match="unknown axis"):
        AxisSpec("volume", 1.0, 2.0, 5)
    with pytest.raises(DomainError, match="min < max"):
        AxisSpec("temperature", 2.0, 1.0, 5)
    with pytest.raises(DomainError, match="one or two axes"):
        ScanConfig(axes=[], j1=1.0, j2=0.0, temperature=1.0)
    with pytest.raises(DomainError, match="workers"):
        ScanConfig(axes=[AxisSpec("temperature", 1.0, 2.0, 2)], j1=1.0, j2=0.0, workers=0)
    with pytest.raises(ParameterRangeError):
        cp.Couplings(1.0, 0.0, 0.0)


def test_boltzmann_params_are_the_two_checked_weights():
    p = cp.BoltzmannParams(4.0, 0.5)
    assert cp.BoltzmannParams._fields == ("a", "b")
    assert p == cp.BoltzmannParams(a=4.0, b=0.5) and (p.alpha, p.b_tilde) == (2.0, 0.0625)
    for weights in ((0.0, 1.0), (1.0, math.inf), (1e200, 1.0), (1.0, 1e40)):
        with pytest.raises(ParameterRangeError):
            cp.BoltzmannParams(*weights)


def test_rows_iterate_in_column_order():
    row = RECORDS[-1]
    assert row._fields == CSV_COLUMNS
    assert dict(zip(CSV_COLUMNS, row)) == row._asdict()


def test_config_dict_nests_axes_as_objects():
    config = json.loads(json.dumps(RECORDS[-2].to_dict()))
    assert config["axes"] == [{"name": "temperature", "min": 0.5, "max": 1.0, "steps": 2}]
    assert "workers" not in config
