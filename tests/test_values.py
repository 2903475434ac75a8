"""What callers can see of the nine value objects, and what importing the CLI loads.

Each value object is immutable, equal only to an instance of its own class
with equal fields, hashable, built by position or by keyword, and survives
pickle and deepcopy.  Every route that builds one runs its check: the class,
``_make``, ``_replace``, pickle at every protocol, and ``copy``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from eprlink import (
    BellDiagonal,
    ErrorDensities,
    Lambdas,
    LinkGeometry,
    McEstimate,
    MeasurementPoint,
    PauliProbs,
    SweepRow,
    SweepTable,
    ThresholdResult,
    ValidationError,
)

ROWS = (SweepRow(0.0, 1.0, 1.0), SweepRow(10.0, 0.5, 0.75))
ESTIMATE_FIELDS = {
    "bell_diagonal": BellDiagonal(0.5, 0.25, 0.25, 0.0),
    "samples": 4,
    "standard_errors": (0.25, 0.25, 0.25, 0.0),
    "geometry": LinkGeometry(1.0, 2.0),
}

# (class, fields by keyword, repr)
CASES = [
    (
        PauliProbs,
        {"p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1},
        "PauliProbs(p0=0.7, p1=0.1, p2=0.1, p3=0.1)",
    ),
    (
        BellDiagonal,
        {"a": 0.7, "b": 0.1, "c": 0.1, "d": 0.1},
        "BellDiagonal(a=0.7, b=0.1, c=0.1, d=0.1)",
    ),
    (
        ErrorDensities,
        {"mu1": 0.008, "mu2": 0.004, "mu3": 0.0},
        "ErrorDensities(mu1=0.008, mu2=0.004, mu3=0.0)",
    ),
    (
        Lambdas,
        {"lambda1": 0.5, "lambda2": 0.25, "lambda3": -0.125},
        "Lambdas(lambda1=0.5, lambda2=0.25, lambda3=-0.125)",
    ),
    (LinkGeometry, {"l1_km": 3.0, "l2_km": 4.5}, "LinkGeometry(l1_km=3.0, l2_km=4.5)"),
    (
        MeasurementPoint,
        {"qber": 0.043, "total_length_km": 1.45},
        "MeasurementPoint(qber=0.043, total_length_km=1.45)",
    ),
    (ThresholdResult, {"length_km": 34.5}, "ThresholdResult(length_km=34.5)"),
    (ThresholdResult, {"length_km": None}, "ThresholdResult(length_km=None)"),
    (
        SweepTable,
        {"rows": ROWS},
        "SweepTable(rows=(SweepRow(length_km=0.0, concurrence=1.0, fidelity=1.0),"
        " SweepRow(length_km=10.0, concurrence=0.5, fidelity=0.75)))",
    ),
    (
        McEstimate,
        ESTIMATE_FIELDS,
        "McEstimate(bell_diagonal=BellDiagonal(a=0.5, b=0.25, c=0.25, d=0.0), samples=4,"
        " standard_errors=(0.25, 0.25, 0.25, 0.0), geometry=LinkGeometry(l1_km=1.0, l2_km=2.0))",
    ),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls, fields, shown", CASES, ids=IDS)
def test_value_object_contract(cls, fields, shown):
    values = tuple(fields.values())
    value = cls(*values)
    assert repr(value) == shown
    assert type(value) is cls

    same = cls(**fields)
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != values and not value == values
    assert values != value and not values == value

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    assert getattr(value, name) is fields[name]

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls
        assert copied == value
        assert repr(copied) == shown


def test_equal_numbers_in_two_classes_are_not_equal():
    weights = (0.7, 0.1, 0.1, 0.1)
    assert PauliProbs(*weights) != BellDiagonal(*weights)
    assert not PauliProbs(*weights) == BellDiagonal(*weights)


# (class, valid fields, the index of a field and a value its check rejects)
INVALID = [
    (PauliProbs, (1.0, 0.0, 0.0, 0.0), 1, 9),
    (BellDiagonal, (1.0, 0.0, 0.0, 0.0), 3, float("nan")),
    (ErrorDensities, (0.01, 0.02, 0.03), 2, -1.0),
    (Lambdas, (1.0, 0.5, 0.25), 0, float("inf")),
    (LinkGeometry, (1.0, 2.0), 1, -2.0),
    (MeasurementPoint, (0.01, 0.4), 0, -0.01),
    (ThresholdResult, (34.5,), 0, 0.0),
    (SweepTable, (ROWS,), 0, ROWS[::-1]),
]


@pytest.mark.parametrize(
    "cls, valid, index, bad", INVALID, ids=[c.__name__ for c, _, _, _ in INVALID]
)
def test_every_route_runs_the_check(cls, valid, index, bad):
    invalid = valid[:index] + (bad,) + valid[index + 1 :]
    with pytest.raises(ValidationError) as direct:
        cls(*invalid)
    with pytest.raises(ValidationError) as made:
        cls._make(invalid)
    assert str(made.value) == str(direct.value)
    with pytest.raises(ValidationError) as replaced:
        cls(*valid)._replace(**{cls._fields[index]: bad})
    assert str(replaced.value) == str(direct.value)
    forged = tuple.__new__(cls, invalid)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValidationError) as unpickled:
            pickle.loads(pickle.dumps(forged, protocol))
        assert str(unpickled.value) == str(direct.value)
    with pytest.raises(ValidationError) as copied:
        copy.copy(forged)
    assert str(copied.value) == str(direct.value)


def test_importing_the_cli_loads_no_code_generation_modules():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\n"
        "import eprlink.cli\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_importing_the_cli_without_site_loads_no_typing():
    # -S: a site .pth file (certifi's, for one) may import typing on its own.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\n"
        "import eprlink.cli\n"
        "heavy = ('typing', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
