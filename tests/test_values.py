"""What callers can see of the nine value objects, and what importing the CLI loads.

Each value object is immutable, equal only to an instance of its own class
with equal fields, hashable, built by position or by keyword, and survives
pickle and deepcopy.  Every route that builds one runs its check: the class,
``_make``, ``_replace``, pickle at every protocol, and ``copy``.  Every
scalar input, a field or a parameter, is refused with one message template
under its own name, and so is every integer count with its own template,
that of `channel._as_count`, past its least and its greatest value.  Each
template has one table here, `SCALAR_INPUTS` and `COUNT_INPUTS`, checked
against the public signatures: a public float or int parameter, or a field
of a checked value object, with no row fails.  A plain sequence
passed for a value object takes that object's check and gives the same
result, for every parameter of a public function that is annotated with a
value-object class.
"""

import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eprlink
from eprlink import (
    BellDiagonal,
    DomainError,
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
    apply_two_sided,
    at_length,
    bell_state,
    compose,
    concurrence,
    concurrence_vs_length,
    decay_factors,
    dominant_bell_state,
    estimate_mu,
    fidelity_psi_plus,
    fit_mu,
    iterate,
    iterate_bruteforce,
    monte_carlo_transmit,
    sweep,
    threshold_depolarizing,
    threshold_double_flip,
    threshold_generic,
    transmit,
    transmit_at_length,
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
    if cls is SweepTable:  # the rows are rebuilt as SweepRows of the checked floats
        assert value.rows == fields[name]
        assert all(type(row) is SweepRow for row in value.rows)
    else:
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


def _with(build, valid, index):
    # build(*valid) with the value in place of valid[index].
    return lambda v: build(*valid[:index], v, *valid[index + 1 :])


MU = ErrorDensities(0.01, 0.02, 0.03)
CHANNEL = PauliProbs(0.7, 0.1, 0.2, 0.0)
STATE = BellDiagonal(0.9, 0.1, 0.0, 0.0)
DENSITIES = ErrorDensities(0.011, 0.0, 1.0)
GEOMETRY = LinkGeometry(1.0, 2.5)
HUGE = 10**5000  # past sys.get_int_max_str_digits(): repr refuses it
# Each bound: (as the message shows it, values just outside it, values it takes).
TAKEN = (0, True, 7, 2**1023, np.float64(0.5), -0.0, 5e-324)
NOT_NEGATIVE = (">= 0", (-5e-324, -1.0), TAKEN)
POSITIVE = ("> 0", (0.0, -0.0, -5e-324), (True, 7, 2**1023, np.float64(0.5), 5e-324))
# A qber at or past the 0.75 floor is a DomainError.
QBER = (">= 0", (-5e-324, -1.0), (0, np.float64(0.5), -0.0, 5e-324))
# Just past the 1e-12 tolerance that the probabilities admit.  A distribution
# takes a field only together with the others, summing to 1.
PROBABILITY = ("in [0, 1]", (-2e-12, 1.0 + 2e-12), ())
UNIT = ("in [0, 1]", (-5e-324, math.nextafter(1.0, 2.0)), (0, True, np.float64(0.5), -0.0, 5e-324))
UNBOUNDED = (None, (), TAKEN)

# Every public scalar input: (id, call with the input in place, its name in
# the message, its bound).
SCALAR_INPUTS = [
    *(
        (f"{cls.__name__}.{field}", _with(cls, valid, i), f"{kind}{field}", bound)
        for cls, valid, kind, bound in (
            (PauliProbs, (0.25,) * 4, "channel ", PROBABILITY),
            (BellDiagonal, (0.25,) * 4, "Bell weight ", PROBABILITY),
            (ErrorDensities, (0.01, 0.02, 0.03), "", NOT_NEGATIVE),
            (LinkGeometry, (1.0, 2.0), "", NOT_NEGATIVE),
            (Lambdas, (0.5, 0.25, -0.125), "", UNBOUNDED),
        )
        for i, field in enumerate(cls._fields)
    ),
    ("MeasurementPoint.qber", _with(MeasurementPoint, (0.1, 1.0), 0), "qber", QBER),
    (
        "MeasurementPoint.total_length_km",
        _with(MeasurementPoint, (0.1, 1.0), 1),
        "total_length_km",
        POSITIVE,
    ),
    ("ThresholdResult.length_km", ThresholdResult, "length_km", POSITIVE),
    ("at_length.length_km", _with(at_length, (MU, 1.0), 1), "length_km", NOT_NEGATIVE),
    ("threshold_depolarizing.mu", threshold_depolarizing, "mu", NOT_NEGATIVE),
    ("threshold_double_flip.mu", threshold_double_flip, "mu", NOT_NEGATIVE),
    (
        "concurrence_vs_length.total_length_km",
        _with(concurrence_vs_length, (MU, 1.0), 1),
        "total_length_km",
        NOT_NEGATIVE,
    ),
    ("sweep.l_max_km", _with(sweep, (MU, 10.0, 4), 1), "l_max_km", POSITIVE),
    ("SweepTable.length_km", lambda v: SweepTable([(v, 1.0, 1.0)]), "length_km", NOT_NEGATIVE),
    ("SweepTable.concurrence", lambda v: SweepTable([(0.0, v, 1.0)]), "concurrence", UNIT),
    ("SweepTable.fidelity", lambda v: SweepTable([(0.0, 1.0, v)]), "fidelity", UNIT),
]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -(10**400), "1", HUGE]
# pytest's own id would print every digit of an int, or fail past the repr limit.
LABELS = {
    10**400: "10**400",
    -(10**400): "-10**400",
    HUGE: "10**5000",
    -HUGE: "-10**5000",
    2**1023: "2**1023",
    int(sys.float_info.max) + 1: "int(float_max)+1",
}


def _in_message(value):
    # repr, or what `channel._shown` prints for an int that repr refuses.
    return "an integer of 16610 bits" if value in (HUGE, -HUGE) else repr(value)


def _cases(table, refusals):
    # One case per input and value, so that each failing pair is reported.
    return [
        pytest.param(build, value, message, id=f"{case_id}-{LABELS.get(value) or repr(value)}")
        for case_id, build, *template in table
        for value, message in refusals(*template)
    ]


def _scalar_refusals(name, bound):
    shown, outside, _ = bound
    for value in NOT_FINITE:
        yield value, f"{name} must be a finite number, got {_in_message(value)}"
    for value in outside:
        yield value, f"{name} must be {shown}, got {value!r}"


@pytest.mark.parametrize("build, value, message", _cases(SCALAR_INPUTS, _scalar_refusals))
def test_every_scalar_input_has_one_message_template(build, value, message):
    with pytest.raises(ValidationError) as info:
        build(value)
    assert str(info.value) == message


# The scalar rows that build a checked value object; the two distributions'
# bound lists no value.
VALUE_NAMES = {cls.__name__ for cls, _, _ in CASES}
STORED_INPUTS = [row for row in SCALAR_INPUTS if row[0].split(".")[0] in VALUE_NAMES]


def _taken(name, bound):
    # Each value the bound takes, with the field that stores it.
    return ((value, name) for value in bound[2])


@pytest.mark.parametrize("build, value, field", _cases(STORED_INPUTS, _taken))
def test_every_value_object_stores_the_float_it_checked(build, value, field):
    made = build(value)
    hash(made)  # raises if a field is stored mutable
    stored = getattr(made.rows[0] if type(made) is SweepTable else made, field)
    assert type(stored) is float
    assert stored.hex() == float(value).hex()


# A valid monte_carlo_transmit call by position.
SAMPLED = (MU, GEOMETRY, 100, 50, 1)
# Every public count input: (id, call with the input in place, its name in
# the message, the least and the greatest value it takes, None for no bound).
COUNT_INPUTS = [
    *(
        (f"{f.__name__}.n", _with(f, (CHANNEL, 3), 1), "segment count", 0, most)
        for f, most in ((iterate, None), (iterate_bruteforce, 10**9), (decay_factors, None))
    ),
    ("sweep.steps", _with(sweep, (MU, 10.0, 4), 2), "steps", 2, None),
    *(
        (f"monte_carlo_transmit.{name}", _with(monte_carlo_transmit, SAMPLED, i), name, *bounds)
        for i, name, bounds in (
            (2, "segments_per_km", (1, sys.float_info.max)),
            (3, "samples", (1, 2**63 - 1)),
            (4, "seed", (None, None)),
        )
    ),
]
NOT_INTEGERS = [2.5, 1.0, math.nan, "1", None, b"1"]


def _count_refusals(name, least, most):
    for value in NOT_INTEGERS:
        yield value, f"{name} must be an integer, got {value!r}"
    for value in () if least is None else (least - 1, -HUGE):
        yield value, f"{name} must be >= {least}, got {_in_message(value)}"
    shown = f"{most:g}" if type(most) is float else most
    for value in () if most is None else (int(most) + 1, HUGE):
        yield value, f"{name} must be <= {shown}, got {_in_message(value)}"


@pytest.mark.parametrize("build, value, message", _cases(COUNT_INPUTS, _count_refusals))
def test_every_count_input_has_one_message_template(build, value, message):
    with pytest.raises(ValidationError) as info:
        build(value)
    assert str(info.value) == message


# Public inputs that take neither template, each with its reason.
EXEMPT = {}
# Public tuple classes with no check of their own: McEstimate is built only
# from checked parts, and SweepRow is a plain named tuple that SweepTable checks.
UNCHECKED_CLASSES = {McEstimate, SweepRow}


def test_the_two_tables_name_every_public_scalar_and_count():
    scalars, counts = set(), set()
    for name in eprlink.__all__:
        obj = getattr(eprlink, name)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj, eval_str=True).parameters.values():
                if param.annotation is float:
                    scalars.add(f"{name}.{param.name}")
                elif param.annotation is int:
                    counts.add(f"{name}.{param.name}")
        elif isinstance(obj, type) and issubclass(obj, tuple) and obj not in UNCHECKED_CLASSES:
            fields = SweepRow._fields if obj is SweepTable else obj._fields
            scalars.update(f"{name}.{field}" for field in fields)
    assert set(EXEMPT) <= scalars | counts
    assert sorted(scalars - set(EXEMPT)) == sorted(case[0] for case in SCALAR_INPUTS)
    assert sorted(counts - set(EXEMPT)) == sorted(case[0] for case in COUNT_INPUTS)


# Every public function with a parameter annotated with a value-object class,
# and a valid call of it by keyword.  Each value object in the call is passed
# as a plain sequence too; the table must name every such parameter.
LOOK_ALIKES = [
    (compose, {"first": PauliProbs(0.5, 0.5, 0.0, 0.0), "second": CHANNEL}),
    (iterate, {"p": CHANNEL, "n": 3}),
    (iterate_bruteforce, {"p": CHANNEL, "n": 3}),
    (decay_factors, {"p": CHANNEL, "n": 2}),
    (at_length, {"mu": DENSITIES, "length_km": 3.0}),
    (transmit, {"r": PauliProbs(0.5, 0.5, 0.0, 0.0), "s": CHANNEL}),
    (transmit_at_length, {"mu": DENSITIES, "geom": GEOMETRY}),
    (concurrence, {"state": STATE}),
    (fidelity_psi_plus, {"state": STATE}),
    (concurrence_vs_length, {"mu": DENSITIES, "total_length_km": 3.0}),
    (dominant_bell_state, {"state": BellDiagonal(0.2, 0.1, 0.7, 0.0)}),
    (threshold_generic, {"mu": DENSITIES}),
    (estimate_mu, {"point": MeasurementPoint(0.02, 1.0)}),
    (sweep, {"mu": DENSITIES, "l_max_km": 200.0, "steps": 120}),
    (
        apply_two_sided,
        {"r": CHANNEL, "s": PauliProbs(1.0, 0.0, 0.0, 0.0), "rho": bell_state("phi-")},
    ),
    (
        monte_carlo_transmit,
        {"mu": DENSITIES, "geom": GEOMETRY, "segments_per_km": 100, "samples": 50, "seed": 1},
    ),
]
VALUE_CLASSES = {cls for cls, _, _ in CASES}
PLAIN_ARGUMENTS = [
    (function, kwargs, name)
    for function, kwargs in LOOK_ALIKES
    for name, value in kwargs.items()
    if type(value) in VALUE_CLASSES
]
# Per class, plain sequences its check refuses, each with the error and its
# message, on different fields and for different reasons.  Each out-of-range
# channel and state sums to 1, so a function that skips the check returns a
# result instead of failing some other way.
PAST_FLOOR = "qber 0.9 exceeds the depolarizing fidelity floor (must be < 0.75)"
REFUSED = {
    PauliProbs: [
        ((1.2, -0.2, 0, 0), ValidationError, "channel p0 must be in [0, 1], got 1.2"),
        ((0.5, -0.5, 0.5, 0.5), ValidationError, "channel p1 must be in [0, 1], got -0.5"),
        ([0.25, 0.25, 0.25, -0.25], ValidationError, "channel p3 must be in [0, 1], got -0.25"),
    ],
    ErrorDensities: [
        ((-1.0, 0, 0), ValidationError, "mu1 must be >= 0, got -1.0"),
        ([0.01, -0.1, 0.0], ValidationError, "mu2 must be >= 0, got -0.1"),
        ((0.01, 0.02, "0.03"), ValidationError, "mu3 must be a finite number, got '0.03'"),
    ],
    LinkGeometry: [
        ((-1.0, 2.0), ValidationError, "l1_km must be >= 0, got -1.0"),
        ([1.0, math.inf], ValidationError, "l2_km must be a finite number, got inf"),
        ((1.0, "2"), ValidationError, "l2_km must be a finite number, got '2'"),
    ],
    BellDiagonal: [
        ((2.0, -1.0, 0.0, 0.0), ValidationError, "Bell weight a must be in [0, 1], got 2.0"),
        ((0.1, 0.2, 5.0, -4.3), ValidationError, "Bell weight c must be in [0, 1], got 5.0"),
        (
            [0.5, 0.5, 0.0, math.nan],
            ValidationError,
            "Bell weight d must be a finite number, got nan",
        ),
    ],
    MeasurementPoint: [
        ((0.9, 1.0), DomainError, PAST_FLOOR),
        ((0.01, 0.0), ValidationError, "total_length_km must be > 0, got 0.0"),
        ([-0.1, 1], ValidationError, "qber must be >= 0, got -0.1"),
    ],
}
BAD_ARGUMENTS = [
    (function, kwargs, name, *refused)
    for function, kwargs, name in PLAIN_ARGUMENTS
    for refused in REFUSED[type(kwargs[name])]
]
BAD_IDS = [
    f"{function.__name__}-{name}-{k}"
    for function, kwargs, name in PLAIN_ARGUMENTS
    for k in range(len(REFUSED[type(kwargs[name])]))
]


def _shown(result):
    # repr prints each float exactly; an array is shown through its list.
    return repr(result.tolist() if hasattr(result, "tolist") else result)


@pytest.mark.parametrize(
    "function, kwargs, name",
    PLAIN_ARGUMENTS,
    ids=[f"{function.__name__}-{name}" for function, _, name in PLAIN_ARGUMENTS],
)
def test_a_plain_sequence_gives_the_same_result_as_its_value_object(function, kwargs, name):
    # Whole floats as ints: [0.7, 0.1, 0.2, 0] for PauliProbs(0.7, 0.1, 0.2, 0.0).
    plain = [int(v) if v.is_integer() else v for v in kwargs[name]]
    assert int in map(type, plain)
    assert _shown(function(**{**kwargs, name: plain})) == _shown(function(**kwargs))


@pytest.mark.parametrize(
    "function, kwargs, name, bad, error, message",
    BAD_ARGUMENTS,
    ids=BAD_IDS,
)
def test_a_plain_sequence_takes_the_check_of_its_value_object(
    function, kwargs, name, bad, error, message
):
    with pytest.raises(error) as info:
        function(**{**kwargs, name: bad})
    assert str(info.value) == message


def test_the_look_alike_table_names_every_value_object_parameter():
    want = {
        (name, param.name, param.annotation)
        for name in eprlink.__all__
        if inspect.isfunction(getattr(eprlink, name))
        for param in inspect.signature(getattr(eprlink, name), eval_str=True).parameters.values()
        if param.annotation in VALUE_CLASSES
    }
    got = {(f.__name__, name, type(kwargs[name])) for f, kwargs, name in PLAIN_ARGUMENTS}
    assert sorted(got, key=str) == sorted(want, key=str)


def test_fit_mu_takes_plain_pairs_among_its_points():
    # Unannotated: an iterable of points.
    pairs = [(0.01, 0.4), (0.043, 1.45), [0.02, 1]]
    assert repr(fit_mu(pairs)) == repr(fit_mu([MeasurementPoint(*p) for p in pairs]))
    assert fit_mu(iter(pairs[:1])) == fit_mu([MeasurementPoint(0.01, 0.4)])
    with pytest.raises(DomainError) as info:
        fit_mu([(0.9, 1.0), (0.01, 0.4)])
    assert str(info.value) == PAST_FLOOR
    with pytest.raises(ValidationError) as info:
        fit_mu([MeasurementPoint(0.01, 0.4), (-0.1, 1.0)])
    assert str(info.value) == "qber must be >= 0, got -0.1"


@pytest.mark.parametrize(
    "flags, heavy",
    [
        ((), ("dataclasses", "inspect", "ast", "dis", "tokenize")),
        # -S: a site .pth file (certifi's, for one) may import typing on its own.
        (("-S",), ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize")),
    ],
    ids=["site", "no-site"],
)
def test_importing_the_cli_loads_no_heavy_modules(flags, heavy):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\n"
        "import eprlink.cli\n"
        f"heavy = {heavy!r}\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
