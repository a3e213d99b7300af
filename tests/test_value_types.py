"""The package's value types: ``IntMatrix``, a slotted class checked by its
one constructor, and the records, named tuples. Each survives pickle, copy
and deepcopy as an equal object, refuses assignment and deletion, and
needs neither ``dataclasses`` nor ``typing``, whose imports would cost a
third of a CLI launch."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nstepdet
from nstepdet.construction import Prop1Record
from nstepdet.exact_linalg import DimensionError, IntMatrix
from nstepdet.identities import IdentityCase, VerificationRecord, verify_cassini
from nstepdet.nstep_seq import CLASSIC, Convention, custom

MATRIX = IntMatrix.from_rows([[2, -1], [7, 3]])
CASE = IdentityCase("vajda", 3, 2, p=1, q=4, trial=5, convention="paper")
VALUES = {
    "matrix": MATRIX,
    "convention": custom([3, -4]),
    "classic": CLASSIC,
    "case": CASE,
    "verification": VerificationRecord(CASE, -8, -8),
    "prop1": Prop1Record(3, 2, (1, 3), -26, 1, -2, 13),
}


@pytest.mark.parametrize("module", ["nstepdet.cli", "nstepdet"])
def test_import_loads_neither_dataclasses_nor_typing(module):
    # -S keeps site-packages from importing these modules on its own.
    src = str(Path(nstepdet.__file__).resolve().parents[1])
    code = (f"import sys, {module}; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("clone", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_clones_are_equal(name, clone):
    value = VALUES[name]
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)


def _forged(rows, cols, entries):
    """A matrix whose slots bypass the constructor's checks."""
    m = object.__new__(IntMatrix)
    for field, value in zip(IntMatrix.__slots__, (rows, cols, entries)):
        object.__setattr__(m, field, value)
    return m


@pytest.mark.parametrize("clone", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_clones_go_through_the_constructor(clone):
    assert clone(_forged(1, 2, (4, 5))) == IntMatrix(1, 2, (4, 5))
    with pytest.raises(DimensionError, match="entries must be ints"):
        clone(_forged(1, 2, (True, 5)))
    with pytest.raises(DimensionError, match="needs 2 entries"):
        clone(_forged(1, 2, (4,)))


def test_matrix_repr_eq_and_hash():
    assert repr(MATRIX) == "IntMatrix(rows=2, cols=2, entries=(2, -1, 7, 3))"
    assert MATRIX == IntMatrix(2, 2, (2, -1, 7, 3))
    assert MATRIX != IntMatrix(2, 2, (2, -1, 7, 4))
    # Only another matrix compares equal, never its fields as a tuple.
    assert MATRIX != (2, 2, (2, -1, 7, 3))
    assert len({MATRIX, IntMatrix(2, 2, (2, -1, 7, 3))}) == 1


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name]
    field = "rows" if name == "matrix" else value._fields[0]
    before = copy.copy(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 9)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == before


def test_records_are_named_tuples():
    # The declared contract: records compare equal to plain tuples of
    # their fields, and _replace makes a changed copy.
    case = IdentityCase("cassini", 2, 1, convention="classic")
    assert case == ("cassini", 2, 1, None, None, None, None, "classic")
    assert case._replace(trial=3).trial == 3 and case.trial is None
    assert VerificationRecord(case, 1, 1) == (case, 1, 1)
    assert Convention("classic") == CLASSIC
    assert Prop1Record(2, 1, (1,), 6, -1, 2, -3).rhs == 6
    assert verify_cassini(2, 1)._replace(lhs=0).passed is False
