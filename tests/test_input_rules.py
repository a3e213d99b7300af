"""Each input rule is checked by one function of ``exact_linalg``:
``check_at_least`` for integer parameters, ``check_square`` for square
matrices of one order and ``check_indices`` for index lists. The tables
below pin, per public entry point, which inputs are rejected and with which
exception type. A bool or float never passes for an int."""

import ast
from pathlib import Path

import pytest

from nstepdet.construction import (
    Prop1Cell,
    build_P,
    build_Q,
    check_prop1,
    extend_columns,
    minor_by_deletion,
    minor_selection,
    sign_from_deleted,
    sign_from_kept,
)
from nstepdet.exact_linalg import (
    DimensionError,
    IntMatrix,
    RangeError,
    SelectionError,
    check_indices,
    check_square,
    det_bareiss,
    det_laplace,
    select_columns,
)
from nstepdet.identities import generalized_docagne, ratio_invariance, verify_cassini
from nstepdet.nstep_seq import CLASSIC, terms_range

M = IntMatrix.from_rows
SQUARE2 = M([[2, 1], [1, 1]])
SQUARE3 = M([[2, 0, 1], [1, 1, 0], [0, 1, 1]])
WIDE = M([[1, 2, 3], [4, 5, 6]])
EXT = extend_columns(SQUARE2, 2)  # 2 x 4: deletions of 2 from columns 1..3

# Entry point taking one index list, with the fixed arguments that make
# the list's bound 1..3 and its length 2 (select_columns: any length >= 1).
INDEX_TAKERS = {
    "select_columns": lambda idx: select_columns(WIDE, idx),
    "build_Q": lambda idx: build_Q(2, 2, idx),
    "minor_by_deletion": lambda idx: minor_by_deletion(EXT, idx),
    "sign_from_deleted": lambda idx: sign_from_deleted(2, 2, idx),
    "sign_from_kept": lambda idx: sign_from_kept(3, idx),
}

BAD_INDEX_LISTS = [
    *((name, "unsorted", (2, 1)) for name in INDEX_TAKERS),
    *((name, "duplicate", (1, 1)) for name in INDEX_TAKERS),
    *((name, "below 1", (0, 1)) for name in INDEX_TAKERS),
    # sign_from_kept has no upper bound; the others stop at column 3.
    *((name, "above bound", (1, 5)) for name in INDEX_TAKERS if name != "sign_from_kept"),
    ("minor_by_deletion", "last column", (1, 4)),
    ("sign_from_deleted", "last column", (1, 4)),
    ("select_columns", "wrong count", ()),
    *((name, "wrong count", (1,)) for name in INDEX_TAKERS if name != "select_columns"),
    *((name, "wrong count", (1, 2, 3)) for name in INDEX_TAKERS if name != "select_columns"),
    *((name, "bool index", (True, 2)) for name in INDEX_TAKERS),
    *((name, "float index", (1.0, 2)) for name in INDEX_TAKERS),
]


@pytest.mark.parametrize("name, rule, idx", BAD_INDEX_LISTS)
def test_bad_index_list_rejected(name, rule, idx):
    with pytest.raises(SelectionError):
        INDEX_TAKERS[name](idx)


@pytest.mark.parametrize("call, expected", [
    (lambda: select_columns(WIDE, (1, 3)), M([[1, 3], [4, 6]])),
    (lambda: select_columns(WIDE, iter([2])), M([[2], [5]])),
    (lambda: build_Q(2, 2, (2, 3)).rows, 2),
    (lambda: sign_from_kept(1, ()), 1),
    (lambda: sign_from_kept(3, (1, 10**9)), sign_from_kept(3, (1, 2))),
    (lambda: sign_from_deleted(2, 2, iter([1, 3])), sign_from_deleted(2, 2, (1, 3))),
], ids=["select", "select-iterator", "build-Q", "kept-empty", "kept-unbounded",
        "deleted-iterator"])
def test_good_index_list_accepted(call, expected):
    assert call() == expected


@pytest.mark.parametrize("call, error", [
    (lambda: build_P(2, True), "^parameter r must be an int, got True$"),
    (lambda: build_P(2.5, 1), "^parameter n must be an int, got 2.5$"),
    (lambda: verify_cassini(2, True), "^parameter r must be an int, got True$"),
    (lambda: verify_cassini(2.0, 1), "^parameter n must be an int, got 2.0$"),
    (lambda: check_prop1(SQUARE2, True, [1]), "^parameter r must be an int, got True$"),
    (lambda: minor_selection(2, 1, [True]), "^deleted column indices must be ints"),
    (lambda: minor_selection(2, 1, [1.0]), "^deleted column indices must be ints"),
    (lambda: terms_range(2.5, CLASSIC, 1, 3), "^parameter n must be an int, got 2.5$"),
    (lambda: terms_range(True, CLASSIC, -3, 3), "^parameter n must be an int, got True$"),
    (lambda: Prop1Cell(2, True), "^parameter r must be an int, got True$"),
    (lambda: Prop1Cell(2.0, 1), "^parameter n must be an int, got 2.0$"),
], ids=["build-P-bool", "build-P-float", "cassini-bool", "cassini-float",
        "prop1-bool", "selection-bool", "selection-float", "terms-range-float",
        "terms-range-bool", "cell-bool", "cell-float"])
def test_bool_or_float_is_not_an_int(call, error):
    with pytest.raises(ValueError, match=error):
        call()


@pytest.mark.parametrize("r, error", [
    (0, "^parameter r must be >= 1, got 0$"),
    (2.5, "^parameter r must be an int, got 2.5$"),
    (True, "^parameter r must be an int, got True$"),
], ids=["zero", "float", "bool"])
def test_cell_validates_r_when_made(r, error):
    # A cell validates r when it is made, before any matrix of a batch.
    with pytest.raises(ValueError, match=error):
        Prop1Cell(2, r)


@pytest.mark.parametrize("call", [
    lambda: SQUARE2.entry(True, 1),
    lambda: SQUARE2.entry(1, 2.0),
    lambda: SQUARE2.row(True),
    lambda: SQUARE2.row(1.0),
    lambda: SQUARE2.column(True),
    lambda: SQUARE2.column(2.0),
], ids=["entry-bool", "entry-float", "row-bool", "row-float", "column-bool",
        "column-float"])
def test_matrix_index_is_an_exact_int(call):
    with pytest.raises(RangeError, match=r"(True|1\.0|2\.0)"):
        call()


# Entry point taking matrices, called with the given ones.
MATRIX_TAKERS = {
    "det_bareiss": det_bareiss,
    "det_laplace": det_laplace,
    "extend_columns": lambda *m: extend_columns(*m, 1),
    "check_prop1": lambda *m: check_prop1(*m, 1, (1,)),
    "Prop1Cell": lambda *m: [Prop1Cell(2, 1)(a) for a in m],
    "generalized_docagne": lambda *m: generalized_docagne(*m, 1),
    "ratio_invariance": lambda *m: ratio_invariance(*m, 1),
}

BAD_MATRICES = [
    *((name, "non-square", (WIDE,)) for name in MATRIX_TAKERS if name != "ratio_invariance"),
    ("ratio_invariance", "non-square", (WIDE, SQUARE2)),
    ("ratio_invariance", "second non-square", (SQUARE2, WIDE)),
    ("Prop1Cell", "second non-square", (SQUARE2, WIDE)),
    ("ratio_invariance", "mixed orders", (SQUARE2, SQUARE3)),
    ("Prop1Cell", "mixed orders", (SQUARE2, SQUARE3)),
    ("Prop1Cell", "mixed orders later", (SQUARE2, SQUARE2, SQUARE3)),
]


@pytest.mark.parametrize("name, rule, mats", BAD_MATRICES)
def test_bad_matrix_rejected(name, rule, mats):
    with pytest.raises(DimensionError):
        MATRIX_TAKERS[name](*mats)


class TestCheckers:
    def test_square_returns_the_shared_order(self):
        assert check_square("f", SQUARE3) == 3
        assert check_square("f", SQUARE2, SQUARE2, SQUARE2) == 2

    def test_square_names_the_caller(self):
        with pytest.raises(DimensionError, match=r"^det_bareiss needs a square matrix, got 2x3$"):
            det_bareiss(WIDE)
        with pytest.raises(DimensionError, match="^ratio_invariance needs matrices of one order"):
            ratio_invariance(SQUARE2, SQUARE3, 1)

    def test_indices_return_a_tuple(self):
        assert check_indices("row", iter([1, 4, 9]), 1) == (1, 4, 9)
        assert check_indices("row", [], 1, 5) == ()
        assert check_indices("row", [-3, 5], -3, 5, count=2) == (-3, 5)

    @pytest.mark.parametrize("values, hi, count", [
        ([3, 2], None, None), ([2, 2], None, None), ([0, 2], None, None),
        ([1, 6], 5, None), ([1, 2], None, 3), ([], None, 1),
    ])
    def test_indices_reject(self, values, hi, count):
        with pytest.raises(SelectionError, match="^row "):
            check_indices("row", values, 1, hi, count)


def test_no_assert_statements_in_the_package():
    # Checks must still run under ``python -O``, which strips asserts.
    package = Path(__file__).resolve().parents[1] / "src" / "nstepdet"
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
