"""The mutation catalogue of ``tools/mutants.py`` stays anchored to the code:
each mutant's old text occurs exactly once in its file, so a refactor that
moves or rewrites it has to update the catalogue instead of silently
orphaning it. Running the mutants themselves is left to the script."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_minor_walk_mutants_are_catalogued():
    # The shared-prefix walk's pivot-swap sign and carried divisor show only
    # on inputs with zero pivots and on orders >= 3, and the root's sign for
    # moving the last column to the top only at even orders; keep each
    # mutated, with the zero subtree and the leaf's sign.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"minor-walk-swap-sign-kept", "minor-walk-divisor-one",
            "minor-walk-zero-subtree-one", "minor-walk-last-row-moved-unsigned",
            "minor-walk-leaf-unsigned"} <= names


def test_prop1_batch_mutants_are_catalogued():
    # The batch's signs are cross-checked, and every det Q comes from the
    # shared-prefix walk over P's bordered transpose: a negated border
    # flips every det Q and must fail. The one kept-complement helper
    # serves the batch and minor_selection: a deleted column left in the
    # kept tuple must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"batch-sign-check-removed", "prop1-detq-border-negated",
            "kept-complement-keeps-a-deleted-column"} <= names


def test_seq_decimal_mutants_are_catalogued():
    # `seq` text comes from exact decimal arithmetic: a precision that
    # rounds (the default 28 digits) and a sweep one term short must fail.
    # It is swept and written a block at a time: a block that writes its
    # n-term overlap again, and terms written as bare JSON numbers (the
    # quotes cut from the separator of `seq`'s terms array), must fail too.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"seq-decimal-default-precision", "seq-decimal-sweep-one-short",
            "seq-block-repeats-window", "decimal-writer-unquoted"} <= names


def test_report_path_mutants_are_catalogued():
    # A gen-docagne record's trial comes from the case the report copies
    # it into, and --out goes to the file it names: a record that drops
    # its trial and a report sent to stdout instead must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"case-trial-dropped", "out-file-ignored"} <= names


def test_record_block_mutants_are_catalogued():
    # Every report is written a block at a time by one joiner and tallied
    # per block: two blocks joined without their separator, and a passed
    # count that stops after the first block, must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"block-separator-dropped", "summary-passed-from-first-block"} <= names


def test_guard_mutants_are_catalogued():
    # A matrix is immutable, and a --matrix run counts its one trial toward
    # the record cap: a matrix that takes assignment and a cap that counts
    # no records for a --matrix run must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"matrix-assignment-allowed", "prop1-matrix-run-counts-no-trial"} <= names


def test_hankel_squares_mutants_are_catalogued():
    # term_fast's last step reduces the Hankel form of terms 1+d..2n-1+d:
    # a form that ignores the offset d, a hyperbolic pair step with
    # the wrong sign, a nested division without the previous pivot, and a
    # division whose remainder goes unchecked must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"hankel-parity-offset-dropped", "hankel-pair-sign-flipped",
            "hankel-prev-factor-dropped", "hankel-division-check-dropped"} <= names


def test_unused_flag_mutants_are_catalogued():
    # A flag given explicitly that the run does not read exits 2: a dropped
    # check, and each command's set of flags read taking in one it does not
    # read, must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"unused-flag-check-dropped", "prop1-matrix-reads-random-flags",
            "verify-family-reads-matrix-flags", "gen-docagne-matrix-reads-n",
            "gen-docagne-reads-convention", "bench-term-reads-det-flags",
            "bench-det-reads-term-flags"} <= names


def test_prop1_line_mutants_are_catalogued():
    # prop1 writes each record from text made once per cell: a trial stuck
    # at 1, a deletion's text taken from its neighbour, an inverted verdict
    # and CSV deleted columns not joined on spaces must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"prop1-line-trial-stuck-at-one", "prop1-line-neighbouring-deletion",
            "prop1-line-verdict-inverted", "prop1-csv-deleted-join-dropped"} <= names


def test_record_template_mutants_are_catalogued():
    # Every verify and bench record is one fill of the template of its
    # shape: a shape that leaves out the verdict or the str values the
    # template keeps, and holes filled with the sides or the ints in the
    # wrong order, must fail. A table spells a deleted list from each
    # item's str, which keeps a template's holes: its repr must fail. A
    # table counts an elided side's digits, not its minus sign.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"record-shape-without-verdict", "record-shape-without-str-values",
            "record-sides-swapped", "record-ints-reversed",
            "table-deleted-spelled-by-repr", "elided-side-counts-its-sign"} <= names


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once_in_src(name, path, old, new):
    assert path.startswith("src/") and old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    others = sum(p.read_text(encoding="utf-8").count(old)
                 for p in (ROOT / "src").rglob("*.py") if p != ROOT / path)
    assert others == 0


def test_cell_and_floor_mutants_are_catalogued():
    # A cell is the product rule's one batch path, and its call is the only
    # order check of a batch: a cell that takes a matrix of another order
    # must fail. A value below its floor exits 2 before --out is opened: a
    # sweep that checks r and the offsets only in its first record must
    # fail. A table elides a side by its digit count: a threshold that
    # counts the minus sign must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"prop1-cell-order-check-dropped", "early-floor-check-dropped",
            "elide-threshold-counts-its-sign"} <= names


def test_point_square_mutants_are_catalogued():
    # term_fast squares x^((k-1)//4) at 2n-1 points once its coefficients
    # are big: a plan entry off by one, the Hankel form of (k-1) mod 2 taken
    # for (k-1) mod 4, an interpolation whose remainder goes unchecked and
    # w's values at -1..-(n-1) without their odd part must fail, and so must
    # gen-docagne's right side, now from term_fast, at r - 1.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"points-plan-entry-off-by-one", "hankel-residue-taken-mod-two",
            "points-remainder-check-dropped", "points-negative-values-lose-odd-part",
            "gen-docagne-rhs-at-r-minus-one"} <= names


def test_walk_fold_mutants_are_catalogued():
    # A node with two columns left to keep does each child's last step in
    # place: a swap that keeps the sign, a step divided by the previous
    # pivot instead of the node's, a step whose remainder goes unchecked,
    # an all-zero pivot vector whose minors read 1, and kept columns paired
    # with the deletions in the wrong order must fail.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"walk-fold-swap-sign-kept", "walk-fold-divides-by-prev",
            "walk-fold-remainder-check-dropped", "walk-fold-zero-subtree-one",
            "kept-complements-not-reversed"} <= names


@pytest.fixture
def fake_runs(monkeypatch):
    """Replace the pytest runs with a log: the unmutated copy passes and
    every mutant is killed, without running anything."""
    runs = []

    def run_tests(mutant):
        runs.append(mutant)
        return (0 if mutant is None else 1), "", 0.0

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    return runs


def test_named_mutants_are_the_only_ones_judged(fake_runs, capsys):
    # Names are judged in catalogue order, after the unmutated copy.
    first, last = mutants.MUTANTS[0], mutants.MUTANTS[-1]
    assert mutants.main([last[0], first[0]]) == 0
    assert fake_runs == [None, first[1:], last[1:]]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out[1:]] == [
        ["killed", first[0]], ["killed", last[0]]]


def test_no_name_judges_the_whole_catalogue(fake_runs):
    assert mutants.main([]) == 0
    assert fake_runs == [None, *(m[1:] for m in mutants.MUTANTS)]


def test_unknown_name_exits_2_before_any_run(fake_runs, capsys):
    assert mutants.main([mutants.MUTANTS[0][0], "no-such-mutant"]) == 2
    assert fake_runs == []
    assert "no-such-mutant" in capsys.readouterr().err


def test_walk_order_mutants_are_catalogued():
    # The walk gives its values in combinations order of the kept columns
    # and the cell pairs them with its deletions by position: minors not
    # reversed onto the deletions, children that pop in reverse order, a
    # run of zeros one minor short and a count check that lets a short walk
    # through must fail. So must a --trials floor of 0 in the shared floor
    # table, and a record template made from a case whose keys leave the
    # CSV columns' order.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"walk-minors-not-reversed", "walk-children-pushed-in-order",
            "walk-zero-subtree-count-short", "walk-count-check-dropped",
            "shared-floor-trials-zero", "case-layout-guard-dropped"} <= names
