"""Mutation catalogue: every mutant below must make the tier-1 tests fail.

Each mutant is one exact text replacement in one file under ``src/``. For
each, the script copies the repository to a temporary directory, applies
the replacement there (the old text must occur exactly once), runs
``python -m pytest -x -q tests/`` in the copy (without
``tests/test_mutants.py``, which checks the catalogue itself) and requires
a nonzero exit. A mutant the tests let through is a gap in the tests:
fix the tests, never loosen or drop the mutant. A refactor that moves or
rewrites an old text updates the catalogue (``tests/test_mutants.py``
fails until it does).

Usage (stdlib only, run from anywhere): ``python tools/mutants.py [NAME ...]``.
With no name every mutant is judged; with names, only those, in catalogue
order. A name not in the catalogue exits 2 before anything runs.

The unmutated copy is run first and must pass, or no mutant is judged
(exit 2). Then one line per mutant names the first test that failed; the
script exits 1 if any mutant survives. A run that times out counts as
surviving. A killed mutant takes 2-20 s under ``-x``, the unmutated run
about half a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

# (name, file relative to the repository root, exact old text, new text)
MUTANTS = (
    ("vajda-corner-off-by-one", "src/nstepdet/identities.py",
     "+ (q - 1) * (i == n))",
     "+ (q - 1) * (i == n) + (i == k == n))"),
    ("sweep-total-off-by-one", "src/nstepdet/nstep_seq.py",
     "total += total - values[j]",
     "total += total - values[j + 1]"),
    ("build-p-without-minus-one", "src/nstepdet/construction.py",
     "[1] * n + [-1] + [0] * r",
     "[1] * n + [0] + [0] * r"),
    ("batch-sign-check-removed", "src/nstepdet/construction.py",
     "_checked_sign(n, r, deleted, kept), det_qs[deleted])",
     "_deleted_sign(n, r, deleted), det_qs[deleted])"),
    ("kept-complement-keeps-a-deleted-column", "src/nstepdet/construction.py",
     "gone = set(deleted)",
     "gone = set(deleted[1:])"),
    ("prop1-detq-border-negated", "src/nstepdet/construction.py",
     "[0] * (n + r - 1) + [1]]",
     "[0] * (n + r - 1) + [-1]]"),
    ("prop1-grid-cap-removed", "src/nstepdet/cli.py",
     '_check_cap(due, "records", "--n, --r or --trials")',
     "pass"),
    ("prop1-matrix-run-counts-no-trial", "src/nstepdet/cli.py",
     "trials = 1",
     "trials = 0"),
    ("matrix-entry-type-check-dropped", "src/nstepdet/exact_linalg.py",
     "if type(e) is not int:",
     "if False:"),
    ("matrix-side-type-check-dropped", "src/nstepdet/exact_linalg.py",
     "type(rows) is type(cols) is int and ",
     ""),
    ("matrix-entries-tuple-check-dropped", "src/nstepdet/exact_linalg.py",
     "if type(entries) is not tuple:",
     "if False:"),
    ("matrix-assignment-allowed", "src/nstepdet/exact_linalg.py",
     'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)"),
    ("custom-seed-int-check-dropped", "src/nstepdet/nstep_seq.py",
     "if type(s) is not int:",
     "if False:"),
    ("parameter-int-check-dropped", "src/nstepdet/exact_linalg.py",
     "if type(value) is not int:",
     "if False:"),
    ("index-list-int-check-dropped", "src/nstepdet/exact_linalg.py",
     "if any(type(v) is not int for v in values):",
     "if False:"),
    ("term-index-int-check-dropped", "src/nstepdet/nstep_seq.py",
     "if any(type(k) is not int for k in indices):",
     "if False:"),
    ("matrix-index-int-check-dropped", "src/nstepdet/exact_linalg.py",
     "return type(i) is int and 1 <= i <= hi",
     "return 1 <= i <= hi"),
    ("minor-walk-swap-sign-kept", "src/nstepdet/construction.py",
     "for u in vecs], -sign",
     "for u in vecs], sign"),
    ("minor-walk-divisor-one", "src/nstepdet/construction.py",
     "vecs[pos], pivot[0], sign))",
     "vecs[pos], 1, sign))"),
    ("minor-walk-zero-subtree-one", "src/nstepdet/construction.py",
     "dets[kept + rest] = 0",
     "dets[kept + rest] = 1"),
    ("minor-walk-last-row-moved-unsigned", "src/nstepdet/construction.py",
     "last, 1, (-1) ** (n - 1))]",
     "last, 1, 1)]"),
    ("minor-walk-leaf-unsigned", "src/nstepdet/construction.py",
     "dets[kept + (col,)] = sign * u[0]",
     "dets[kept + (col,)] = u[0]"),
    ("walk-fold-swap-sign-kept", "src/nstepdet/construction.py",
     "a, b, s = b, 0, -sign",
     "a, b, s = b, 0, sign"),
    ("walk-fold-divides-by-prev", "src/nstepdet/construction.py",
     "divmod(x * a - f * b, p)",
     "divmod(x * a - f * b, prev)"),
    ("walk-fold-zero-subtree-one", "src/nstepdet/construction.py",
     "dets[prefix + (col,)] = 0",
     "dets[prefix + (col,)] = 1"),
    ("walk-fold-remainder-check-dropped", "src/nstepdet/construction.py",
     "if rem:\n                        raise",
     "if False:\n                        raise"),
    ("kept-complements-not-reversed", "src/nstepdet/construction.py",
     "kepts = reversed(tuple(combinations(range(1, n + r), n - 1)))",
     "kepts = tuple(combinations(range(1, n + r), n - 1))"),
    ("seq-decimal-default-precision", "src/nstepdet/cli.py",
     "prec=decimal.MAX_PREC,",
     "prec=28,"),
    ("seq-decimal-sweep-one-short", "src/nstepdet/cli.py",
     "count - done))",
     "count - done - 1))"),
    ("seq-block-repeats-window", "src/nstepdet/cli.py",
     "yield values[n:]",
     "yield values"),
    ("decimal-writer-unquoted", "src/nstepdet/cli.py",
     r"""'",\n    "'""",
     r"""',\n    '"""),
    ("case-trial-dropped", "src/nstepdet/cli.py",
     "else rec.case._replace(trial=trial)",
     "else rec.case"),
    ("out-file-ignored", "src/nstepdet/cli.py",
     'open(out, "w", encoding="utf-8")',
     "nullcontext(sys.stdout)"),
    ("block-separator-dropped", "src/nstepdet/cli.py",
     "opening = sep",
     'opening = ""'),
    ("summary-passed-from-first-block", "src/nstepdet/cli.py",
     'summary["passed"] += sum(',
     'summary["passed"] = summary["passed"] or sum('),
    ("hankel-parity-offset-dropped", "src/nstepdet/nstep_seq.py",
     "sweep(seeds, n - 1 + d)[d:]",
     "sweep(seeds, n - 1 + d)[:2 * n - 1]"),
    ("hankel-pair-sign-flipped", "src/nstepdet/nstep_seq.py",
     "list(map(add, form[i], form[j]))",
     "[a - b for a, b in zip(form[i], form[j])]"),
    ("hankel-prev-factor-dropped", "src/nstepdet/nstep_seq.py",
     "dot * dot + prev * value",
     "dot * dot + value"),
    ("hankel-division-check-dropped", "src/nstepdet/nstep_seq.py",
     'raise ArithmeticError("inexact division in term_fast")',
     "pass"),
    ("unused-flag-check-dropped", "src/nstepdet/cli.py",
     "if unused:",
     "if False:"),
    ("prop1-matrix-reads-random-flags", "src/nstepdet/cli.py",
     "set() if base_matrix is not None else set(_PROP1_DEFAULTS)",
     "set(_PROP1_DEFAULTS)"),
    ("verify-family-reads-matrix-flags", "src/nstepdet/cli.py",
     'return {"n", "convention", *FAMILIES[kind].axes}',
     'return {"n", "convention", "trials", "bound", "seed", *FAMILIES[kind].axes}'),
    ("gen-docagne-matrix-reads-n", "src/nstepdet/cli.py",
     "return set() if base_matrix is not None else {",
     'return {"n", "trials", "bound", "seed"} if base_matrix is not None else {'),
    ("gen-docagne-reads-convention", "src/nstepdet/cli.py",
     'else {"n", "trials", "bound", "seed"}',
     'else {"n", "convention", "trials", "bound", "seed"}'),
    ("bench-term-reads-det-flags", "src/nstepdet/cli.py",
     '{"n", "k", "convention"} if term_task',
     '{"n", "k", "convention", "order", "trials", "bound", "seed"} if term_task'),
    ("bench-det-reads-term-flags", "src/nstepdet/cli.py",
     'else {"order", "trials", "bound", "seed"})',
     'else {"order", "trials", "bound", "seed", "n", "k", "convention"})'),
    ("prop1-line-trial-stuck-at-one", "src/nstepdet/cli.py",
     'start = f"{head}{trial}"',
     'start = f"{head}1"'),
    ("prop1-line-neighbouring-deletion", "src/nstepdet/cli.py",
     "zip(batch, deleted_texts)",
     "zip(batch, deleted_texts[1:] + deleted_texts[:1])"),
    ("prop1-line-verdict-inverted", "src/nstepdet/cli.py",
     "{tails[passed]}",
     "{tails[not passed]}"),
    ("prop1-csv-deleted-join-dropped", "src/nstepdet/cli.py",
     'row["deleted"] = " ".join(map(str, row["deleted"]))',
     'row["deleted"] = str(row["deleted"])'),
    ("table-deleted-spelled-by-repr", "src/nstepdet/cli.py",
     "', '.join(map(str, case['deleted']))",
     "', '.join(map(repr, case['deleted']))"),
    ("record-shape-without-verdict", "src/nstepdet/cli.py",
     "shape, ints = [passed, *case], []",
     "shape, ints = [*case], []"),
    ("record-shape-without-str-values", "src/nstepdet/cli.py",
     "shape.append(value)",
     "shape.append(None)"),
    ("record-sides-swapped", "src/nstepdet/cli.py",
     "(*ints, spell_side(lhs), spell_side(rhs))",
     "(*ints, spell_side(rhs), spell_side(lhs))"),
    ("record-ints-reversed", "src/nstepdet/cli.py",
     "fill(*ints, ",
     "fill(*ints[::-1], "),
    ("elided-side-counts-its-sign", "src/nstepdet/cli.py",
     "...({digits} digits)",
     "...({len(value)} digits)"),
    ("elide-threshold-counts-its-sign", "src/nstepdet/cli.py",
     "value if digits <= 24 else",
     "value if len(value) <= 24 else"),
    ("prop1-cell-order-check-dropped", "src/nstepdet/construction.py",
     'check_square("Prop1Cell", a) != n:',
     'check_square("Prop1Cell", a) < 0:'),
    ("early-floor-check-dropped", "src/nstepdet/cli.py",
     "check_at_least(1, r=r, **offsets)",
     "pass"),
    ("points-plan-entry-off-by-one", "src/nstepdet/nstep_seq.py",
     "return powers, rows, den",
     "return powers, ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], den"),
    ("points-odd-shift-dropped", "src/nstepdet/nstep_seq.py",
     "if u & 1:",
     "if False:"),
    ("points-remainder-check-dropped", "src/nstepdet/nstep_seq.py",
     "_exact_div(sum(map(mul, row, squares)), den)",
     "sum(map(mul, row, squares)) // den"),
    ("points-infinity-takes-a-finite-value", "src/nstepdet/nstep_seq.py",
     "values[-1] = w[-1]",
     "values[-1] = w[-2]"),
    ("gen-docagne-rhs-at-r-minus-one", "src/nstepdet/identities.py",
     "term_fast(n, PAPER_POWERS, r)",
     "term_fast(n, PAPER_POWERS, r - 1)"),
)

_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")


def run_tests(mutant: tuple[str, str, str] | None) -> tuple[int | None, str, float]:
    """(pytest exit code, or None on timeout; first failing test; seconds)
    on a temporary copy of the tree with ``mutant`` (path, old, new) applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if mutant is not None:
            path, old, new = mutant
            target = tree / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{path}: old text must occur exactly once: {old!r}")
            target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        try:
            # The catalogue's own test would fail on every mutant, whose old
            # text is gone from the copy, and so hide what the other tests see.
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore=tests/test_mutants.py", "tests/"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - started
        failed = next((line.split()[1] for line in proc.stdout.splitlines()
                       if line.startswith(("FAILED ", "ERROR "))), "")
        return proc.returncode, failed, time.perf_counter() - started


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m[0] for m in MUTANTS})
    if unknown:
        print(f"not in the catalogue: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    # A copy that already fails would make every mutant look killed.
    code, failed, seconds = run_tests(None)
    if code != 0:
        why = "timed out" if code is None else f"exit {code} {failed}".rstrip()
        print(f"the unmutated copy does not pass ({why}); no mutant can be judged",
              file=sys.stderr)
        return 2
    print(f"passed   unmutated tree ({seconds:.1f} s)", flush=True)
    survivors = []
    for name, path, old, new in chosen:
        code, failed, seconds = run_tests((path, old, new))
        # A hang is not a clean kill: a timeout counts as surviving.
        killed = code not in (0, None)
        print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({seconds:.1f} s)"
              f"{'  by ' + failed if failed else ''}", flush=True)
        if not killed:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
