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
    # on inputs with zero pivots and on orders >= 3; keep both mutated.
    names = {m[0] for m in mutants.MUTANTS}
    assert {"minor-walk-swap-sign-kept", "minor-walk-divisor-one"} <= names


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once_in_src(name, path, old, new):
    assert path.startswith("src/") and old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    others = sum(p.read_text(encoding="utf-8").count(old)
                 for p in (ROOT / "src").rglob("*.py") if p != ROOT / path)
    assert others == 0
