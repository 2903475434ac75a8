"""The enumeration of ``tools/mutate.py``; the tool's runs of the suite are made by hand."""

import ast
import importlib.util
from pathlib import Path

import pytest
from conftest import HANG_S

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def _tree_bytes():
    return {p: p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py"))}


def test_every_epr_site_parses_to_a_changed_module():
    before = _tree_bytes()
    text = (ROOT / "src" / "eprlink" / "epr.py").read_text(encoding="utf-8")
    sites = mutate.sites("epr.py")
    assert {s.id.split(":")[3] for s in sites} == {"binop", "compare", "const"}
    assert len({s.id for s in sites}) == len(sites)
    for site in sites:
        mutant = site.apply(text)
        assert ast.dump(ast.parse(mutant)) != ast.dump(ast.parse(text)), site.id
    assert _tree_bytes() == before
    with pytest.raises(SystemExit, match="outside the checkout"):
        mutate.main(["run", "--out", str(ROOT / "mutants"), "epr.py"])
    assert not (ROOT / "mutants").exists()


def test_a_raise_has_three_mutants():
    text = "def f(x):\n    if x:\n        raise ValidationError(f'bad {x}')\n"
    got = {s.id: s.apply(text).splitlines()[2].strip() for s in mutate.sites("f.py", text)}
    assert got == {
        "f.py:3:9:raise-delete:raise ValidationError(f'bad {x}')->pass": "pass",
        "f.py:3:31:raise-message:f'bad {x}'->'mutated message'": "raise ValidationError('mutated message')",
        "f.py:3:15:raise-class:ValidationError->" + mutate.SWAPS["ValidationError"]:
            f"raise {mutate.SWAPS['ValidationError']}(f'bad {{x}}')",
    }


def test_a_run_allows_the_watchdog_for_each_test():
    assert mutate.HANG_S == HANG_S
