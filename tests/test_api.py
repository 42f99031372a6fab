"""The package surface: what ``midgb`` exports, and that its callers find it there."""

import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

import midgb
from midgb import EngineConfig, PolyRing, groebner_basis
from midgb.api import ENGINES
from midgb.errors import InvalidSettingError, MixedRingsError

ROOT = Path(__file__).resolve().parent.parent
INIT = Path(midgb.__file__)


def _bound_by_init() -> set:
    """Public names the statements of ``midgb/__init__.py`` bind."""
    names = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def _imported_from_midgb(path: Path) -> set:
    """Names a script imports from the top-level ``midgb`` package.

    Submodules (``from midgb import engine``) are modules, not surface names.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "midgb":
            names |= {a.name for a in node.names}
    return {n for n in names if not isinstance(getattr(midgb, n, None), ModuleType)}


def test_all_matches_what_init_binds():
    assert len(midgb.__all__) == len(set(midgb.__all__))
    assert set(midgb.__all__) == _bound_by_init()
    for name in midgb.__all__:
        assert hasattr(midgb, name), name


@pytest.mark.parametrize(
    "script",
    sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.stem}",
)
def test_callers_import_only_exported_names(script):
    assert _imported_from_midgb(script) <= set(midgb.__all__)


def test_readme_library_block_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Status.")


def test_every_engine_is_a_valid_config():
    ring = PolyRing(2, ["x"], "lex")
    for name in ENGINES:
        assert EngineConfig(ring, engine=name).engine == name
    with pytest.raises(ValueError):
        EngineConfig(ring, engine="nonesuch")


@pytest.mark.parametrize(
    "name,value",
    [
        ("max_rounds", 1.5),
        ("max_rounds", "2"),
        ("max_rounds", True),
        ("middle_solving", "no"),
        ("middle_solving", 1),
        ("adjoin_field_eqs", None),
        ("reverse_inputs", "yes"),
    ],
)
def test_malformed_config_values_raise_typed_error(name, value):
    with pytest.raises(InvalidSettingError):
        EngineConfig(PolyRing(2, ["x"], "lex"), **{name: value})


@pytest.mark.parametrize("ring", [None, 2, "GF(2)"])
def test_config_ring_that_is_not_a_ring_raises_typed_error(ring):
    for adjoin in (True, False):
        with pytest.raises(InvalidSettingError):
            EngineConfig(ring, adjoin_field_eqs=adjoin)


@pytest.mark.parametrize("value", [1, None, "x"])
def test_input_that_is_not_a_polynomial_raises_typed_error(value):
    ring = PolyRing(2, ["x"], "lex")
    with pytest.raises(MixedRingsError):
        groebner_basis([ring.variable(0), value], EngineConfig(ring))


def test_well_formed_config_values_are_kept():
    ring = PolyRing(2, ["x"], "lex")
    cfg = EngineConfig(
        ring, max_rounds=2, middle_solving=False, adjoin_field_eqs=False, reverse_inputs=True
    )
    assert (cfg.max_rounds, cfg.middle_solving, cfg.adjoin_field_eqs, cfg.reverse_inputs) == (
        2, False, False, True
    )
    assert EngineConfig(ring, max_rounds=None).max_rounds is None
