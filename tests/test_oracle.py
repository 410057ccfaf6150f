import ast
import json
import pathlib
import subprocess
import sys

import pytest

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import ascent_walk
from coxabacus.errors import NotEnumerated
from coxabacus.oracle import (
    apply_generator_left,
    bruhat_leq_lifting,
    enumerate_quotient,
    family_membership,
    identity,
    is_minimal_coset_rep,
    normalize,
    oracle_descents,
)

# layer sizes of the BFS enumeration, frozen as a regression baseline
LAYER_SIZES = {
    (Family.C_OVER_C, 2): [1, 1, 1, 2, 2, 2, 3, 3, 3],
    (Family.C_OVER_C, 3): [1, 1, 1, 2, 2, 3, 4, 4, 5],
    (Family.B_OVER_B, 3): [1, 1, 1, 2, 2, 3, 4, 4, 5],
    (Family.B_OVER_D, 3): [1, 1, 1, 3, 3, 4, 6, 6, 8],
    (Family.D_OVER_D, 4): [1, 1, 1, 3, 3, 4, 7, 7, 9],
    (Family.C_OVER_C, 6): [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 17, 21],
    (Family.C_OVER_C, 8): [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22],
    (Family.B_OVER_B, 5): [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 11, 14, 16, 19],
    (Family.B_OVER_D, 5): [1, 1, 1, 2, 2, 4, 5, 6, 8, 10, 13, 15, 19, 22, 27],
    (Family.D_OVER_D, 6): [1, 1, 1, 2, 2, 4, 5, 6, 8, 10, 14, 16, 20, 24, 29],
}


def test_layer_sizes(tables):
    for key, expected in LAYER_SIZES.items():
        table = tables[key]
        assert [len(layer) for layer in table.by_length[: len(expected)]] == expected


def test_identity_is_layer_zero(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        assert table.by_length[0] == [identity(ctx)]
        assert table.length(identity(ctx)) == 0


def test_elements_are_minimal_reps(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            assert is_minimal_coset_rep(w)
            assert family_membership(w)


def test_length_raises_beyond_table():
    ctx = cx.make_context(Family.C_OVER_C, 2)
    table = enumerate_quotient(ctx, 3)
    deep = enumerate_quotient(ctx, 5).by_length[5][0]
    with pytest.raises(NotEnumerated):
        table.length(deep)


def test_oracle_descents_match_descent_class(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            if table.length(w) > 5:
                continue
            ds = oracle_descents(table, w)
            for g in ctx.generators():
                expected = cx.descent_class(w, g) == "descent"
                assert (g in ds) == expected


def test_lifting_reflexive_and_length_monotone(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 5]
        for x in elements:
            assert bruhat_leq_lifting(table, x, x)
            for w in elements:
                if bruhat_leq_lifting(table, x, w):
                    assert table.length(x) <= table.length(w)


def test_chain_from_identity(tables):
    # every element is above the identity
    for (fam, n), table in tables.items():
        e = identity(cx.make_context(fam, n))
        for w in table.elements():
            if table.length(w) <= 6:
                assert bruhat_leq_lifting(table, e, w)


def _bott_series(ctx, max_len):
    """Coefficients of the length generating function of the quotient:
    prod 1/(1-q^e) over the exponents e of the finite Weyl group, times
    (1+q^n) in B~/D."""
    n = ctx.n
    if ctx.family is Family.D_OVER_D:
        exponents = [*range(1, 2 * n - 2, 2), n - 1]
    else:
        exponents = range(1, 2 * n, 2)
    coeffs = [1] + [0] * max_len
    for e in exponents:
        for k in range(e, max_len + 1):
            coeffs[k] += coeffs[k - e]
    if ctx.family is Family.B_OVER_D:
        coeffs = [c + (coeffs[k - n] if k >= n else 0) for k, c in enumerate(coeffs)]
    return coeffs


def test_layer_sizes_match_bott_series(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        expected = _bott_series(ctx, table.max_len)
        assert [len(layer) for layer in table.by_length] == expected


def _level_layers(table):
    return [{cx.from_permutation(w).levels for w in layer} for layer in table.by_length]


def test_ascent_walk_matches_bfs(tables):
    for (fam, n), table in tables.items():
        walk = ascent_walk(cx.make_context(fam, n), table.max_len)
        assert [set(layer) for layer in walk] == _level_layers(table)


# the benchmark's five cases at the max lengths of its `enumerate` workload
@pytest.mark.parametrize(
    "family, n, max_len",
    [
        (Family.C_OVER_C, 2, 16),
        (Family.B_OVER_B, 3, 13),
        (Family.B_OVER_D, 3, 12),
        (Family.D_OVER_D, 4, 11),
        (Family.C_OVER_C, 8, 10),
    ],
)
def test_ascent_walk_matches_bfs_at_bench_lengths(family, n, max_len):
    ctx = cx.make_context(family, n)
    walk = ascent_walk(ctx, max_len)
    assert [set(layer) for layer in walk] == _level_layers(
        enumerate_quotient(ctx, max_len)
    )


PRODUCTION = sorted(
    path.stem
    for path in pathlib.Path(cx.__file__).parent.glob("*.py")
    if path.name not in ("oracle.py", "__init__.py")
)


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_modules_do_not_import_the_checks(module):
    """The oracles check the engine; the engine never calls them, not even
    through a lazy import."""
    path = pathlib.Path(cx.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert "oracle" not in imported


# a fresh interpreter: imports the CLI, then touches the lazy oracle names
FOOTPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import coxabacus
report = {"bare": sorted(m for m in sys.modules if m.startswith("coxabacus"))}
import coxabacus.cli
checks = ("__future__", "dataclasses", "inspect", "coxabacus.oracle")
report["with_cli"] = [m for m in checks if m in sys.modules]
report["package"] = sorted(m for m in sys.modules if m.startswith("coxabacus"))
report["resolved_in"] = coxabacus.length_from_abacus.__module__
report["oracle_loaded"] = "coxabacus.oracle" in sys.modules
report["with_oracle"] = [m for m in checks if m in sys.modules]
names = {}
exec("from coxabacus import *", names)
report["unbound"] = sorted(set(coxabacus.__all__) - set(names))
try:
    coxabacus.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_the_cli_imports_no_check_code():
    """The package root alone loads no submodule, and a command's import
    loads the engine modules and no others, leaving out oracle.py and the
    dataclasses machinery; the oracle names of the package still resolve,
    on first use, and load oracle.py without dataclasses."""
    src = str(pathlib.Path(cx.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {
        "bare": ["coxabacus"],
        "with_cli": [],
        "package": [
            "coxabacus", "coxabacus.abacus", "coxabacus.cli", "coxabacus.context",
            "coxabacus.core", "coxabacus.errors",
        ],
        "resolved_in": "coxabacus.oracle",
        "oracle_loaded": True,
        "with_oracle": ["coxabacus.oracle"],
        "unbound": [],
        "unknown": "module 'coxabacus' has no attribute 'no_such_name'",
    }


def test_each_public_name_comes_from_its_home_module():
    """The package root's table names the module that defines each public
    name, and dir() of the package lists every one of them."""
    homes = {name: getattr(cx, name).__module__ for name in cx.__all__}
    assert homes == {name: f"coxabacus.{module}" for name, module in cx._HOME.items()}
    assert set(cx.__all__) <= set(dir(cx))


def test_the_oracle_imports_only_names_the_engine_runs():
    """A name that oracle.py imports from an engine module is one that an
    engine module uses too; one that only the oracle uses belongs in
    oracle.py.  The typed errors are exempt: they are the public error
    hierarchy, raised or not."""
    package = pathlib.Path(cx.__file__).parent
    used = set()
    for module in PRODUCTION:
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    oracle_only = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse((package / "oracle.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level and node.module != "errors"
        for alias in node.names
        if alias.name not in used
    ]
    assert oracle_only == []
