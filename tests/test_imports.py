"""Every imported name is read: a stdlib `ast` scan of src/, tests/ and demos/.

A name counts as read when the module loads it anywhere (a bare name or
the root of an attribute chain), lists it in `__all__`, or is a package
`__init__.py`, whose imports are its re-exports.

Also: a fresh interpreter that imports the CLI loads no module the
library does not need (fractions pulls in decimal, ~3 ms of start-up)
and builds no trial-division runs (the sieve and its run products, ~2 ms,
wait for the first `factor` call, and a small n builds only a small
table).  Only the search modules, bsgs.py and parallel.py, name the
search's plan and giant table, and only catalog.py and factoring.py
derive a primitive root or a subgroup.  The CLI calls `factor` only for a
curve's order - 1 and for its `factor` command.  `src/` imports `hashlib`
(which loads OpenSSL, ~3.6 MB) only as the last fallback of
`derive_seed`, for a build without the built-in SHA-256 module, and the
CLI loads `csv` only to print `--format csv`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")

# parallel.py never reads these two: it imports them so that the
# benchmark's tracer (bench/tracing.py) can wrap them as attributes of
# subgroupdlp.parallel, which is how it times a campaign's searches.
KEPT_FOR_TRACING = {
    ("src/subgroupdlp/parallel.py", "giant_encodings"),
    ("src/subgroupdlp/parallel.py", "solve_in_subgroup"),
}


def _bound_names(tree):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _read_names(tree):
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return read


def _unread_imports(source, rel):
    """'file:line: name' for each import of `source` (at path `rel`) that
    is never read."""
    if rel.endswith("__init__.py"):
        return []
    tree = ast.parse(source, filename=rel)
    read = _read_names(tree)
    return ["%s:%d: %s" % (rel, line, name)
            for line, name in _bound_names(tree)
            if name not in read and (rel, name) not in KEPT_FOR_TRACING]


def test_every_imported_name_is_read():
    files = sorted(f for top in SCANNED for f in (ROOT / top).rglob("*.py"))
    assert files
    unread = [hit for f in files for hit in
              _unread_imports(f.read_text(), f.relative_to(ROOT).as_posix())]
    assert unread == []


def test_the_scan_sees_an_unread_import():
    source = ("import os.path\nfrom sys import argv, path as p, version\n"
              "__all__ = ['argv']\n\n\ndef f():\n    return os.sep\n")
    assert _unread_imports(source, "m.py") == ["m.py:2: p", "m.py:2: version"]
    assert _unread_imports(source, "pkg/__init__.py") == []


# The search owns its split and its giant table: no other module of src/
# may name these, so no caller can rebuild a plan or hand a search a table.
SEARCH_OWNED = {"plan", "kept_giant", "giant_encodings", "_baby_sweep"}
SEARCH_OWNERS = {"src/subgroupdlp/bsgs.py", "src/subgroupdlp/parallel.py"}

# A search target's record derives its primitive root and subgroups: no
# module of src/ but the record's and factoring's may name the derivation.
RECORD_OWNED = {"subgroup_generator", "find_primitive_root"}
RECORD_OWNERS = {"src/subgroupdlp/catalog.py",
                 "src/subgroupdlp/factoring.py"}


def _owned_names(source, rel, owned, modules):
    """'file:line: name' for each name of `owned` that `source` imports
    (under any alias), loads or reads off one of `modules`."""
    tree = ast.parse(source, filename=rel)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            hits.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            hits.append((node.lineno, node.attr))
    return sorted({"%s:%d: %s" % (rel, line, name) for line, name in hits
                   if name in owned})


def _named_outside(owners, owned, modules):
    """Each name of `owned` named by a module of src/ outside `owners`."""
    files = sorted((ROOT / "src").rglob("*.py"))
    rels = [f.relative_to(ROOT).as_posix() for f in files]
    assert owners <= set(rels)
    return [hit for f, rel in zip(files, rels) if rel not in owners
            for hit in _owned_names(f.read_text(), rel, owned, modules)]


def test_only_the_search_names_its_plan_and_table():
    assert _named_outside(SEARCH_OWNERS, SEARCH_OWNED,
                          ("bsgs", "parallel")) == []


def test_only_the_record_derives_subgroups():
    assert _named_outside(RECORD_OWNERS, RECORD_OWNED,
                          ("catalog", "factoring")) == []


def test_the_ownership_scan_sees_a_plan_named_outside_the_search():
    source = ("from .bsgs import kept_giant, plan as split\n"
              "from . import bsgs\n\n\ndef f(result):\n"
              "    return bsgs._baby_sweep, result.plan.baby, kept_giant\n")
    assert _owned_names(source, "m.py", SEARCH_OWNED,
                        ("bsgs", "parallel")) == [
        "m.py:1: kept_giant", "m.py:1: plan", "m.py:6: _baby_sweep",
        "m.py:6: kept_giant"]
    source = ("from .factoring import factor, subgroup_generator as sg\n"
              "from . import factoring\n\n\ndef f(p):\n"
              "    return factoring.find_primitive_root(p, factor(p - 1))\n")
    assert _owned_names(source, "m.py", RECORD_OWNED,
                        ("catalog", "factoring")) == [
        "m.py:1: subgroup_generator", "m.py:6: find_primitive_root"]


# Every target's factors come from its record: the CLI factors only the n
# of its `factor` command.
CLI_FACTORERS = {"cmd_factor"}


def _factoring_outside(source, rel, allowed):
    """'file:line: function' for each use of `factor` (a bare name or
    factoring.factor) that `source` makes outside the top-level functions
    named in `allowed`; module-level code counts as '<module>'."""
    tree = ast.parse(source, filename=rel)
    hits = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        if where in allowed and isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "factor")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "factor"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "factoring")):
                hits.append("%s:%d: %s" % (rel, node.lineno, where))
    return hits


def test_the_cli_factors_only_the_n_of_its_factor_command():
    rel = "src/subgroupdlp/cli.py"
    assert _factoring_outside((ROOT / rel).read_text(), rel,
                              CLI_FACTORERS) == []


def test_the_factoring_scan_sees_a_factor_call_in_another_function():
    source = ("from .factoring import factor\nfrom . import factoring\n\n\n"
              "def cmd_factor(n):\n    return factor(n)\n\n\n"
              "def _find_curve(p):\n    return factor(p - 1)\n\n\n"
              "def cmd_solve(p):\n    return factoring.factor(p - 1)\n\n\n"
              "BUDGETS = [factor]\n")
    assert _factoring_outside(source, "m.py", CLI_FACTORERS) == [
        "m.py:10: _find_curve", "m.py:14: cmd_solve", "m.py:17: <module>"]


def _imports_hashlib(node):
    return ((isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "hashlib" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "hashlib"))


def _hashlib_imports(source, rel):
    """'file:line: where' for each import of hashlib in `source` other than
    `derive_seed`'s last fallback: a statement of an `except ImportError:`
    handler that tries nothing further; `where` is the top-level function,
    or '<module>'."""
    tree = ast.parse(source, filename=rel)
    fallbacks = set()
    for top in tree.body:
        if getattr(top, "name", None) != "derive_seed":
            continue
        for handler in ast.walk(top):
            if (isinstance(handler, ast.ExceptHandler)
                    and isinstance(handler.type, ast.Name)
                    and handler.type.id == "ImportError"
                    and not any(isinstance(n, ast.Try)
                                for n in ast.walk(handler))):
                fallbacks.update(id(stmt) for stmt in handler.body)
    return ["%s:%d: %s" % (rel, node.lineno, getattr(top, "name", "<module>"))
            for top in tree.body for node in ast.walk(top)
            if _imports_hashlib(node) and id(node) not in fallbacks]


def test_only_derive_seeds_last_fallback_imports_hashlib():
    files = sorted((ROOT / "src").rglob("*.py"))
    hits = [hit for f in files for hit in
            _hashlib_imports(f.read_text(), f.relative_to(ROOT).as_posix())]
    assert hits == []


def test_the_hashlib_scan_sees_an_import_outside_the_last_fallback():
    source = ("import hashlib.x\n\n\n"
              "def derive_seed(text):\n"
              "    try:\n        from hashlib import sha256\n"
              "    except ImportError:\n"
              "        try:\n            from _sha2 import sha256\n"
              "        except ImportError:\n"
              "            from hashlib import sha256\n"
              "    return sha256(text).digest()\n\n\n"
              "def digest(text):\n    import hashlib as h\n"
              "    return h.sha256(text).digest()\n")
    assert _hashlib_imports(source, "m.py") == [
        "m.py:1: <module>", "m.py:6: derive_seed", "m.py:16: digest"]


def test_the_cli_loads_no_csv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, subgroupdlp.cli; print('csv' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_the_cli_loads_neither_fractions_nor_decimal():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, subgroupdlp.cli; print(sorted(m for m in "
             "('fractions', 'decimal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_small_d_keycheck_builds_no_full_trial_division_table():
    # factoring d = 3 scans the primes below 2^1, not the 6,542 below 2^16
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import contextlib, io, subgroupdlp.cli as cli, "
             "subgroupdlp.factoring as f\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    cli.main(['keycheck', '--curve', 'P-256', '--x', '5', "
             "'--d', '3'])\n"
             "built = f._trial_runs.cache_info().currsize\n"
             "f._trial_runs(f.TRIAL_BOUND)\n"
             "print(built, f._trial_runs.cache_info().hits)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "0"]  # one small table, and then a miss


def test_the_cli_builds_no_trial_division_runs_at_import():
    # one-shot commands that never factor (audit, prob-table) must not
    # pay for the runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import subgroupdlp.cli, subgroupdlp.factoring as f; "
             "print(f._trial_runs.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
