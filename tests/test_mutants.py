"""The mutation harness's table still fits the code.

tests/mutants.py runs each mutant against the tests it names, which takes
minutes, so it stays out of this suite.  This reads its table and checks
what a refactor could silently break: the ids are unique, each mutant's
old text occurs exactly once in its file under src/, the file still
parses with the mutant applied, and each named test is still defined
where the table says.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "tests" / "mutants.py"
TEST_ID = re.compile(r"^(tests/test_\w+\.py)::(test_\w+)(?:\[([^\]]+)\])?$")


def _table():
    spec = importlib.util.spec_from_file_location("mutants", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_mutant_ids_are_unique():
    ids = [m.id for m in _table()]
    assert ids and len(ids) == len(set(ids))


def test_each_mutant_changes_text_that_occurs_once_in_src():
    for m in _table():
        assert m.path.startswith("src/fqidtest/") and m.old != m.new, m.id
        assert (ROOT / m.path).read_text().count(m.old) == 1, f"{m.id} is stale"


def test_each_mutant_still_parses():
    # a mutant that only breaks the syntax fails every test it names, so it
    # would count as killed without showing that any test reads the spot
    for m in _table():
        text = (ROOT / m.path).read_text()
        ast.parse(text.replace(m.old, m.new, 1), filename=m.path)


def test_each_named_test_exists():
    defined = {}
    for m in _table():
        assert m.tests, m.id
        for test_id in m.tests:
            match = TEST_ID.match(test_id)
            assert match, f"{m.id}: {test_id!r} is not a test id"
            path, name, param = match.groups()
            if path not in defined:
                text = (ROOT / path).read_text()
                tree = ast.parse(text)
                defined[path] = text, {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            text, names = defined[path]
            assert name in names, f"{m.id}: {path} defines no {name}"
            # a parameter id must at least be spelled in the file
            assert param is None or param in text, f"{m.id}: no case {param!r} in {path}"
