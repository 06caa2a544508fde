"""Sanity checks over examples/ — they must at least parse and expose
a ``main`` callable (full runs take minutes; CI smoke only compiles)."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
class TestExampleScripts:
    def test_parses(self, script):
        ast.parse(script.read_text())

    def test_has_module_docstring(self, script):
        tree = ast.parse(script.read_text())
        assert ast.get_docstring(tree), f"{script.name} missing docstring"

    def test_defines_main(self, script):
        tree = ast.parse(script.read_text())
        functions = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions

    def test_guarded_entry_point(self, script):
        assert 'if __name__ == "__main__":' in script.read_text()

    def test_imports_resolve(self, script):
        """Importing the module must not fail (no heavy work at import)."""
        name = f"example_{script.stem}"
        spec = importlib.util.spec_from_file_location(name, script)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
            assert callable(module.main)
        finally:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("readme", ["README.md", "examples/README.md"])
def test_readme_lists_every_example(readme):
    """Each README's examples table names exactly the scripts in examples/."""
    text = (EXAMPLES_DIR.parent / readme).read_text()
    listed = set(re.findall(r"^\| `(\w+\.py)` \|", text, re.MULTILINE))
    assert listed == {script.name for script in SCRIPTS}
