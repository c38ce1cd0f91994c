"""The package's public surface: every public function, class and method has
a user outside the unit tests, so test-only API cannot grow back."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "htcinfomax"


def _public_definitions(tree: ast.Module):
    """Every public module-level function and class, and every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_every_public_name_in_the_package_has_a_user():
    # users: the rest of src/ (outside the name's own definition), the
    # benchmark, and the acceptance gates
    others = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    others.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources = {p: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    unused, seen = [], set()
    for path, text in sources.items():
        lines = text.splitlines()
        for node in _public_definitions(ast.parse(text)):
            if node.name.startswith("_"):
                continue
            seen.add(node.name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            texts = [own] + [t for p, t in sources.items() if p != path] + others
            if not any(re.search(rf"\b{node.name}\b", t) for t in texts):
                unused.append(f"{path.name}: {node.name}")
    assert {"Model", "iter_predictions", "from_dict", "named_params"} <= seen
    assert unused == []
