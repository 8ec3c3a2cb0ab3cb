"""The public surface stays honest.

A public top-level function or class of the package is either used
inside the package or documented as library API in the README; anything
else is a helper that only tests call.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_or_documented():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "ncsos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            name = re.compile(rf"\b{node.name}\b")
            # the definition is the one mention every name has
            mentions = sum(len(name.findall(t)) for t in sources.values())
            if mentions == 1 and not name.search(readme):
                orphans.append(f"{path.stem}.{node.name}")
    assert not orphans, (
        "public names used nowhere in src/ncsos and not in README.md: "
        + ", ".join(orphans))
