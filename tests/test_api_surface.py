"""The public surface stays honest.

A public top-level function or class of the package is either used
inside the package or documented as library API in the README; anything
else is a helper that only tests call.  A public method or property is
read somewhere in the repository's code or named in the README.  Backend word formats live in
``groupalg``: no other module names a non-finite backend.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NON_FINITE = {"FREE", "FREE_ABELIAN", "FREE_STAR"}


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


def test_every_public_method_is_used_or_documented():
    # a method or property counts as used where some file of src/, tests/
    # or bench/ reads it as an attribute, or where README names it
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = []
    for path in sorted((ROOT / "src" / "ncsos").glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            orphans += [f"{path.stem}.{cls.name}.{node.name}"
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")
                        and node.name not in read
                        and not re.search(rf"\b{node.name}\b", readme)]
    assert not orphans, (
        "public methods read nowhere in src/, tests/ or bench/ and not in "
        "README.md: " + ", ".join(orphans))


def test_environment_variables_match_the_readme():
    # every NCSOS_* name the package reads is documented in README's
    # Environment section, and that section documents no other
    read = {node.value
            for path in sorted((ROOT / "src" / "ncsos").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"NCSOS_\w+", node.value)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    assert read == set(re.findall(r"\bNCSOS_\w+", section))


def _kind_comparisons(tree):
    """Operand lists of every comparison that has a ``kind`` name or
    ``.kind`` attribute among its operands."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "kind" or
                   isinstance(o, ast.Name) and o.id == "kind"
                   for o in operands):
                yield node.lineno, operands


def test_backend_knowledge_stays_in_groupalg():
    leaks = []
    for path in sorted((ROOT / "src" / "ncsos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "groupalg":
            leaks += [f"groupalg:{line} compares a kind"
                      for line, _ in _kind_comparisons(tree)]
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                leaks += [f"{path.stem}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name in NON_FINITE]
            elif isinstance(node, ast.Constant) and node.value in \
                    {"free", "free_abelian", "free_star", "finite"}:
                leaks += [f"{path.stem}:{node.lineno} names {node.value!r}"]
        for line, operands in _kind_comparisons(tree):
            spec_kind = any(isinstance(o, ast.Attribute) and o.attr == "kind"
                            for o in operands)
            finite = any(isinstance(o, ast.Name) and o.id == "FINITE"
                         for o in operands)
            if spec_kind and not finite:
                leaks.append(f"{path.stem}:{line} compares .kind")
    assert not leaks, "backend knowledge outside its classes: " + \
        ", ".join(leaks)


def test_every_import_is_used():
    # a name counts as used where it is read, or where it appears as a
    # string constant (``cli._ARTIFACTS`` looks its checks up by name)
    unused = []
    for path in sorted((ROOT / "src" / "ncsos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0],
                                 node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                used.add(node.value)
        unused += [f"{path.stem}:{line} imports {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
