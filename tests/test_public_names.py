"""Every public name of the library is reached from outside its definition.

The scan reads `src/valcuts/*.py` with `ast` and lists each public
module-level function and each public method or property of a module-level
class.  A name counts as used where another place names it: a name, an
attribute, an import or a string in `src/` (beside its own definition and
the re-exports of `__init__.py`) or in `perfbench/`, a word inside
backticks in `README.md`, or a word of the CI workflow.  A method or a
property counts as used only where it is read as an attribute (`x.name`)
or named in a string.  Public API kept on purpose is listed in `KEPT`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "valcuts"

# public API with no caller in the library, kept for its readers
KEPT = {
    "formlang.value_set",        # the compiled value set of a definition
    "segment.invariance_group",  # the invariance group of a cut
}

# a word of text, hyphens kept, so `coarse-ring-as` names no `ring`
WORD = re.compile(r"[A-Za-z_][\w-]*(?:\.[A-Za-z_][\w-]*)*")


def definitions():
    """(qualified name, bare name, whether it is a method) of each public
    function, method and property of the library."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, node.name, False)]
            elif isinstance(node, ast.ClassDef):
                members = [(item, f"{node.name}.{item.name}", True) for item in node.body
                           if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for item, name, method in members:
                if not item.name.startswith("_"):
                    yield f"{module}.{name}", item.name, method


def python_uses(path: Path, names: set, attributes: set) -> None:
    """Add the bare names a Python file uses to names, and the attributes and
    strings it reads to attributes.  A def statement holds its own name as a
    string field, not as a use, so a definition does not reach itself."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)


def text_uses(text: str, names: set, attributes: set) -> None:
    """Add each word of text to names, and each part after a dot to attributes."""
    for word in WORD.findall(text):
        head, *tail = word.split(".")
        names.add(head)
        attributes.update(tail)


def unreached() -> list[str]:
    """The public names nothing reaches, beside those in KEPT.  A method or
    property is reached only as an attribute or a string."""
    names, attributes = set(), set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name != "__init__.py":
            python_uses(path, names, attributes)
    readme = (ROOT / "README.md").read_text()
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        text_uses(span, names, attributes)
    text_uses((ROOT / ".github" / "workflows" / "tier1.yml").read_text(), names, attributes)
    return sorted(qualified for qualified, name, method in definitions()
                  if qualified not in KEPT
                  and name not in attributes and (method or name not in names))


def test_every_public_name_is_reached_from_outside_its_definition():
    assert unreached() == []


def test_the_kept_names_are_defined():
    # an entry of KEPT whose definition is gone leaves the list
    assert KEPT <= {qualified for qualified, _, _ in definitions()}
