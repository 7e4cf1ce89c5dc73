"""The package's public surface: every top-level function and class has a reader.

A public name passes when package code outside its own definition uses it
(the re-exports in ``__init__`` do not count), when
``tests/test_acceptance.py`` uses it, when the README names it in code
(backticks or a fenced block), or when ``KEPT`` gives the reason it stays.
A name that passes none of these is dead surface: delete it with its
tests, or give it a caller.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinfoam_oqs"
THREE_LEVEL = "acceptance criterion 4, through test_lindblad._three_level_benchmark"

KEPT = {
    "pr_transition": "test oracle: the entrywise W of test_fused_W_matches_entrywise",
    "pr_vertex": "test oracle: the scalar signed 6j that the vertex-tensor tests compare against",
    "dissipator": "test oracle: the D_R rho that dissipator_matrix is checked against",
    "kraus_from_map": THREE_LEVEL,
    "adiabatic_eliminate": THREE_LEVEL,
    "asymptotic_vertex": "paper: the large-spin vertex behind two_level_rho11",
    "extract_sub": "paper: the sub-network cut that union glues back",
    "area": "paper: the area spectrum the level energies follow (README: areas)",
    "configure": "SpinCapacityError's message names it as the way to raise the spin limit",
    "cache_info": "perfbench reads the 6j cache counters through it",
    "clear_cache": "resets the global 6j cache that cache_info reports on",
}


def used_names(nodes) -> set[str]:
    """Every name and attribute name that the given AST nodes use."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def unread_names() -> list[str]:
    """Public top-level names that no reader uses, as ``module.name``."""
    definitions = [
        (path.stem, node, used_names([node]))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    # How many top-level statements of the package use each name.
    uses = Counter(name for _, _, names in definitions for name in names)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    readers = used_names([acceptance]) | set(re.findall(r"\w+", " ".join(code)))
    return [
        f"{module}.{node.name}"
        for module, node, names in definitions
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and uses[node.name] - (node.name in names) == 0  # used by its own definition at most
        and node.name not in readers
    ]


def test_every_public_name_has_a_reader():
    dead = [name for name in unread_names() if name.split(".")[1] not in KEPT]
    assert not dead, f"public names nothing reads: {dead}"


def test_every_kept_name_is_public_and_unread_otherwise():
    # An entry whose name gained a reader, or lost its definition, goes.
    unread = {name.split(".")[1] for name in unread_names()}
    assert sorted(set(KEPT) - unread) == []
