"""The package's public surface: every top-level function and class, and
every method and property of a public class, has a reader.

A public name passes when package code outside its own definition uses it
(the re-exports in ``__init__`` do not count), when
``tests/test_acceptance.py`` uses it, when the README names it in code
(backticks or a fenced block), or when ``KEPT`` gives the reason it stays.
A member is read only as an attribute: ``x.member`` in package code or in
``tests/test_acceptance.py``, ``.member`` or ``Class.member`` in README
code; a bare name of the same spelling, such as the builtin ``range``,
does not count.  Members are keyed ``Class.member`` in ``KEPT``.  A name
that passes none of these is dead surface: delete it with its tests, or
give it a caller.
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
    "asymptotic_vertex": "paper: the large-spin vertex that two_level_rho11 is rebuilt from"
                         " in test_two_level_rho11_from_the_asymptotic_vertex",
    "extract_sub": "paper: the sub-network cut that union glues back",
    "area": "paper: the area spectrum the level energies follow (README: areas)",
    "configure": "SpinCapacityError's message names it as the way to raise the spin limit",
    "cache_info": "perfbench reads the 6j cache counters through it",
    "clear_cache": "resets the global 6j cache that cache_info reports on",
    "BoundaryState.merged": "test oracle: joins the pins and the bath in the entrywise W"
                            " of test_fused_W_matches_entrywise",
    "TwoVertexModel.flattened": "perfbench's fit check recomputes a reported fit cost through it",
    "KrausSet.as_superoperator": "test oracle: the channel that test_kraus_reconstructs_channel"
                                 " rebuilds from the Kraus operators",
}


def name_uses(nodes, attributes_only: bool = False) -> Counter:
    """How often the given AST nodes use each attribute name and, unless
    ``attributes_only``, each bare name."""
    uses = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not attributes_only:
                uses[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                uses[sub.attr] += 1
    return uses


def public_definitions(tree: ast.Module):
    """(``name`` or ``Class.member``, node, whether it is a member) of each
    public top-level function and class, and of each public method and
    property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member, True


def unread_names() -> list[str]:
    """Public names that no reader uses, as ``module.name`` or ``module.Class.member``."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    uses, readers = {}, {}
    for member in (False, True):  # a member is read as an attribute only
        uses[member] = name_uses(trees.values(), member)
        readers[member] = set(name_uses([acceptance], member)) | set(
            re.findall(r"\.(\w+)" if member else r"\w+", code))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node, member in public_definitions(tree)
        if uses[member][node.name] == name_uses([node], member)[node.name]  # own definition at most
        and node.name not in readers[member]
    ]


def test_every_public_name_has_a_reader():
    dead = [name for name in unread_names() if name.split(".", 1)[1] not in KEPT]
    assert not dead, f"public names nothing reads: {dead}"


def test_every_kept_name_is_public_and_unread_otherwise():
    # An entry whose name gained a reader, or lost its definition, goes.
    unread = {name.split(".", 1)[1] for name in unread_names()}
    assert sorted(set(KEPT) - unread) == []
