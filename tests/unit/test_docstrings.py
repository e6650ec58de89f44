"""Docstring coverage gate for the public ``repro.core`` / ``repro.serve`` API.

The docs satellite of the streaming PR enables ruff's ``D`` rules for
these two packages in CI; this test enforces the same D1xx invariant
(every public module, class, function and method carries a docstring)
inside tier-1, so the guarantee holds even where ruff is unavailable —
and names the offenders precisely when it breaks.  It also runs the
``repro`` package quick start, so the first example a reader sees stays
executable.
"""

import ast
import doctest
import pathlib

import pytest

import repro.core
import repro.serve

#: The packages whose public surface must stay fully documented.
DOCUMENTED_PACKAGES = {
    "repro.core": pathlib.Path(repro.core.__file__).parent,
    "repro.serve": pathlib.Path(repro.serve.__file__).parent,
}


def iter_public_defs(tree: ast.Module):
    """Yield ``(lineno, qualname, node)`` for every public def/class.

    Mirrors pydocstyle's D1xx notion of "public": a name (and every
    enclosing class) must not start with an underscore.  Functions
    nested inside other functions are included — ruff checks them too.
    """

    def walk(node, prefix, enclosing_private):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                private = enclosing_private or child.name.startswith("_")
                if not private:
                    yield child.lineno, prefix + child.name, child
                yield from walk(child, prefix + child.name + ".", private)

    yield from walk(tree, "", False)


@pytest.mark.parametrize("package", sorted(DOCUMENTED_PACKAGES))
def test_public_api_is_fully_documented(package):
    root = DOCUMENTED_PACKAGES[package]
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            offenders.append(f"{path}:1 (module docstring)")
        for lineno, qualname, node in iter_public_defs(tree):
            if ast.get_docstring(node) is None:
                offenders.append(f"{path}:{lineno} ({qualname})")
    assert not offenders, (
        f"{package} public API missing docstrings:\n  " + "\n  ".join(offenders)
    )


def test_key_entry_points_have_substantial_docs():
    """The documented entry points carry real prose, not placeholders."""
    from repro.core import (
        EngineSpec,
        MappingOrchestrator,
        ReconstructionEngine,
    )
    from repro.serve import ReconstructionService, StreamingSession

    for entry_point in (
        ReconstructionService,
        StreamingSession,
        MappingOrchestrator,
        ReconstructionEngine,
        EngineSpec,
    ):
        doc = entry_point.__doc__
        assert doc is not None and len(doc.strip()) > 120, entry_point


def test_package_quick_start_runs():
    """The ``repro`` package docstring's quick start executes as written."""
    import repro

    outcome = doctest.testmod(repro)
    assert outcome.attempted > 0
    assert outcome.failed == 0
