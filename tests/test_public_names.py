"""Every public module-level function and class of koszulmf is needed.

A name is needed when code in `src/koszulmf` refers to it (a call, an
import or any other use, in its own module or another; its definition does
not count), or when `README.md` or a file under `perfbench/` names it.
Library code that nothing needs is deleted rather than kept.  The names
that only a document needs are pinned, so that list does not grow.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "koszulmf")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _uses(tree):
    """Every name the code of a module reads, as a bare name, an attribute
    or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _documents():
    """README.md and the text of every file under perfbench/."""
    texts = [_read(os.path.join(ROOT, "README.md"))]
    for dirpath, _, files in os.walk(os.path.join(ROOT, "perfbench")):
        texts += [_read(os.path.join(dirpath, f)) for f in sorted(files)
                  if f.endswith((".py", ".md"))]
    return "\n".join(texts)


def _trees():
    return {f: ast.parse(_read(os.path.join(SRC, f)))
            for f in sorted(os.listdir(SRC)) if f.endswith(".py")}


def _unused_in_code(trees):
    """(module, name) of each public name no code in src/koszulmf uses."""
    used = set().union(*map(_uses, trees.values()))
    return [(f, name) for f, tree in trees.items()
            for name in _public_definitions(tree) if name not in used]


def test_every_public_name_is_needed():
    documents = _documents()
    unneeded = [f"{f}: {name}" for f, name in _unused_in_code(_trees())
                if not re.search(rf"\b{name}\b", documents)]
    assert unneeded == []


# The names that only README.md or perfbench/ keep alive, each with its
# keepers.  The list is pinned: a name deleted from the library is deleted
# here too, and a new public name needs a use in the code, not only a
# mention in a document.
KEPT_BY_DOCUMENTS = {
    ("complexes.py", "homology_dims_at"),   # README, perfbench/tracing.py
    ("documents.py", "document_payload"),   # README, perfbench/gen.py
    ("documents.py", "witness_payload"),    # README, perfbench/gen.py
    ("koszul.py", "koszul_complex"),        # README
    ("koszul.py", "counit_map"),            # perfbench/tracing.py
    ("koszul.py", "box_tensor"),            # README
    ("mf.py", "fold_morphism"),             # README
}


def test_names_kept_only_by_documents_do_not_grow():
    assert set(_unused_in_code(_trees())) == KEPT_BY_DOCUMENTS
