"""Every name a module lists in `__all__` exists, so a deletion cannot leave a stale export behind,
and each is read somewhere in `src/` or `bench/` beyond its own definition, or `UNUSED` says why it stays."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import doprompt

ROOT = Path(__file__).resolve().parents[1]

EXPORTING = [
    info.name
    for info in pkgutil.iter_modules(doprompt.__path__)
    if hasattr(importlib.import_module(f"doprompt.{info.name}"), "__all__")
]

# (module, name) -> why an export that no code in src/ or bench/ reads stays
UNUSED = {
    ("objectives", "total_loss"): "bench traces it by name; ROADMAP item 7 deletes it",
    ("prompting", "domain_prompts"): "bench traces it by name; ROADMAP item 7 deletes it",
    ("datagen", "render_image"): "the one-row renderer that ROADMAP item 1b builds on",
    ("config", "save_config"): "the cell record of ROADMAP item 11",
    ("tensor", "gelu"): "bench traces it by name, and the tests' unfused oracles build on it (item 7)",
    ("tensor", "exp"): "bench traces it by name, and the op-by-op gradient checks cover it (item 7)",
    ("tensor", "default_dtype"): "the float64 finite-difference checks switch the engine with it",
}


def _reads(path: Path) -> set:
    """The (module, name) pairs of `doprompt` that the code of `path` reads: a name
    imported from a module, `alias.name` of an imported module, and, inside a
    module of the package, any name it loads. A definition, an `import` alone
    and a string are not reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = path.stem if path.parent.name == "doprompt" else None
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("doprompt.") and a.asname:
                    modules[a.asname] = a.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative imports occur only inside the package
                source = f"doprompt.{source}".rstrip(".")
            for a in node.names:
                if source == "doprompt":
                    modules[a.asname or a.name] = a.name
                elif source.startswith("doprompt."):
                    names[a.asname or a.name] = (source.split(".")[1], a.name)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(names.get(node.id, (inside, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


READS = set().union(*(_reads(p) for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))))


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from doprompt.{module} import *", namespace)
    assert set(importlib.import_module(f"doprompt.{module}").__all__) <= namespace.keys()


@pytest.mark.parametrize("module", EXPORTING)
def test_every_exported_name_is_read_or_says_why_it_stays(module):
    exported = importlib.import_module(f"doprompt.{module}").__all__
    unread = {(module, name) for name in exported if (module, name) not in READS}
    # an entry of UNUSED that code now reads must leave it too, so the list stays true
    assert unread == {key for key in UNUSED if key[0] == module}

