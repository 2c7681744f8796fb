"""Package surface: the exports and the docstring cross-references resolve."""

import importlib
import re
import types
from pathlib import Path

import pcfield

#: A Sphinx cross-reference to a function, class, datum or module.
REFERENCE = re.compile(r":(?:func|class|data|mod):`~?([\w.]+)`")


def resolve(target: str, home: str):
    """The object ``target`` names: a bare name in module ``home``, else a dotted path."""
    if "." not in target:
        return getattr(importlib.import_module(home), target)
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            value = getattr(value, name)
        return value
    raise ModuleNotFoundError(target)


def test_docstring_references_resolve():
    found, unresolved = 0, []
    for path in sorted(Path(pcfield.__file__).parent.glob("*.py")):
        home = "pcfield" if path.stem == "__init__" else f"pcfield.{path.stem}"
        for target in REFERENCE.findall(path.read_text(encoding="utf-8")):
            found += 1
            try:
                resolve(target, home)
            except (ImportError, AttributeError):
                unresolved.append(f"{path.name}: {target}")
    assert found
    assert unresolved == []


def test_exports_are_functions_and_classes_not_modules():
    for name in pcfield.__all__:
        assert hasattr(pcfield, name), name
        assert not isinstance(getattr(pcfield, name), types.ModuleType), name
