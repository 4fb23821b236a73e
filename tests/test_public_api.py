"""Every public name, and every parameter with a default, has a caller
outside the tests.

A name in ``realdim.__all__``, a public method or property of a class in
it, or a public function of ``realdim.randgen`` must be referenced
somewhere in the package (``__init__.py`` aside) or in ``bench/``, on a
line other than the ``def`` or ``class`` line that defines it.  Each
parameter with a default of those callables (a class's being its
constructor's) must be set, by keyword or by position, at some call in the
same files whose callee has the callable's name.
"""

import ast
import inspect
import math
import re
from functools import cached_property
from pathlib import Path

import realdim
from realdim import randgen

ROOT = Path(__file__).resolve().parents[1]


# Parameters with a default that only the tests set, and why each stays.
KEPT_DEFAULTS = {
    **dict.fromkeys(("contains_forbidden.max_vertices", "contains_forbidden.max_edges"),
                    "the 10-vertex oracle test raises the search bounds"),
    **dict.fromkeys(("restrict_to_affine_span.tol", "construct_psd_stress.tol"),
                    "the numeric layer keeps one tolerance convention, which --tol feeds"),
    **dict.fromkeys(("randgen.random_simple_gain_graph.label_min",
                     "randgen.random_simple_gain_graph.label_max",
                     "randgen.random_simple_gain_graph.min_vertices",
                     "randgen.random_framework.integer"),
                    "randgen's stated callers are the property suites"),
}


def _source_files() -> list:
    files = [p for p in (ROOT / "src" / "realdim").glob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "bench").glob("*.py"))


def _used_words() -> set:
    used = set()
    for path in _source_files():
        for line in path.read_text(encoding="utf-8").splitlines():
            words = set(re.findall(r"\w+", line))
            defined = re.match(r"\s*(?:def|class)\s+(\w+)", line)
            if defined:
                words.discard(defined.group(1))
            used |= words
    return used


def _public_callables() -> dict:
    """``{display name: (callable, whether a call passes it a self or cls)}``
    for each callable in ``realdim.__all__``, the public methods of its
    classes, and the public functions of ``realdim.randgen``."""
    found = {}
    for name in realdim.__all__:
        obj = getattr(realdim, name)
        found[name] = obj, False
        if not inspect.isclass(obj):
            continue
        for attr, value in vars(obj).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                found[f"{name}.{attr}"] = value.__func__, isinstance(value, classmethod)
            elif inspect.isfunction(value):
                found[f"{name}.{attr}"] = value, True
    for name, value in vars(randgen).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == randgen.__name__):
            found[f"randgen.{name}"] = value, False
    return found


def _public_members() -> set:
    """``Class.member`` for the public methods and properties of each class
    in ``realdim.__all__``, and ``randgen.name`` for its public functions."""
    members = {name for name in _public_callables() if "." in name}
    for name in realdim.__all__:
        cls = getattr(realdim, name)
        if inspect.isclass(cls):
            members |= {f"{name}.{attr}" for attr, value in vars(cls).items()
                        if not attr.startswith("_")
                        and isinstance(value, (property, cached_property))}
    return members


def _calls() -> dict:
    """``{callee name: [(positional count, keywords)]}`` over every call in
    the package and ``bench/``.  A call of ``cls`` counts under the class
    it is made in; a ``*args`` or ``**kwargs`` counts as setting every
    position or keyword (a ``None`` among the keywords)."""
    calls: dict = {}

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "cls":
                    callee = cls_name
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                calls.setdefault(callee, []).append(
                    (math.inf if starred else len(child.args), {k.arg for k in child.keywords}))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)

    for path in _source_files():
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls


def _unset_defaults() -> list:
    """``name.parameter`` for each parameter with a default that no call sets."""
    calls = _calls()
    unset = []
    for name, (obj, bound) in _public_callables().items():
        try:
            params = list(inspect.signature(obj).parameters.values())
        except ValueError:  # a built-in constructor, as an exception class's
            continue
        params = params[1:] if bound else params
        sites = calls.get(name.rsplit(".", 1)[-1], [])
        for i, p in enumerate(params):
            if p.default is p.empty:
                continue
            by_position = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if not any(p.name in keywords or None in keywords or by_position and count > i
                       for count, keywords in sites):
                unset.append(f"{name}.{p.name}")
    return unset


def test_every_public_name_is_used_outside_the_tests():
    assert sorted(set(realdim.__all__) - _used_words()) == []


def test_every_public_method_is_used_outside_the_tests():
    used = _used_words()
    assert sorted(m for m in _public_members() if m.rsplit(".", 1)[1] not in used) == []


def test_every_parameter_default_is_set_outside_the_tests():
    # Both ways: a kept entry that a caller now sets leaves the list.
    assert sorted(set(_unset_defaults()) ^ set(KEPT_DEFAULTS)) == []
