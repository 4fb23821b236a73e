"""Every public name has a caller outside the tests.

A name in ``realdim.__all__``, a public method or property of a class in
it, or a public function of ``realdim.randgen`` must be referenced
somewhere in the package (``__init__.py`` aside) or in ``bench/``, on a
line other than the ``def`` or ``class`` line that defines it.
"""

import inspect
import re
from functools import cached_property
from pathlib import Path

import realdim
from realdim import randgen

ROOT = Path(__file__).resolve().parents[1]


def _used_words() -> set:
    files = [p for p in (ROOT / "src" / "realdim").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    used = set()
    for path in files:
        for line in path.read_text(encoding="utf-8").splitlines():
            words = set(re.findall(r"\w+", line))
            defined = re.match(r"\s*(?:def|class)\s+(\w+)", line)
            if defined:
                words.discard(defined.group(1))
            used |= words
    return used


def _public_members() -> set:
    """``Class.member`` for the public methods and properties of each class
    in ``realdim.__all__``, and ``randgen.name`` for its public functions."""
    members = set()
    for name in realdim.__all__:
        cls = getattr(realdim, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if inspect.isfunction(value) or isinstance(value, (property, cached_property)):
                members.add(f"{name}.{attr}")
    for name, value in vars(randgen).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == randgen.__name__):
            members.add(f"randgen.{name}")
    return members


def test_every_public_name_is_used_outside_the_tests():
    assert sorted(set(realdim.__all__) - _used_words()) == []


def test_every_public_method_is_used_outside_the_tests():
    used = _used_words()
    assert sorted(m for m in _public_members() if m.rsplit(".", 1)[1] not in used) == []
