"""Every public name has a caller outside the tests.

A name in ``realdim.__all__`` must be referenced somewhere in the package
(``__init__.py`` aside) or in ``bench/``, on a line other than the
``def`` or ``class`` line that defines it.
"""

import re
from pathlib import Path

import realdim

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_outside_the_tests():
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
    assert sorted(set(realdim.__all__) - used) == []
