"""Acceptance gate: one test per criterion, each printing its verdict line.

Criteria 3 and 4 probe limits at finite parameter offsets that are
approached as a power law with a small exponent,
pi - T ~ (P/P_max)^(1/(2(lambda - 1))); the measured gaps at the stated
offsets exceed the stated tolerances (see the detail strings), so those two
tests fail and are expected to keep failing until the stated offsets or
tolerances change.
"""

import pytest

from homoeuler.selfcheck import CRITERIA


@pytest.mark.parametrize("name,title,fn", CRITERIA,
                         ids=[c[0] for c in CRITERIA])
def test_criterion(name, title, fn):
    ok, detail = fn()
    line = f"{name} {'PASS' if ok else 'FAIL'}  {title}: {detail}"
    print(line)
    assert ok, line
