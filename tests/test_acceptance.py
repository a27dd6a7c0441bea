"""Acceptance gate: every validation criterion at its pinned tolerance.

One line is printed per criterion (run with ``pytest -s`` or ``-v`` to see
them).  Two sub-criteria are registered as expected failures with the full
analysis in their registry entries; the suite treats "failed exactly as
predicted" as green and an unexpected pass as red, mirroring strict-xfail
semantics.  ``feller validate`` runs the same registry from the CLI.
"""

import pytest

from feller.validation import CRITERIA, run_criterion


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_criterion(criterion):
    result = run_criterion(criterion)
    print(result.line())
    if criterion.defect is not None:
        assert not result.passed, (
            f"{criterion.cid} passed although it is registered as analytically "
            f"unattainable; revisit the analysis: {criterion.defect}"
        )
    else:
        assert result.passed, f"{criterion.cid}: {result.detail}"
