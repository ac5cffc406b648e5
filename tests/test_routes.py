"""The route table of tests/routes.py holds: the two sides of each check
share only plumbing and what the check's row allows, each side reaches
something the other does not, and every twisted sum reads its two
recurrence rows once each and no checked single entry."""

import pytest

import routes
from psifoc import psi


@pytest.mark.parametrize("row", routes.ROUTES, ids=lambda row: row.check)
def test_sides_share_only_what_the_row_allows(row):
    allowed = set(row.shared)
    used = set()
    for t in row.params:
        found = routes.trace(lambda: row.run(t), row.sides)
        left, right = (set(side) - routes.PLUMBING
                       for side in found.sides.values())
        shared = left & right
        assert shared <= allowed, (t, sorted(shared - allowed))
        assert left - right and right - left, t
        used |= shared
    # an allowance that no parameter needs is stale
    assert used == allowed


@pytest.mark.parametrize(
    "row", [row for row in routes.ROUTES if row.check in routes.SUMMING],
    ids=lambda row: row.check)
def test_every_twisted_sum_reads_its_two_rows_once(row):
    for t in row.params:
        found = routes.trace(lambda: row.run(t), row.sides,
                             watch=[psi.twisted_sum])
        assert found.calls, t
        for reached in found.calls:
            assert reached["read _row_step"] == 2, t
            assert "psi.gauss_binomial" not in reached, t
