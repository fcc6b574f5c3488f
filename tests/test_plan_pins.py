"""Every solver's plans against the pinned record in ``plan_pins.json``.

The battery pins read the shared ``solver_battery`` fixture, so they cost
no solve of their own; each named case solves once per solver.
"""

import pytest

from pin_plans import CASES, battery_records, case_records, load

PINNED = load()


def test_pins_cover_every_case():
    assert list(PINNED["cases"]) == list(CASES)
    assert len(PINNED["battery"]) == 110


def test_battery_plans_pinned(solver_battery):
    records = battery_records(solver_battery)
    assert len(records) == len(PINNED["battery"])
    moved = [i for i, (got, pin) in enumerate(zip(records, PINNED["battery"])) if got != pin]
    assert not moved, f"battery pins moved at instances {moved}"


@pytest.mark.parametrize("case", list(CASES))
def test_case_plans_pinned(case):
    assert case_records(case) == PINNED["cases"][case]
