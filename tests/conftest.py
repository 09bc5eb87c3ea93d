"""Shared test support: acceptance reporting, and the one way tests build
a `Population` from `Agent` rows (`population_from_agents`).

The acceptance tests each announce their verdict through the `report`
fixture; collected lines are replayed in the terminal summary so they
are visible on a green run without -s.
"""

import numpy as np
import pytest

from strokesim.population import COLUMN_TYPES, Population

_acceptance_lines: list[str] = []


@pytest.fixture
def report():
    def _report(line: str) -> None:
        full = f"ACCEPTANCE {line}"
        _acceptance_lines.append(full)
        print(f"\n{full}")
    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def population_from_agents(agents, households, household_types) -> Population:
    """A `Population` whose columns hold the fields of `agents`, in order,
    and whose household columns hold `households` (member ids under each
    household_id) with their `household_types`, in the dicts' order."""
    row = {a.id: i for i, a in enumerate(agents)}
    assert len(row) == len(agents), "agent ids repeat"
    members = np.array([row[m] for ids in households.values() for m in ids], dtype=np.int64)
    sizes = np.array([len(ids) for ids in households.values()], dtype=np.int64)
    household = np.empty(len(agents), dtype=np.int64)
    household[members] = np.repeat(np.arange(len(households)), sizes)
    return Population(**{name: np.array([getattr(a, name) for a in agents], dtype=dtype)
                         for name, dtype in COLUMN_TYPES.items()},
                      household=household, members=members,
                      household_type=np.array([household_types[h] for h in households],
                                              dtype=object),
                      member_start=np.concatenate(([0], sizes.cumsum())))
