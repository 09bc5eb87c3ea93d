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
    and whose household columns index `households` (member ids under each
    household_id) in the dict's order, each with its `household_types` entry."""
    row = {a.id: i for i, a in enumerate(agents)}
    assert len(row) == len(agents), "agent ids repeat"
    household = np.full(len(agents), -1, dtype=np.int64)
    for h, ids in enumerate(households.values()):
        household[[row[m] for m in ids]] = h
    assert (household >= 0).all(), "an agent is in no household"
    return Population(**{name: np.array([getattr(a, name) for a in agents], dtype=dtype)
                         for name, dtype in COLUMN_TYPES.items()},
                      household=household,
                      household_type=np.array([household_types[h] for h in households],
                                              dtype=object))
