import pytest

from qeswkb.acceptance import Study


@pytest.fixture(scope="session")
def study():
    """The acceptance study, shared so that a session solves each spectrum once.

    Used by the acceptance and refit tests; each part's build time is
    charged to one acceptance criterion, so runtime budgets that include
    data generation count it exactly once.
    """
    return Study()
