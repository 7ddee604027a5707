import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from sarc import sarc_driver

# every property test draws the same examples on every machine and run; a
# test's own @settings only sets its number of examples. Each @given test
# carries an explicit @seed(0): without it, derandomize seeds the draws from a
# digest of the test's own code and signature, so any edit to a property test
# would redraw all its examples and could surface a latent failing case of a
# bound the edit did not touch
settings.register_profile("sarc", derandomize=True, deadline=None, database=None)
settings.load_profile("sarc")


@pytest.fixture
def poison_next_step(monkeypatch):
    """Call with a value (nan or inf) to make the next subproblem of any cubic
    driver return a step whose first entry is that value."""

    def poison(value):
        real = sarc_driver.minimize_model

        def once(*args, **kwargs):
            monkeypatch.setattr(sarc_driver, "minimize_model", real)
            res = real(*args, **kwargs)
            s = res.s.copy()
            s[0] = value
            return dataclasses.replace(res, s=s)

        monkeypatch.setattr(sarc_driver, "minimize_model", once)

    return poison
