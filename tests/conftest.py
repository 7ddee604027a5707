import dataclasses

import numpy as np
import pytest

from sarc import sarc_driver


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
