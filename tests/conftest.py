import numpy as np
import pytest

from lpheat import DEFAULT_CONFIG, QuadratureConfig


@pytest.fixture(scope="session")
def tight():
    return QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)


@pytest.fixture(scope="session")
def fast():
    return QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)


@pytest.fixture
def record_solve_values(monkeypatch):
    """``record(module)`` wraps ``module.solve_values`` for the test and
    returns the list of (t, xs) of each call made through that module."""

    def record(module):
        calls = []
        inner = module.solve_values

        def counting(f, t, xs, cfg=DEFAULT_CONFIG):
            calls.append((t, np.atleast_1d(np.asarray(xs, dtype=float)).tolist()))
            return inner(f, t, xs, cfg)

        monkeypatch.setattr(module, "solve_values", counting)
        return calls

    return record
