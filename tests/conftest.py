import numpy as np
import pytest

from tailshift import CorrelationMatrix, DistributionSpec, LossModel


@pytest.fixture(scope="session")
def portfolio_dist():
    """Ten exchangeable positions: five heavy (0.9), five light (1.1) tails."""
    return DistributionSpec.from_alphas(
        [0.9] * 5 + [1.1] * 5, CorrelationMatrix.equicorrelated(10, 0.1))


@pytest.fixture(scope="session")
def pert_dist():
    """Seven activity durations with heavy tails and tridiagonal coupling."""
    return DistributionSpec.from_alphas([0.5] * 7, CorrelationMatrix.tridiagonal(7, 0.1))


@pytest.fixture(scope="session")
def onedim_dist():
    """Single unit-exponential input: everything about it is solvable."""
    return DistributionSpec.from_alphas([1.0])


@pytest.fixture(scope="session")
def linear():
    return LossModel.linear()


@pytest.fixture
def drawn(monkeypatch):
    """The positional arguments of every draw (``_drawn_blocks``) an estimate starts, in order."""
    import tailshift.estimators as ez

    calls, real_draw = [], ez._drawn_blocks

    def counted_draw(*args, **kw):
        calls.append(args)
        return real_draw(*args, **kw)

    monkeypatch.setattr(ez, "_drawn_blocks", counted_draw)
    return calls


def rng_of(seed):
    return np.random.default_rng(seed)
