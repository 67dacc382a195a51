import numpy as np
import pytest

from ipsmc.ips import RateModel, StateSpaceSpec


def flip_off_rates(up, down, coupling=0.0):
    """Batch off-rate function for a V=2 model: rate to 1 grows with the
    number of neighbors at 1 when coupling is set."""

    def fn(t, Z, spec, theta):
        B, d = Z.shape
        ones = (Z == 1).astype(float)
        n1 = ones @ spec.adjacency.T.astype(float)
        off = np.zeros((B, d, 2))
        off[:, :, 1] = (up + coupling * n1) * (Z == 0)
        off[:, :, 0] = (down + 0.5 * coupling * n1) * (Z == 1)
        return off

    return fn


def make_flip_model(up=0.6, down=0.4, coupling=0.0):
    def lambda_bar(spec, theta):
        kmax = spec.adjacency.sum(axis=1).max()
        return spec.d * max(up + coupling * kmax, down + 0.5 * coupling * kmax)

    return RateModel(batch_off_rate_fn=flip_off_rates(up, down, coupling),
                     lambda_bar_fn=lambda_bar)


def chain_spec(d, V=2, F=0):
    adj = np.zeros((d, d), dtype=int)
    for i in range(d - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    feats = np.zeros((d, F))
    return StateSpaceSpec(d=d, V=V, adjacency=adj, node_features=feats)


@pytest.fixture
def pair_spec():
    return StateSpaceSpec(d=2, V=3, adjacency=np.array([[0, 1], [1, 0]]),
                          node_features=np.zeros((2, 0)))
