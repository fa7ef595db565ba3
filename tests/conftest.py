import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from hyperobs import (
    DirectedHypergraph,
    Hyperedge,
    NetworkSystem,
    bistable_field,
    identity_output,
    linear_output,
    lorenz_field,
    tanh_coupling,
    vector_field_from_callable,
)

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


def planar_spiral_field(mu1=1.0, mu2=0.3):
    """2-D test field: damped rotation with a cubic term, analytic Jacobians."""

    def f(x, mu):
        a, b = mu[..., 0], mu[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack(
            [-a * x1 + x2 + b * x1 * x2, -x1 - a * x2 - b * x2**3], axis=-1
        )

    def jx(x, mu):
        a, b = mu[..., 0], mu[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        shape = np.broadcast_shapes(x1.shape, np.shape(a))
        J = np.zeros(shape + (2, 2))
        J[..., 0, 0] = -a + b * x2
        J[..., 0, 1] = 1.0 + b * x1
        J[..., 1, 0] = -1.0
        J[..., 1, 1] = -a - 3.0 * b * x2**2
        return J

    return vector_field_from_callable(f, 2, np.array([mu1, mu2]), jac_x=jx)


def random_system(rng, h, field_kind=None, output_kind="identity"):
    """NetworkSystem over hypergraph ``h`` with a randomly chosen node field."""
    kind = field_kind or rng.choice(["lorenz", "bistable", "planar"])
    if kind == "lorenz":
        field = lorenz_field()
    elif kind == "bistable":
        field = bistable_field()
    else:
        field = planar_spiral_field()
    n = field.state_dim
    coupling = tanh_coupling(0.2, 0.05, 2.0, n)
    if output_kind == "identity" or n == 1:
        output = identity_output(n)
    else:
        output = linear_output(np.eye(n)[: n - 1])
    return NetworkSystem(h, field, coupling, output)


def random_hypergraph(rng, max_nodes=8, max_edges=6, min_nodes=2, sigma_range=(0.5, 2.0)):
    """Seeded random hypergraph with uniform or random convex weights."""
    N = int(rng.integers(min_nodes, max_nodes + 1))
    E = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(E):
        nt = int(rng.integers(1, min(3, N - 1) + 1))
        nh = int(rng.integers(1, min(3, N - nt) + 1))
        nodes = rng.choice(N, size=nt + nh, replace=False)
        tails, heads = nodes[:nt], nodes[nt:]
        sigma = float(rng.uniform(*sigma_range))
        if rng.random() < 0.5:
            edges.append(Hyperedge.uniform(tails, heads, sigma))
        else:
            a = rng.uniform(0.1, 1.0, nt)
            b = rng.uniform(0.1, 1.0, nh)
            edges.append(
                Hyperedge(tuple(tails), tuple(heads), tuple(a / a.sum()), tuple(b / b.sum()), sigma)
            )
    return DirectedHypergraph(N, tuple(edges))


@st.composite
def hypergraphs(draw, max_nodes=8, max_edges=6):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_hypergraph(np.random.default_rng(seed), max_nodes, max_edges)


def reachability_closure(num_nodes, arcs):
    """Boolean all-pairs reachability (Floyd-Warshall) over plain arcs."""
    R = np.eye(num_nodes, dtype=bool)
    for (i, j) in arcs:
        R[i, j] = True
    for k in range(num_nodes):
        R |= R[:, k][:, None] & R[k, :][None, :]
    return R


def brute_force_sccs(num_nodes, arcs, subset):
    """SCC partition of the induced subgraph via pairwise reachability."""
    subset = sorted(subset)
    idx = {v: k for k, v in enumerate(subset)}
    local = [(idx[i], idx[j]) for (i, j) in arcs if i in idx and j in idx]
    R = reachability_closure(len(subset), local)
    seen, comps = set(), []
    for a, v in enumerate(subset):
        if v in seen:
            continue
        comp = [subset[b] for b in range(len(subset)) if R[a, b] and R[b, a]]
        seen.update(comp)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
