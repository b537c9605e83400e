"""Tests of the reference kit on tiny graphs with closed-form answers.

Run with ``python -m pytest perfbench/test_refkit.py -q`` from the
repository root.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("scipy")  # the kit's only dependency beyond numpy

import refkit  # noqa: E402

PATH = np.array([[0, 1], [1, 2]])


def _star(leaves: int) -> np.ndarray:
    return np.array([[0, leaf] for leaf in range(1, leaves + 1)])


@pytest.mark.parametrize("method", ["lu", "iterate"])
def test_path_rwr_matches_closed_form(method):
    restart = 0.05
    p = 1.0 - restart
    adj = refkit.graph_adjacency(3, PATH)
    x = refkit.rwr_exact(adj, [0], restart=restart, method=method)[:, 0]
    # x1 = p (x0 + x2), x2 = p x1 / 2  =>  x1 / x0 = p / (1 - p^2 / 2).
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert x[1] / x[0] == pytest.approx(p / (1.0 - p * p / 2.0), rel=1e-12)
    assert x[2] / x[1] == pytest.approx(p / 2.0, rel=1e-12)


def test_path_hop_and_unreachable_fill():
    adj = refkit.graph_adjacency(4, PATH)  # node 3 is isolated
    dist = refkit.hop_exact(adj, [0, 2])
    assert dist[:, 0].tolist() == [0, 1, 2, 2]
    assert dist[:, 1].tolist() == [2, 1, 0, 2]


@pytest.mark.parametrize("method", ["lu", "iterate"])
def test_star_php_matches_closed_form(method):
    c, leaves = 0.95, 5
    adj = refkit.graph_adjacency(leaves + 1, _star(leaves))
    center = refkit.php_exact(adj, [0], continuation=c, method=method)[:, 0]
    assert center[0] == 1.0
    np.testing.assert_allclose(center[1:], c, rtol=1e-12)
    leaf = refkit.php_exact(adj, [1], continuation=c, method=method)[:, 0]
    hub = (c / leaves) / (1.0 - c * c * (leaves - 1) / leaves)
    assert leaf[1] == 1.0
    assert leaf[0] == pytest.approx(hub, rel=1e-12)
    np.testing.assert_allclose(leaf[2:], c * hub, rtol=1e-12)


@pytest.mark.parametrize("method", ["lu", "iterate"])
def test_star_rwr_is_symmetric_in_the_leaves(method):
    adj = refkit.graph_adjacency(5, _star(4))
    x = refkit.rwr_exact(adj, [0], method=method)[:, 0]
    np.testing.assert_allclose(x[1:], x[1], rtol=1e-12)
    # Every leaf's mass came from the center: x_leaf = p * x_center / 4.
    assert x[1] == pytest.approx(0.95 * x[0] / 4.0, rel=1e-12)


def test_identity_summary_equals_the_input_graph():
    edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3], [3, 4]])
    graph = refkit.graph_adjacency(5, edges)
    summary = refkit.summary_adjacency(np.arange(5), edges[:, 0], edges[:, 1])
    assert (graph != summary).nnz == 0
    expected = 2 * 5 * math.log2(5) + 5 * math.log2(5)
    assert refkit.summary_size_bits(5, np.arange(5), 5) == pytest.approx(expected)
    assert refkit.summary_size_bits(5, np.arange(5), 5) == pytest.approx(
        refkit.graph_size_bits(5, 5) + 5 * math.log2(5)
    )


def test_merged_summary_materializes_blocks_without_self_pairs():
    # Supernodes A = {0, 1} (id 0) and B = {2, 3} (id 2); superedges {A, A}, {A, B}.
    supernode_of = np.array([0, 0, 2, 2])
    adj = refkit.summary_adjacency(supernode_of, np.array([0, 0]), np.array([0, 2])).toarray()
    expected = np.array(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float
    )
    np.testing.assert_array_equal(adj, expected)
    assert refkit.summary_size_bits(4, supernode_of, 2) == pytest.approx(2 * 2 * 1 + 4 * 1)


def test_weighted_summary_uses_block_density():
    supernode_of = np.array([0, 0, 2, 2])
    adj = refkit.summary_adjacency(
        supernode_of, np.array([0]), np.array([2]), weights=np.array([2.0])
    ).toarray()
    assert adj[0, 2] == pytest.approx(0.5)
    assert adj[0, 1] == 0.0


def test_residual_edges_add_and_must_be_new():
    summary = refkit.summary_adjacency(np.arange(3), np.array([0]), np.array([1]))
    both = refkit.residual_adjacency(summary, np.array([[1, 2]]))
    assert (both != refkit.graph_adjacency(3, PATH)).nnz == 0
    with pytest.raises(ValueError):
        refkit.residual_adjacency(summary, np.array([[0, 1]]))


def _capped_rwr(adj, query, iterations, restart=0.05):
    dense = adj.toarray()
    degrees = dense.sum(axis=1)
    x = np.full(dense.shape[0], 1.0 / dense.shape[0])
    for _ in range(iterations):
        new = (1.0 - restart) * dense @ np.where(degrees > 0, x / np.maximum(degrees, 1e-300), 0.0)
        new[query] += 1.0 - new.sum()
        x = new
    return x


def _capped_php(adj, query, iterations, c=0.95):
    dense = adj.toarray()
    degrees = dense.sum(axis=1)
    x = np.zeros(dense.shape[0])
    x[query] = 1.0
    for _ in range(iterations):
        new = c * (dense @ x) / np.where(degrees > 0, degrees, 1.0)
        new[degrees == 0] = 0.0
        new[query] = 1.0
        x = new
    return x


@pytest.mark.parametrize("iterations", [1, 5, 20])
def test_tolerances_bound_capped_iterations(iterations):
    # A path plus an isolated node: dangling mass and an unreachable node.
    adj = refkit.graph_adjacency(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    for query in (0, 2, 5):
        exact = refkit.rwr_exact(adj, [query])[:, 0]
        gap = np.abs(_capped_rwr(adj, query, iterations) - exact).sum()
        assert gap <= refkit.rwr_tolerance(iterations, 0.0)
        exact = refkit.php_exact(adj, [query])[:, 0]
        gap = np.abs(_capped_php(adj, query, iterations) - exact).max()
        assert gap <= refkit.php_tolerance(iterations, 0.0)


def test_smape():
    assert refkit.smape(np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0])) == pytest.approx(1 / 3)


def test_methods_agree_on_a_random_graph():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 60, size=(150, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    adj = refkit.graph_adjacency(61, edges)  # node 60 is isolated
    queries = [0, 7, 60]
    lu, iterate = refkit.Reference(adj), refkit.Reference(adj, method="iterate")
    np.testing.assert_allclose(lu.rwr(queries), iterate.rwr(queries), atol=1e-12)
    np.testing.assert_allclose(lu.php(queries), iterate.php(queries), atol=1e-12)
