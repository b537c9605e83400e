"""Reference answers for the benchmark's correctness checks.

Everything here is computed with numpy/scipy straight from the
definitions in the paper, never through ``repro``'s query code:

* :func:`graph_adjacency`, :func:`summary_adjacency` and
  :func:`residual_adjacency` materialize ``Â`` as a sparse matrix;
* :class:`Reference` (and :func:`rwr_exact`, :func:`php_exact`) solves
  the fixed points of the RWR (Alg. 6) and PHP recurrences, by sparse LU
  or by a Neumann series run to a proven accuracy;
* :func:`hop_exact` runs an unweighted BFS and fills unreachable nodes
  with the longest observed shortest path (Sect. V-A);
* :func:`summary_size_bits` recomputes Eq. 3;
* :func:`rwr_tolerance` / :func:`php_tolerance` bound how far a power
  iteration stopped by an iteration cap may sit from the fixed point.

The kit reads a summary only through its data (``supernode_of`` and the
superedge arrays), so it checks the program's output, not its code.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import splu

#: Rounding slack added to every derived tolerance (the LU solves are
#: accurate to ~1e-13 on these graphs; the program sums in another order).
FLOAT_SLACK = 1e-9


def graph_adjacency(num_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of an undirected edge list ``(m, 2)``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(rows.size, dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    adj.sum_duplicates()
    adj.data[:] = 1.0
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    return adj


def summary_adjacency(
    supernode_of: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    weights: "np.ndarray | None" = None,
) -> sp.csr_matrix:
    """``Â`` of a summary: every pair across a superedge ``{A, B}`` gets the
    block density (1 when unweighted, stored count over pair count when
    weighted), no node is its own neighbor.

    ``Â = R M Rᵀ − diag``, with ``R`` the node-to-supernode membership
    matrix and ``M`` the symmetric supernode block-density matrix.
    """
    supernode_of = np.asarray(supernode_of, dtype=np.int64)
    n = supernode_of.size
    labels, compact = np.unique(supernode_of, return_inverse=True)
    k = labels.size
    sizes = np.bincount(compact, minlength=k).astype(np.float64)
    a = np.searchsorted(labels, np.asarray(lo, dtype=np.int64))
    b = np.searchsorted(labels, np.asarray(hi, dtype=np.int64))
    if weights is None:
        density = np.ones(a.size, dtype=np.float64)
    else:
        pairs = np.where(a == b, sizes[a] * (sizes[a] - 1.0) / 2.0, sizes[a] * sizes[b])
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(pairs > 0, np.minimum(np.asarray(weights) / pairs, 1.0), 0.0)
    cross = a != b
    rows = np.concatenate([a, b[cross]])
    cols = np.concatenate([b, a[cross]])
    vals = np.concatenate([density, density[cross]])
    blocks = sp.csr_matrix((vals, (rows, cols)), shape=(k, k))
    membership = sp.csr_matrix(
        (np.ones(n, dtype=np.float64), (np.arange(n), compact)), shape=(n, k)
    )
    adj = (membership @ blocks @ membership.T).tocsr()
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    return adj


def residual_adjacency(summary_adj: sp.csr_matrix, extra_edges: np.ndarray) -> sp.csr_matrix:
    """``Â_summary + A_residual``; the residual edges must be new pairs."""
    extra = graph_adjacency(summary_adj.shape[0], extra_edges)
    overlap = summary_adj.multiply(extra)
    if overlap.nnz:
        raise ValueError(f"{overlap.nnz // 2} residual edges duplicate summary pairs")
    return (summary_adj + extra).tocsr()


#: Neumann-series solves stop once the contraction bound drops below this.
ITERATE_ACCURACY = 1e-13


def _indicator(num_nodes: int, queries: np.ndarray) -> np.ndarray:
    rhs = np.zeros((num_nodes, queries.size), dtype=np.float64)
    rhs[queries, np.arange(queries.size)] = 1.0
    return rhs


def _inverse_degrees(adj: sp.csr_matrix) -> np.ndarray:
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    np.divide(1.0, degrees, out=inv, where=degrees > 0)
    return inv


class Reference:
    """Converged RWR/PHP answers on one materialized ``Â``.

    ``method="lu"`` factorizes each system once (minimum-degree ordering
    on ``AᵀA + A``, cheap for summaries and small graphs) and reuses the
    factors for every query; ``method="iterate"`` sums the Neumann series
    ``Σ (αT)^k e_q`` until the contraction bound ``α^k / (1 − α)`` is below
    :data:`ITERATE_ACCURACY`, which suits a few queries on a large graph
    whose LU would fill in.
    """

    def __init__(self, adj: sp.csr_matrix, *, restart: float = 0.05,
                 continuation: float = 0.95, method: str = "lu"):
        if method not in ("lu", "iterate"):
            raise ValueError(f"unknown method {method!r}")
        self.adj = adj.tocsr()
        self.restart = restart
        self.continuation = continuation
        self.method = method
        inverse = _inverse_degrees(self.adj)
        # RWR spreads along columns (P = Â D⁻¹), PHP averages along rows (D⁻¹Â).
        self._spread = (self.adj @ sp.diags(inverse)).tocsr()
        self._average = (sp.diags(inverse) @ self.adj).tocsr()
        self._factors = {}

    def _solve(self, key: str, damping: float, operator: sp.csr_matrix, rhs: np.ndarray):
        """``(I − damping·operator)⁻¹ rhs``."""
        if self.method == "iterate":
            steps = int(math.ceil(math.log(ITERATE_ACCURACY * (1 - damping)) / math.log(damping)))
            total = rhs.copy()
            for _ in range(steps):
                total = rhs + damping * (operator @ total)
            return total
        if key not in self._factors:
            n = operator.shape[0]
            system = (sp.identity(n, format="csc") - damping * operator).tocsc()
            self._factors[key] = splu(system, permc_spec="MMD_AT_PLUS_A")
        return self._factors[key].solve(rhs)

    def rwr(self, queries) -> np.ndarray:
        """Converged RWR vectors, one column per query node.

        Alg. 6 iterates ``x ← p·P x + (1 − p·Σ_{d>0} x) e_q`` with
        ``P = Â D⁻¹`` (zero columns for isolated nodes), ``p = 1 − restart``.
        Its fixed point is ``x = c (I − pP)⁻¹ e_q`` with ``c`` set by ``Σx = 1``.
        """
        queries = np.atleast_1d(np.asarray(queries, dtype=np.int64))
        rhs = _indicator(self.adj.shape[0], queries)
        solved = self._solve("rwr", 1.0 - self.restart, self._spread, rhs)
        return solved / solved.sum(axis=0, keepdims=True)

    def php(self, queries) -> np.ndarray:
        """Converged PHP vectors, one column per query node.

        PHP is 1 at ``q`` and ``c·(Â x)_u / d_u`` elsewhere (0 for isolated
        nodes).  With ``M = I − c D⁻¹Â``, the system for ``q`` is ``M`` with
        row ``q`` replaced by ``e_qᵀ``; Sherman–Morrison turns its solution
        into ``z / z_q`` for ``z = M⁻¹ e_q``, so one factorization serves
        every query.
        """
        queries = np.atleast_1d(np.asarray(queries, dtype=np.int64))
        rhs = _indicator(self.adj.shape[0], queries)
        solved = self._solve("php", self.continuation, self._average, rhs)
        return solved / solved[queries, np.arange(queries.size)]

    def hop(self, queries) -> np.ndarray:
        return hop_exact(self.adj, queries)


def rwr_exact(adj: sp.csr_matrix, queries, *, restart: float = 0.05, method: str = "lu"):
    """Converged RWR vectors, one column per query (see :meth:`Reference.rwr`)."""
    return Reference(adj, restart=restart, method=method).rwr(queries)


def php_exact(adj: sp.csr_matrix, queries, *, continuation: float = 0.95, method: str = "lu"):
    """Converged PHP vectors, one column per query (see :meth:`Reference.php`)."""
    return Reference(adj, continuation=continuation, method=method).php(queries)


def hop_exact(adj: sp.csr_matrix, queries) -> np.ndarray:
    """Unweighted BFS hop counts, one column per query node; unreachable
    nodes get the longest shortest path observed from that query."""
    queries = np.atleast_1d(np.asarray(queries, dtype=np.int64))
    pattern = adj.copy()
    pattern.data[:] = 1.0
    dist = shortest_path(pattern, directed=False, unweighted=True, indices=queries)
    dist = np.atleast_2d(dist)
    for row in dist:
        finite = np.isfinite(row)
        row[~finite] = row[finite].max()
    return dist.T


def summary_size_bits(num_nodes: int, supernode_of: np.ndarray, num_superedges: int) -> float:
    """Eq. 3: ``2|P| log2|S| + |V| log2|S|`` (``log2 1 = 0``)."""
    s = np.unique(np.asarray(supernode_of)).size
    log_s = math.log2(s) if s > 1 else 0.0
    return 2.0 * num_superedges * log_s + num_nodes * log_s


def graph_size_bits(num_nodes: int, num_edges: int) -> float:
    """Eq. 4: ``2|E| log2|V|``."""
    return 2.0 * num_edges * math.log2(num_nodes) if num_nodes > 1 else 0.0


def rwr_tolerance(max_iterations: int, tolerance: float, *, restart: float = 0.05) -> float:
    """L1 distance an Alg. 6 answer may have from the fixed point.

    The iteration contracts by ``p = 1 − restart`` in L1 on sum-zero error
    vectors and starts within L1 distance 2, so the iteration cap leaves
    at most ``2 p^K``; stopping early on an L1 step below ``tolerance``
    leaves at most ``p·tolerance / (1 − p)``.
    """
    p = 1.0 - restart
    return 2.0 * p**max_iterations + p * tolerance / (1.0 - p) + FLOAT_SLACK


def php_tolerance(max_iterations: int, tolerance: float, *, continuation: float = 0.95) -> float:
    """Max-norm distance a PHP power iteration may have from its fixed point.

    The iteration contracts by ``c`` in the max norm and starts within
    ``c`` of the fixed point, so the cap leaves at most ``c^(K+1)``; an
    early stop leaves at most ``c·tolerance / (1 − c)``.
    """
    c = continuation
    return c ** (max_iterations + 1) + c * tolerance / (1.0 - c) + FLOAT_SLACK


def smape(exact: np.ndarray, approximate: np.ndarray) -> float:
    """Mean of ``|x − y| / (|x| + |y|)`` over nodes (0 where both are 0)."""
    x = np.asarray(exact, dtype=np.float64)
    y = np.asarray(approximate, dtype=np.float64)
    denom = np.abs(x) + np.abs(y)
    terms = np.zeros_like(denom)
    np.divide(np.abs(x - y), denom, out=terms, where=denom > 0)
    return float(terms.mean())
