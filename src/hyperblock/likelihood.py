"""Poisson rate kernels of the approximated log-likelihood.

The rate of a hyperedge couples every node pair inside it through the
memberships u, the symmetric affinity w and the per-edge node contributions;
the rate of an inter-layer edge is the bilinear form u_i w_cross u_j.  The
intractable sum over all candidate hyperedges collapses into a single
per-layer constant c_l = m (1/q + 2/(n(n-1))) multiplying the global
pairwise interaction sum; c_l is closed-form in the hyperedge count m, the
pair count q and the node count n, so fitting draws no unobserved
hyperedges.  ``EMEngine.objective`` (in ``inference``) sums the objective
from these kernels.  ``sample_negatives`` serves the evaluation protocols
only.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .core import Hyperedge, HypergraphLayer, InterEdgeSet, _draw_fresh
from .internal_degree import InternalDegreeTable

__all__ = [
    "DegenerateStateError",
    "LatentState",
    "RateCarry",
    "ThetaIncidence",
    "mu",
    "lambda_e",
    "sample_negatives",
    "layer_constants",
    "cross_rates",
    "pairwise_outer",
    "pairwise_interaction_sum",
]

W_SYMMETRY_TOL = 1e-12


class DegenerateStateError(RuntimeError):
    """A zero Poisson rate was assigned to an observed interaction.

    ``RateCarry`` raises it where it computes the rates of a state.
    ``restarts`` holds the positions, along the restart axis of a stacked
    state, of every restart that failed the check.
    """

    def __init__(self, message: str, restarts: Sequence[int] = ()):
        super().__init__(message)
        self.restarts = tuple(int(r) for r in restarts)


def _failing_restarts(bad: np.ndarray) -> np.ndarray:
    """Positions along the leading (restart) axis where ``bad`` holds anywhere."""
    return np.flatnonzero(bad.reshape(bad.shape[0], -1).any(axis=1))


@dataclass(frozen=True)
class LatentState:
    """All latent variables: per-layer u and w, per-layer-pair w_cross.

    The engine takes a stack of R restarts along a leading axis (see
    ``stack``): u[l] of shape (R, n_l, K_l), w[l] of (R, K_l, K_l) and
    w_cross of (R, K_a, K_b).  One restart's state, such as a fit's result
    (``take`` with an index), drops that axis; ``stack([state])`` lifts it
    to a stack of one.
    """

    u: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    w_cross: dict[tuple[int, int], np.ndarray]

    @classmethod
    def stack(cls, states: Sequence["LatentState"]) -> "LatentState":
        """One stacked state holding the given single-restart states in order."""
        first = states[0]
        return cls(
            tuple(np.stack([s.u[l] for s in states]) for l in range(len(first.u))),
            tuple(np.stack([s.w[l] for s in states]) for l in range(len(first.w))),
            {key: np.stack([s.w_cross[key] for s in states]) for key in first.w_cross},
        )

    def take(self, restarts) -> "LatentState":
        """Restart(s) of a stacked state: an index gives one restart's state,
        a list of positions a stacked state of those restarts."""
        return LatentState(
            tuple(m[restarts] for m in self.u),
            tuple(m[restarts] for m in self.w),
            {k: m[restarts] for k, m in self.w_cross.items()},
        )

    def validate(self) -> None:
        for name, mats in (("u", self.u), ("w", self.w), ("w_cross", tuple(self.w_cross.values()))):
            for m in mats:
                if not np.all(np.isfinite(m)) or np.any(m < 0):
                    raise ValueError(f"{name} entries must be finite and non-negative")
        # the last two axes are one restart's matrix, stacked or not
        for l, w in enumerate(self.w):
            transposed = np.swapaxes(w, -1, -2)
            if w.shape != transposed.shape or (
                np.max(np.abs(w - transposed), initial=0.0) > W_SYMMETRY_TOL
            ):
                raise ValueError(f"w[{l}] must be symmetric")

    def copy(self) -> "LatentState":
        return LatentState(
            tuple(m.copy() for m in self.u),
            tuple(m.copy() for m in self.w),
            {k: m.copy() for k, m in self.w_cross.items()},
        )


def mu(e_size: int) -> float:
    """Number of node pairs inside a hyperedge of the given size."""
    if e_size < 2:
        raise ValueError(f"hyperedge size must be >= 2, got {e_size}")
    return e_size * (e_size - 1) / 2.0


def _theta_vector(nodes: Sequence[int], theta) -> np.ndarray:
    if isinstance(theta, Mapping):
        return np.array([theta[n] for n in nodes], dtype=float)
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (len(nodes),):
        raise ValueError(f"theta has shape {arr.shape}, expected ({len(nodes)},)")
    return arr


def _pair_sum(x: np.ndarray, w: np.ndarray):
    """sum_{i<j} x_i w x_j^T over the rows x_i of each trailing (size, K)
    block of x; one value per leading index.

    The sum runs as sum_i x_i w a_i^T with a_i = sum_{j>i} x_j, a suffix
    sum.  Every term is non-negative and nothing is subtracted, so a node
    set whose exact rate is 0 gets exactly 0 and a tiny rate keeps its
    relative accuracy, where s w s^T - sum_i x_i w x_i^T would return
    rounding noise of either sign.
    """
    after = np.add.accumulate(x[..., :0:-1, :], axis=-2)[..., ::-1, :]
    return np.einsum("...ik,...ik->...", x[..., :-1, :] @ w, after)


def lambda_e(e: Union[Hyperedge, Sequence[int]], theta, u: np.ndarray, w: np.ndarray) -> float:
    """Hyperedge rate: sum over node pairs of the contribution-weighted
    bilinear form x_i w x_j^T with x_i = theta_i u_i, by ``_pair_sum``."""
    nodes = e.nodes if isinstance(e, Hyperedge) else tuple(e)
    x = _theta_vector(nodes, theta)[:, None] * u[list(nodes), :]
    return float(_pair_sum(x, w))


def sample_negatives(
    layer: HypergraphLayer,
    seed: int,
    sizes: Optional[Sequence[int]] = None,
) -> HypergraphLayer:
    """A layer of unit-weight node sets, one per requested size (the
    observed size multiset by default), each uniform among the node sets of
    its size that are no hyperedge of ``layer`` and not drawn already;
    deterministic given the seed.  Raises ValueError naming the size when
    too few such sets exist."""
    rng = np.random.default_rng(seed)
    n = layer.num_nodes
    sizes = np.diff(layer.offsets) if sizes is None else np.asarray(sizes, dtype=np.int64)
    want = {int(d): int(c) for d, c in zip(*np.unique(sizes, return_counts=True))}

    def draw(size, count):
        # Floyd's algorithm on all rows: column c takes t, uniform on [0, n -
        # size + c], or that bound when the row holds t; a uniform node set
        rows = rng.integers(np.arange(n - size, n) + 1, size=(count, size))
        for c in range(1, size):
            held = (rows[:, :c] == rows[:, c, None]).any(axis=1)
            rows[held, c] = n - size + c
        return np.sort(rows, axis=1)

    space = {size: math.comb(n, size) for size in want}
    nodes, offsets = _draw_fresh(layer.nodes, layer.offsets, space, want, draw)
    return HypergraphLayer.from_arrays(n, nodes, offsets, np.ones(offsets.size - 1))


def layer_constants(layer: HypergraphLayer, m_override: Optional[int] = None) -> float:
    """The positive penalty constant c_l = m * (1/q + 2/(n(n-1))) of a layer.

    q is the layer's node-pair count summed over its hyperedges and m its
    hyperedge count, or ``m_override`` when given.  The constant enters
    the objective with a minus sign; it depends on hyperedge counts and
    sizes, never on weights.
    """
    sizes = np.diff(layer.offsets)
    q = int((sizes * (sizes - 1) // 2).sum())
    if q == 0:
        raise ValueError("layer has no hyperedges")
    m = int(m_override) if m_override is not None else layer.num_hyperedges
    if m <= 0:
        raise ValueError(f"m_override must be positive, got {m}")
    n = layer.num_nodes
    return m * (1.0 / q + 2.0 / (n * (n - 1)))


class _DiagonalCopies:
    """A CSR matrix applied to every restart of a stack in one product.

    The R restarts of x go through R diagonal copies of the matrix, one
    block per restart, applied to x reshaped to (R * rows, ...).  Each copy
    sums its rows over the matrix's entries in the matrix's order, so
    restart r gets exactly ``matrix @ x[r]``.  ``views[R]`` keeps the copies
    and their CSC view, built on first use; ``views[1]`` is the matrix
    itself, there from construction.  ``pattern``, the copies of a matrix
    with the same index arrays, lends these copies its index arrays.
    """

    def __init__(self, matrix: sparse.csr_matrix, pattern: Optional["_DiagonalCopies"] = None):
        self.matrix, self._pattern = matrix, pattern
        self.views = {1: (matrix, matrix.T)}

    def _copies(self, count: int) -> tuple:
        if count not in self.views:
            m = self.matrix
            if self._pattern is not None:
                block = self._pattern._copies(count)[0]
                indptr, indices = block.indptr, block.indices
            else:
                shift = np.arange(count)[:, None]
                indptr = np.append((m.indptr[:-1] + m.nnz * shift).ravel(), count * m.nnz)
                indices = (m.indices + m.shape[1] * shift).ravel()
            block = sparse.csr_matrix((np.tile(m.data, count), indices, indptr),
                                      shape=(count * m.shape[0], count * m.shape[1]))
            self.views[count] = (block, block.T)
        return self.views[count]

    def apply(self, x: np.ndarray, data: Optional[np.ndarray] = None,
              transposed: bool = False) -> np.ndarray:
        """``matrix @ x[r]``, or ``matrix.T @ x[r]`` when ``transposed``, for
        every restart r of x (a vector or a matrix per restart), with the
        entries ``data[r]`` in place of the matrix's when given."""
        count = x.shape[0]
        mat = self._copies(count)[transposed]
        if data is not None:
            mat = copy.copy(mat)  # shares the index arrays, which are never written
            mat.data = data.ravel()
        out = mat @ x.reshape(count * x.shape[1], *x.shape[2:])
        return np.asarray(out).reshape(count, -1, *x.shape[2:])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] * b[..., k] as one multiply-reduce; about 3x faster
    than ``(a * b).sum(axis=-1)`` over a short last axis."""
    return np.einsum("...k,...k->...", a, b)


def _column_sums(u: np.ndarray) -> np.ndarray:
    """``u.sum(axis=-2)`` with the same bytes.

    The reduction runs numpy's inner loop over the short last axis, once per
    row; ``einsum`` adds whole rows in the same order at a fraction of the
    cost.  It matches bit for bit only when that axis is contiguous and has
    two or more entries; otherwise ``einsum`` sums the rows pairwise, so
    ``sum`` is kept.
    """
    if u.flags.c_contiguous and u.shape[-1] >= 2:
        return np.einsum("...nk->...k", u)
    return u.sum(axis=-2)


class ThetaIncidence:
    """Contribution-weighted sparse incidence (nodes x hyperedges) of a layer.

    Carries the machinery shared by rate evaluation and the EM updates:
    ``b`` holds the per-(node, edge) contribution and ``b2`` its square,
    built once; ``b_copies`` and ``b2_copies`` apply them to a restart
    stack and keep their diagonal copies (``_DiagonalCopies``).  Edge sums
    and rates take u and w stacked along a leading restart axis, as the
    engine does, and return one row per restart.
    """

    def __init__(self, layer: HypergraphLayer, table: InternalDegreeTable):
        if table.offsets.size != layer.num_hyperedges + 1:
            raise ValueError(
                f"table covers {table.offsets.size - 1} hyperedges, "
                f"layer has {layer.num_hyperedges}"
            )
        shape = (layer.num_nodes, layer.num_hyperedges)
        # the table is the incidence in column-major form
        self.b = b = sparse.csc_matrix(
            (table.values, table.nodes, table.offsets), shape=shape
        ).tocsr()
        # every node of an edge contributes > 0, so b2 shares b's index arrays
        self.b2 = sparse.csr_matrix((b.data * b.data, b.indices, b.indptr), shape=shape)
        self.b_copies = _DiagonalCopies(self.b)
        self.b2_copies = _DiagonalCopies(self.b2, self.b_copies)
        self.weights = layer.weights

    def edge_sums(self, u: np.ndarray) -> np.ndarray:
        """s_e = sum_{i in e} theta_ie u_i, shape (R, m, K)."""
        return self.b_copies.apply(u, transposed=True)

    def edge_rates(self, u: np.ndarray, w: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """All observed-hyperedge rates at once via the factored contraction,
        shape (R, m); ``sums`` is ``edge_sums(u)``."""
        first = _row_dots(sums @ w, sums)
        second = self.b2_copies.apply(_row_dots(u @ w, u), transposed=True)
        return 0.5 * (first - second)


@dataclass
class RateCarry:
    """Rate quantities already computed for one stacked state.

    ``sums[l]`` holds layer l's edge sums, ``rates[l]`` its hyperedge rates,
    ``cross[(a, b)]`` the rates of the stored pairs of the inter-edge set
    joining layers a < b and ``ratios[(a, b)]`` their weights divided by
    those rates (the data of the one cross-ratio matrix of the set, whose
    u updates read it for both layers), each with a leading restart axis;
    a missing key is not computed yet.  A carry describes one state: the
    methods below compute what is missing at the state they are given and
    keep it, so the caller passes a carry only with the state it was
    filled for.
    ``EMEngine.sweep`` refills it for the state it returns.

    The carry is the one place that computes the rates of observed
    interactions, so it is the one place that checks them: where a rate
    array is first computed, any rate <= 0 raises DegenerateStateError
    naming the failing restarts.  The array is kept before the error is
    raised, so a caller drops those restarts with ``take`` and reuses the
    carry for the rest.
    """

    sums: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    cross: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)

    def take(self, restarts) -> "RateCarry":
        """The carry of the given restart positions of the state."""
        return RateCarry(*(
            {key: m[restarts] for key, m in part.items()}
            for part in (self.sums, self.rates, self.cross, self.ratios)
        ))

    def edge_sums(self, inc: ThetaIncidence, l: int, u: np.ndarray) -> np.ndarray:
        if l not in self.sums:
            self.sums[l] = inc.edge_sums(u)
        return self.sums[l]

    def edge_rates(self, inc: ThetaIncidence, l: int, u: np.ndarray, w: np.ndarray):
        if l not in self.rates:
            rates = self.rates[l] = inc.edge_rates(u, w, self.edge_sums(inc, l, u))
            zero = rates <= 0
            if zero.any():
                raise DegenerateStateError(
                    f"zero rate on observed hyperedge in layer {l}", _failing_restarts(zero)
                )
        return self.rates[l]

    def cross_rates(self, s: InterEdgeSet, state: LatentState) -> np.ndarray:
        """Rates of the stored pairs of ``s``, kept under its layer pair."""
        pair = (s.layer_a, s.layer_b)
        if pair not in self.cross:
            rates = self.cross[pair] = cross_rates(
                state.u[s.layer_a], state.u[s.layer_b], state.w_cross[pair], s.rows, s.cols
            )
            zero = rates <= 0
            if zero.any():
                failing = _failing_restarts(zero)
                k = np.flatnonzero(zero[failing[0]])[0]
                raise DegenerateStateError(
                    f"zero rate on observed inter-edge ({s.rows[k]}, {s.cols[k]}) of pair "
                    f"({s.layer_a}, {s.layer_b})",
                    failing,
                )
        return self.cross[pair]

    def cross_ratios(self, s: InterEdgeSet, state: LatentState) -> np.ndarray:
        """S_ij / rate_ij over the stored pairs of ``s``, shape (R, nnz)."""
        pair = (s.layer_a, s.layer_b)
        if pair not in self.ratios:
            self.ratios[pair] = s.weights / self.cross_rates(s, state)
        return self.ratios[pair]


def cross_rates(
    ua: np.ndarray, ub: np.ndarray, w_cross: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Rates u_i w_cross u_j of the node pairs (rows[k], cols[k]).

    u_i w_cross is formed once per node of layer a, then gathered per pair.
    """
    return _row_dots(np.take(ua @ w_cross, rows, axis=-2), np.take(ub, cols, axis=-2))


def pairwise_outer(u: np.ndarray) -> np.ndarray:
    """Symmetrized sum of u_i (x) u_j over all unordered node pairs (per
    restart when u has a leading restart axis)."""
    s = _column_sums(u)
    return 0.5 * (s[..., :, None] * s[..., None, :] - np.swapaxes(u, -1, -2) @ u)


def pairwise_interaction_sum(u: np.ndarray, w: np.ndarray):
    """sum_{i<j} u_i w u_j^T over all node pairs of a layer (w symmetric);
    one value per restart for stacked u, w."""
    return np.sum(w * pairwise_outer(u), axis=(-2, -1))
