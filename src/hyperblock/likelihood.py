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

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .core import Hyperedge, HypergraphLayer, _draw_fresh
from .internal_degree import InternalDegreeTable

__all__ = [
    "DegenerateStateError",
    "LatentState",
    "LayerConstants",
    "RateCarry",
    "ThetaIncidence",
    "mu",
    "lambda_e",
    "lambda_ij",
    "sample_negatives",
    "layer_constants",
    "cross_rates",
    "pairwise_outer",
    "pairwise_interaction_sum",
]

W_SYMMETRY_TOL = 1e-12


class DegenerateStateError(RuntimeError):
    """A zero Poisson rate was assigned to an observed interaction.

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


@dataclass(frozen=True)
class LayerConstants:
    """The closed-form penalty constant of one layer and its inputs."""

    q_pairs: int
    m_count: int
    c_l: float


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


def lambda_ij(u_i: np.ndarray, u_j: np.ndarray, w_cross: np.ndarray) -> float:
    """Inter-layer edge rate u_i w_cross u_j."""
    u_i = np.asarray(u_i, dtype=float)
    u_j = np.asarray(u_j, dtype=float)
    if w_cross.shape != (u_i.shape[0], u_j.shape[0]):
        raise ValueError(
            f"w_cross has shape {w_cross.shape}, expected {(u_i.shape[0], u_j.shape[0])}"
        )
    return float(u_i @ w_cross @ u_j)


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


def layer_constants(layer: HypergraphLayer, m_override: Optional[int] = None) -> LayerConstants:
    """Pair count, edge count and the positive penalty constant of a layer.

    The constant is m * (1/q + 2/(n(n-1))) and enters the objective with a
    minus sign; it depends on hyperedge counts and sizes, never on weights.
    """
    sizes = np.diff(layer.offsets)
    q = int((sizes * (sizes - 1) // 2).sum())
    if q == 0:
        raise ValueError("layer has no hyperedges")
    m = int(m_override) if m_override is not None else layer.num_hyperedges
    n = layer.num_nodes
    c_l = m * (1.0 / q + 2.0 / (n * (n - 1)))
    return LayerConstants(q_pairs=q, m_count=m, c_l=c_l)


def _per_restart_product(mat: sparse.spmatrix, x: np.ndarray, core_ndim: int) -> np.ndarray:
    """``mat @ x[r]`` for every r along the leading restart axis of x.

    ``core_ndim`` is the rank of one restart's operand: 1 for a vector, 2
    for a matrix.  All restarts go through one sparse product whose
    columns are theirs side by side, so each restart gets exactly the sums
    it would get alone.
    """
    if core_ndim == 1:
        return np.ascontiguousarray(np.asarray(mat @ x.T).T)
    # column c * R + r holds column c of restart r
    r, n, k = x.shape
    out = np.asarray(mat @ x.transpose(1, 2, 0).reshape(n, k * r))
    return np.ascontiguousarray(out.reshape(-1, k, r).transpose(2, 0, 1))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] * b[..., k] as one multiply-reduce; about 3x faster
    than ``(a * b).sum(axis=-1)`` over a short last axis."""
    return np.einsum("...k,...k->...", a, b)


class ThetaIncidence:
    """Contribution-weighted sparse incidence (nodes x hyperedges) of a layer.

    Carries the machinery shared by rate evaluation and the EM updates:
    ``b`` holds the per-(node, edge) contribution, ``b2`` its square, and
    ``bt``/``b2t`` their transposes, all built once.  Edge sums and rates
    take u and w stacked along a leading restart axis, as the engine does,
    and return one row per restart.
    """

    def __init__(self, layer: HypergraphLayer, table: InternalDegreeTable):
        if table.offsets.size != layer.num_hyperedges + 1:
            raise ValueError(
                f"table covers {table.offsets.size - 1} hyperedges, "
                f"layer has {layer.num_hyperedges}"
            )
        shape = (layer.num_nodes, layer.num_hyperedges)
        # the table is the incidence in column-major form
        self.b = sparse.csc_matrix((table.values, table.nodes, table.offsets), shape=shape).tocsr()
        self.b2 = self.b.multiply(self.b).tocsr()
        # transposed views, built once; their products sum each edge's nodes
        # in ascending order
        self.bt, self.b2t = self.b.T, self.b2.T
        self.weights = layer.weights

    def edge_sums(self, u: np.ndarray) -> np.ndarray:
        """s_e = sum_{i in e} theta_ie u_i, shape (R, m, K)."""
        return _per_restart_product(self.bt, u, 2)

    def edge_rates(
        self, u: np.ndarray, w: np.ndarray, sums: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All observed-hyperedge rates at once via the factored contraction,
        shape (R, m).

        ``sums`` is ``edge_sums(u)`` when the caller already holds it.
        """
        s = self.edge_sums(u) if sums is None else sums
        first = _row_dots(s @ w, s)
        second = _per_restart_product(self.b2t, _row_dots(u @ w, u), 1)
        return 0.5 * (first - second)


@dataclass
class RateCarry:
    """Rate quantities already computed for one stacked state.

    ``sums[l]`` holds layer l's edge sums, ``rates[l]`` its hyperedge rates,
    ``cross[i]`` the rates of the stored pairs of inter-edge set i and
    ``ratios[i]`` their weights divided by those rates (the data of the
    one cross-ratio matrix of the set, filled by ``EMEngine``, whose u
    updates read it for both layers), each with a leading restart axis; a
    missing key is not computed yet.  A carry describes one state: the
    methods below compute what is missing at the state they are given and
    keep it, so the caller passes a carry only with the state it was
    filled for.  ``EMEngine.sweep`` refills it for the state it returns.
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
            self.rates[l] = inc.edge_rates(u, w, sums=self.edge_sums(inc, l, u))
        return self.rates[l]

    def cross_rates(self, idx: int, ua, ub, w_cross, rows, cols) -> np.ndarray:
        if idx not in self.cross:
            self.cross[idx] = cross_rates(ua, ub, w_cross, rows, cols)
        return self.cross[idx]


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
    s = u.sum(axis=-2)
    return 0.5 * (s[..., :, None] * s[..., None, :] - np.swapaxes(u, -1, -2) @ u)


def pairwise_interaction_sum(u: np.ndarray, w: np.ndarray):
    """sum_{i<j} u_i w u_j^T over all node pairs of a layer (w symmetric);
    one value per restart for stacked u, w."""
    return np.sum(w * pairwise_outer(u), axis=(-2, -1))
