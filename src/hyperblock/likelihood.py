"""Poisson rate kernels and the approximated log-likelihood objective.

The rate of a hyperedge couples every node pair inside it through the
memberships u, the symmetric affinity w and the per-edge node contributions;
the rate of an inter-layer edge is the bilinear form u_i w_cross u_j.  The
intractable sum over all candidate hyperedges collapses into a single
per-layer constant c_l = m (1/q + 2/(n(n-1))) multiplying the global
pairwise interaction sum; c_l is closed-form in the hyperedge count m, the
pair count q and the node count n, so fitting draws no unobserved
hyperedges.  ``sample_negatives`` serves the evaluation protocols only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .core import Hyperedge, HypergraphLayer, InterEdgeSet, MultiHypergraph
from .internal_degree import InternalDegreeTable

__all__ = [
    "DegenerateStateError",
    "LatentState",
    "LayerConstants",
    "ThetaIncidence",
    "mu",
    "lambda_e",
    "lambda_ij",
    "sample_negatives",
    "layer_constants",
    "inter_edge_arrays",
    "cross_rates",
    "pairwise_outer",
    "pairwise_interaction_sum",
    "surrogate_objective",
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

    One restart holds u[l] of shape (n_l, K_l) and w[l] of (K_l, K_l); a
    stacked state (see ``stack``) holds R restarts along a leading axis,
    u[l] of shape (R, n_l, K_l) and w[l] of (R, K_l, K_l).
    """

    u: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    w_cross: dict[tuple[int, int], np.ndarray]

    @property
    def stacked(self) -> bool:
        return self.u[0].ndim == 3

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
        for l, w in enumerate(self.w):
            if w.shape[0] != w.shape[1] or np.max(np.abs(w - w.T), initial=0.0) > W_SYMMETRY_TOL:
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


def _factored_rate(nodes: tuple[int, ...], theta, u: np.ndarray, w: np.ndarray):
    """(x, s, rate) of one node set via the factored contraction.

    x_i is the contribution-scaled membership row of node i, s their sum,
    and rate = 0.5 * (s w s^T - sum_i x_i w x_i^T); valid because w is
    symmetric.
    """
    x = _theta_vector(nodes, theta)[:, None] * u[list(nodes), :]
    s = x.sum(axis=0)
    return x, s, 0.5 * (s @ w @ s - ((x @ w) * x).sum())


def lambda_e(e: Union[Hyperedge, Sequence[int]], theta, u: np.ndarray, w: np.ndarray) -> float:
    """Hyperedge rate: sum over node pairs of the contribution-weighted
    bilinear form, computed by ``_factored_rate``."""
    nodes = e.nodes if isinstance(e, Hyperedge) else tuple(e)
    return float(_factored_rate(nodes, theta, u, w)[2])


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
    forbidden: Optional[set[tuple[int, ...]]] = None,
    max_attempts: int = 1000,
) -> list[tuple[int, ...]]:
    """Sample unobserved node sets matching the observed size multiset.

    One sorted node tuple per requested size, drawn uniformly over node
    sets and rejected while observed (or in ``forbidden``) or already drawn.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = layer.sizes()
    taken = set(forbidden) if forbidden is not None else layer.node_sets()
    negatives = []
    n = layer.num_nodes
    for size in sizes:
        if size > n:
            raise ValueError(f"cannot sample a hyperedge of size {size} from {n} nodes")
        for _ in range(max_attempts):
            candidate = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            if candidate not in taken:
                taken.add(candidate)
                negatives.append(candidate)
                break
        else:
            raise ValueError(
                f"failed to sample an unobserved hyperedge of size {size} "
                f"after {max_attempts} attempts (space exhausted?)"
            )
    return negatives


def layer_constants(layer: HypergraphLayer, m_override: Optional[int] = None) -> LayerConstants:
    """Pair count, edge count and the positive penalty constant of a layer.

    The constant is m * (1/q + 2/(n(n-1))) and enters the objective with a
    minus sign; it depends on hyperedge counts and sizes, never on weights.
    """
    q = sum(s * (s - 1) // 2 for s in layer.sizes())
    if q == 0:
        raise ValueError("layer has no hyperedges")
    m = int(m_override) if m_override is not None else layer.num_hyperedges
    n = layer.num_nodes
    c_l = m * (1.0 / q + 2.0 / (n * (n - 1)))
    return LayerConstants(q_pairs=q, m_count=m, c_l=c_l)


def _per_restart_product(mat: sparse.spmatrix, x: np.ndarray, core_ndim: int) -> np.ndarray:
    """``mat @ x``, or ``mat @ x[r]`` for every r when x has a leading restart axis.

    ``core_ndim`` is the rank of one restart's operand: 1 for a vector, 2
    for a matrix.  All restarts go through one sparse product whose
    columns are theirs side by side, so each restart gets exactly the sums
    it would get alone.
    """
    if x.ndim == core_ndim:
        return np.asarray(mat @ x)
    moved = np.moveaxis(x, 0, -1)
    out = np.asarray(mat @ moved.reshape(x.shape[1], -1))
    return np.ascontiguousarray(np.moveaxis(out.reshape((-1,) + moved.shape[1:]), -1, 0))


class ThetaIncidence:
    """Contribution-weighted sparse incidence (nodes x hyperedges) of a layer.

    Carries the machinery shared by rate evaluation and the EM updates:
    ``b`` holds the per-(node, edge) contribution, ``b2`` its square, and
    ``bt``/``b2t`` their transposes, all built once.  Rates accept one
    restart's u, w or a stack of them along a leading axis.
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
        self.weights = layer.weights()

    def edge_sums(self, u: np.ndarray) -> np.ndarray:
        """s_e = sum_{i in e} theta_ie u_i, one row per hyperedge."""
        return _per_restart_product(self.bt, u, 2)

    def edge_rates(
        self, u: np.ndarray, w: np.ndarray, sums: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All observed-hyperedge rates at once via the factored contraction.

        ``sums`` is ``edge_sums(u)`` when the caller already holds it.
        """
        s = self.edge_sums(u) if sums is None else sums
        first = ((s @ w) * s).sum(axis=-1)
        second = _per_restart_product(self.b2t, ((u @ w) * u).sum(axis=-1), 1)
        return 0.5 * (first - second)


def inter_edge_arrays(s: InterEdgeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node in a, node in b, weight) of every stored inter-edge, as flat arrays."""
    rows = np.array([i for i, _, _ in s.edges], dtype=int)
    cols = np.array([j for _, j, _ in s.edges], dtype=int)
    vals = np.array([w for _, _, w in s.edges], dtype=float)
    return rows, cols, vals


def cross_rates(
    ua: np.ndarray, ub: np.ndarray, w_cross: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Rates u_i w_cross u_j of the node pairs (rows[k], cols[k])."""
    return ((ua[..., rows, :] @ w_cross) * ub[..., cols, :]).sum(axis=-1)


def pairwise_outer(u: np.ndarray) -> np.ndarray:
    """Symmetrized sum of u_i (x) u_j over all unordered node pairs (per
    restart when u has a leading restart axis)."""
    s = u.sum(axis=-2)
    return 0.5 * (s[..., :, None] * s[..., None, :] - np.swapaxes(u, -1, -2) @ u)


def pairwise_interaction_sum(u: np.ndarray, w: np.ndarray):
    """sum_{i<j} u_i w u_j^T over all node pairs of a layer (w symmetric);
    one value per restart for stacked u, w."""
    return np.sum(w * pairwise_outer(u), axis=(-2, -1))


def _dot_last(a: np.ndarray, v: np.ndarray):
    """a @ v as one dot product per restart row of a (a matrix-vector
    product would sum in another order)."""
    return (a[..., None, :] @ v[:, None])[..., 0, 0]


def surrogate_objective(
    mh: MultiHypergraph,
    tables: Sequence[InternalDegreeTable],
    state: LatentState,
    consts: Sequence[LayerConstants],
    incidences: Optional[Sequence[ThetaIncidence]] = None,
    inter_arrays: Optional[Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]] = None,
):
    """Approximated log-likelihood at the closed-form variational optimum.

    Per layer: -c_l * (global pairwise interaction sum) plus the weighted
    log-rates of observed hyperedges.  Per layer pair: minus the total
    cross rate over all node pairs (a column-sum contraction) plus the
    weighted log-rates of observed inter-edges.  ``incidences`` and
    ``inter_arrays`` (one ``inter_edge_arrays`` triple per inter-edge set)
    are built from the data when omitted.  Returns a float for one
    restart's state and one value per restart for a stacked state.
    Raises DegenerateStateError, naming the failing restarts, when an
    observed interaction has zero rate.
    """
    if not state.stacked:
        return float(
            surrogate_objective(
                mh, tables, LatentState.stack([state]), consts, incidences, inter_arrays
            )[0]
        )
    if incidences is None:
        incidences = [ThetaIncidence(layer, table) for layer, table in zip(mh.layers, tables)]
    if inter_arrays is None:
        inter_arrays = [inter_edge_arrays(s) for s in mh.inter_edges]
    total = np.zeros(state.u[0].shape[0])
    for l, layer in enumerate(mh.layers):
        u, w = state.u[l], state.w[l]
        total -= consts[l].c_l * pairwise_interaction_sum(u, w)
        rates = incidences[l].edge_rates(u, w)
        zero = rates <= 0
        if zero.any():
            raise DegenerateStateError(
                f"zero rate on observed hyperedge in layer {l}", _failing_restarts(zero)
            )
        total += _dot_last(np.log(rates), incidences[l].weights)
    for s, (rows, cols, vals) in zip(mh.inter_edges, inter_arrays):
        ua, ub = state.u[s.layer_a], state.u[s.layer_b]
        w_cross = state.w_cross[(s.layer_a, s.layer_b)]
        total -= (ua.sum(axis=-2)[:, None, :] @ w_cross @ ub.sum(axis=-2)[:, :, None])[:, 0, 0]
        rates = cross_rates(ua, ub, w_cross, rows, cols)
        zero = rates <= 0
        if zero.any():
            failing = _failing_restarts(zero)
            k = np.flatnonzero(zero[failing[0]])[0]
            raise DegenerateStateError(
                f"zero rate on observed inter-edge ({rows[k]}, {cols[k]}) of pair "
                f"({s.layer_a}, {s.layer_b})",
                failing,
            )
        total += _dot_last(np.log(rates), vals)
    return total
