"""EM fitting of the coupled-hypergraph block model.

Each sweep recomputes the closed-form variational marginals, then applies
the multiplicative stationarity updates family by family: memberships u for
every layer, then within-layer affinities w, then cross-layer affinities.
Multiple random restarts guard against local optima; the restart with the
highest final objective wins.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import sparse

from .core import Hyperedge, MultiHypergraph
from .internal_degree import InternalDegreeTable, theta_table
from .likelihood import (
    DegenerateStateError,
    LatentState,
    LayerConstants,
    ThetaIncidence,
    _factored_rate,
    cross_rates,
    inter_edge_arrays,
    layer_constants,
    pairwise_outer,
    sample_negatives,  # noqa: F401  (kept importable from this module)
    surrogate_objective,
)

__all__ = [
    "InferenceConfig",
    "FitResult",
    "NonFiniteUpdateError",
    "FitFailureError",
    "EMEngine",
    "initialize",
    "e_step_hyperedge",
    "e_step_pair",
    "fit",
]


class NonFiniteUpdateError(RuntimeError):
    """A multiplicative update hit a zero denominator with positive numerator."""


class FitFailureError(RuntimeError):
    """Every restart collapsed into a degenerate state."""


@dataclass
class InferenceConfig:
    """Knobs for one EM fit."""

    k_per_layer: Sequence[int]
    restarts: int = 10
    max_iters: int = 500
    tol: float = 1e-7
    check_every: int = 5
    assortative: bool = False
    seed: int = 0
    m_override: Optional[int] = None

    def validate(self, num_layers: int) -> None:
        if len(self.k_per_layer) != num_layers:
            raise ValueError(
                f"k_per_layer has {len(self.k_per_layer)} entries for {num_layers} layers"
            )
        if any(k < 1 for k in self.k_per_layer):
            raise ValueError("community counts must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("max_iters and check_every must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Converged latent state plus the objective trace of the winning restart."""

    state: LatentState
    objective_trace: tuple[tuple[int, float], ...]
    best_restart: int
    converged: bool

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1][1]

    @property
    def iterations(self) -> int:
        return self.objective_trace[-1][0]


def _open_unit(rng: np.random.Generator, shape) -> np.ndarray:
    # uniform on (0.05, 1]: bounded away from the absorbing zero of the updates
    return 0.05 + 0.95 * (1.0 - rng.random(shape))


def initialize(mh: MultiHypergraph, cfg: InferenceConfig, restart_seed: int) -> LatentState:
    """Random state for one restart, deterministic given the restart seed.

    u and the w diagonals draw uniform on (0.05, 1]; w off-diagonals draw
    the same way unless ``assortative`` pins them to exactly zero (the
    multiplicative updates then keep them zero for good).
    """
    rng = np.random.default_rng(restart_seed)
    u = tuple(
        _open_unit(rng, (layer.num_nodes, cfg.k_per_layer[l]))
        for l, layer in enumerate(mh.layers)
    )
    w = []
    for l in range(mh.num_layers):
        k = cfg.k_per_layer[l]
        # same draw count for both modes, so paired restarts share diagonals
        raw = _open_unit(rng, (k, k))
        if cfg.assortative:
            mat = np.diag(np.diag(raw))
        else:
            mat = np.triu(raw) + np.triu(raw, 1).T
        w.append(mat)
    w_cross = {}
    for s in mh.inter_edges:
        ka, kb = cfg.k_per_layer[s.layer_a], cfg.k_per_layer[s.layer_b]
        w_cross[(s.layer_a, s.layer_b)] = _open_unit(rng, (ka, kb))
    return LatentState(u, tuple(w), w_cross)


def e_step_hyperedge(e, theta, u: np.ndarray, w: np.ndarray):
    """Variational marginals of one hyperedge at the current state.

    Returns (per-node marginals aligned with e.nodes, summing to 2 overall;
    symmetrized community-pair marginal summing to 1).
    """
    nodes = e.nodes if isinstance(e, Hyperedge) else tuple(e)
    x, s, lam = _factored_rate(nodes, theta, u, w)
    if lam <= 0:
        raise DegenerateStateError(f"zero rate for hyperedge {nodes}")
    p_node = x * ((s - x) @ w) / lam
    p_pair = 0.5 * w * (np.outer(s, s) - x.T @ x) / lam
    return p_node, p_pair


def e_step_pair(u_i: np.ndarray, u_j: np.ndarray, w_cross: np.ndarray) -> np.ndarray:
    """Variational community-pair distribution of one inter-edge (sums to 1)."""
    mass = np.outer(u_i, u_j) * w_cross
    lam = mass.sum()
    if lam <= 0:
        raise DegenerateStateError("zero rate on observed inter-edge")
    return mass / lam


def _guarded_ratio(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    if np.any((num > 0) & (den <= 0)):
        raise NonFiniteUpdateError(f"zero denominator with positive numerator in {what}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(num > 0, num / den, 0.0)
    return out


def _with_data(template: sparse.csr_matrix, data: np.ndarray) -> sparse.csr_matrix:
    """A matrix sharing the template's sparsity structure, holding ``data``.

    A shallow copy: the index arrays are shared and never written.
    """
    out = copy.copy(template)
    out.data = data
    return out


class EMEngine:
    """Vectorized sweep machinery bound to one multi-hypergraph.

    Precomputes, once and from the data alone, the per-layer
    contribution-weighted incidences, the closed-form penalty constants and
    the sparsity structure of every cross-ratio matrix; all restarts share
    them.  Update methods are pure functions of the passed-in state.
    """

    def __init__(
        self,
        mh: MultiHypergraph,
        tables: Optional[Sequence[InternalDegreeTable]] = None,
        consts: Optional[Sequence[LayerConstants]] = None,
        m_override: Optional[int] = None,
    ):
        self.mh = mh
        self.tables = tuple(tables) if tables is not None else tuple(
            theta_table(layer) for layer in mh.layers
        )
        self.incidences = [
            ThetaIncidence(layer, table) for layer, table in zip(mh.layers, self.tables)
        ]
        if consts is not None:
            self.consts = tuple(consts)
        else:
            self.consts = tuple(
                layer_constants(layer, m_override=m_override) for layer in mh.layers
            )
        # per inter-edge set: flat (rows, cols, weights) and the CSR pattern of
        # its cross-ratio matrix (stored pairs are sorted, so CSR order is
        # storage order); plus which sets touch a layer
        self._cross_arrays = [inter_edge_arrays(s) for s in mh.inter_edges]
        self._cross_patterns = []
        self._touching: list[list[tuple[int, bool]]] = [[] for _ in mh.layers]
        for idx, (s, (rows, cols, vals)) in enumerate(zip(mh.inter_edges, self._cross_arrays)):
            shape = (mh.layers[s.layer_a].num_nodes, mh.layers[s.layer_b].num_nodes)
            indptr = np.zeros(shape[0] + 1, dtype=int)
            np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
            self._cross_patterns.append(sparse.csr_matrix((vals, cols, indptr), shape=shape))
            self._touching[s.layer_a].append((idx, False))
            self._touching[s.layer_b].append((idx, True))

    # -- rate evaluation -----------------------------------------------------

    def _edge_multipliers(self, state: LatentState, l: int):
        """(A_e / rate_e, per-edge membership sums) for the layer's hyperedges."""
        inc = self.incidences[l]
        s = inc.edge_sums(state.u[l])
        rates = inc.edge_rates(state.u[l], state.w[l], sums=s)
        if np.any(rates <= 0):
            raise DegenerateStateError(f"zero rate on observed hyperedge in layer {l}")
        return inc.weights / rates, s

    def _cross_ratio(self, state: LatentState, idx: int) -> sparse.csr_matrix:
        """Sparse S_ij / rate_ij over the stored inter-edges of one pair."""
        s = self.mh.inter_edges[idx]
        rows, cols, vals = self._cross_arrays[idx]
        ua, ub = state.u[s.layer_a], state.u[s.layer_b]
        rates = cross_rates(ua, ub, state.w_cross[(s.layer_a, s.layer_b)], rows, cols)
        if np.any(rates <= 0):
            raise DegenerateStateError(
                f"zero rate on observed inter-edge of pair ({s.layer_a}, {s.layer_b})"
            )
        return _with_data(self._cross_patterns[idx], vals / rates)

    # -- update rules --------------------------------------------------------

    def updated_u(
        self,
        state: LatentState,
        l: int,
        ratios: Optional[Mapping[int, sparse.csr_matrix]] = None,
    ) -> np.ndarray:
        """Membership update of layer l.

        ``ratios`` maps each inter-edge set index to its cross ratio at
        ``state``; computed here when omitted.
        """
        u, w = state.u[l], state.w[l]
        mult, edge_sums = self._edge_multipliers(state, l)
        inc = self.incidences[l]

        weighted = _with_data(inc.b, inc.b.data * mult[inc.b.indices])
        first = np.asarray(weighted @ edge_sums)
        second = (inc.b2 @ mult)[:, None] * u
        num = u * ((first - second) @ w)

        col_sums = u.sum(axis=0)
        den = self.consts[l].c_l * ((col_sums @ w)[None, :] - u @ w)

        for idx, transposed in self._touching[l]:
            s = self.mh.inter_edges[idx]
            ratio = ratios[idx] if ratios is not None else self._cross_ratio(state, idx)
            w_c = state.w_cross[(s.layer_a, s.layer_b)]
            if not transposed:
                other = state.u[s.layer_b]
                num += u * np.asarray(ratio @ (other @ w_c.T))
                den = den + (w_c @ other.sum(axis=0))[None, :]
            else:
                other = state.u[s.layer_a]
                num += u * np.asarray(ratio.T @ (other @ w_c))
                den = den + (other.sum(axis=0) @ w_c)[None, :]
        return _guarded_ratio(num, den, f"u update of layer {l}")

    def updated_w(self, state: LatentState, l: int) -> np.ndarray:
        u, w = state.u[l], state.w[l]
        mult, edge_sums = self._edge_multipliers(state, l)
        inc = self.incidences[l]

        first = edge_sums.T @ (edge_sums * mult[:, None])
        per_node = inc.b2 @ mult
        second = u.T @ (u * per_node[:, None])
        num = 0.5 * w * (first - second)
        den = self.consts[l].c_l * pairwise_outer(u)
        out = _guarded_ratio(num, den, f"w update of layer {l}")
        return 0.5 * (out + out.T)

    def updated_w_cross(self, state: LatentState, pair: tuple[int, int]) -> np.ndarray:
        idx = next(
            i for i, s in enumerate(self.mh.inter_edges) if (s.layer_a, s.layer_b) == pair
        )
        s = self.mh.inter_edges[idx]
        ua, ub = state.u[s.layer_a], state.u[s.layer_b]
        w = state.w_cross[pair]
        ratio = self._cross_ratio(state, idx)
        num = w * np.asarray(ua.T @ (ratio @ ub))
        den = np.outer(ua.sum(axis=0), ub.sum(axis=0))
        return _guarded_ratio(num, den, f"cross update of pair {pair}")

    # -- sweeps and objective ------------------------------------------------

    def sweep(self, state: LatentState) -> LatentState:
        """One EM sweep: u for all layers, then w, then cross affinities.

        Marginals are implicit: every update family re-evaluates the rates
        of the state it starts from.  The u updates of all layers start from
        the same state, so each pair's cross ratio is computed once for them.
        """
        ratios = {idx: self._cross_ratio(state, idx) for idx in range(len(self.mh.inter_edges))}
        new_u = tuple(self.updated_u(state, l, ratios) for l in range(self.mh.num_layers))
        state = LatentState(new_u, state.w, state.w_cross)
        new_w = tuple(self.updated_w(state, l) for l in range(self.mh.num_layers))
        state = LatentState(state.u, new_w, state.w_cross)
        new_cross = {
            (s.layer_a, s.layer_b): self.updated_w_cross(state, (s.layer_a, s.layer_b))
            for s in self.mh.inter_edges
        }
        return LatentState(state.u, state.w, new_cross)

    def objective(self, state: LatentState) -> float:
        return surrogate_objective(
            self.mh, self.tables, state, self.consts, incidences=self.incidences,
            inter_arrays=self._cross_arrays,
        )


def _run_restart(engine: EMEngine, mh: MultiHypergraph, cfg: InferenceConfig, restart: int):
    state = initialize(mh, cfg, cfg.seed + restart)
    trace = [(0, engine.objective(state))]
    prev = trace[0][1]
    below = 0
    converged = False
    for it in range(1, cfg.max_iters + 1):
        state = engine.sweep(state)
        if it % cfg.check_every == 0 or it == cfg.max_iters:
            obj = engine.objective(state)
            trace.append((it, obj))
            rel = abs(obj - prev) / max(abs(prev), 1e-300)
            below = below + 1 if rel < cfg.tol else 0
            prev = obj
            if below >= 2:
                converged = True
                break
    return state, tuple(trace), converged


def fit(mh: MultiHypergraph, cfg: InferenceConfig) -> FitResult:
    """Multi-restart EM fit; returns the restart with the best final objective.

    Node contributions and the closed-form penalty constants are computed
    once from the data (no unobserved hyperedges are sampled); restart r
    then initializes from ``cfg.seed + r``.  Restarts that collapse to a
    degenerate state are dropped; if all do, FitFailureError is raised.
    """
    cfg.validate(mh.num_layers)
    for l, layer in enumerate(mh.layers):
        if layer.num_hyperedges == 0:
            raise ValueError(f"layer {l} has no hyperedges")
    engine = EMEngine(mh, m_override=cfg.m_override)
    best = None
    for restart in range(cfg.restarts):
        try:
            state, trace, converged = _run_restart(engine, mh, cfg, restart)
        except (DegenerateStateError, NonFiniteUpdateError):
            continue
        if best is None or trace[-1][1] > best.final_objective:
            best = FitResult(state, trace, restart, converged)
    if best is None:
        raise FitFailureError("all restarts degenerate")
    return best
