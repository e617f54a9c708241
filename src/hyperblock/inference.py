"""EM fitting of the coupled-hypergraph block model.

Each sweep recomputes the closed-form variational marginals, then applies
the multiplicative stationarity updates family by family: memberships u for
every layer, then within-layer affinities w, then cross-layer affinities.
Multiple random restarts guard against local optima; the restart with the
highest final objective wins.  The engine's methods take only states
stacked along a leading restart axis; one restart is a stack of one.
Restarts of a small instance advance together, so one sweep updates
every live restart of a batch.  Those of a large instance run one per
batch, side by side on the available cores.
"""

from __future__ import annotations

import copy
import logging
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .core import MultiHypergraph
from .internal_degree import theta_table
from .likelihood import (
    DegenerateStateError,
    LatentState,
    RateCarry,
    ThetaIncidence,
    _column_sums,
    _failing_restarts,
    _per_restart_product,
    layer_constants,
    pairwise_interaction_sum,
    pairwise_outer,
    sample_negatives,  # noqa: F401  (kept importable from this module)
)

__all__ = [
    "InferenceConfig",
    "FitResult",
    "RestartOutcome",
    "NonFiniteUpdateError",
    "FitFailureError",
    "EMEngine",
    "initialize",
    "fit",
]

log = logging.getLogger("hyperblock")

# A batch stacks as many restarts as keep R * sum_l (n_l + m_l) * K_l, the
# entries of the per-restart u and edge-sum arrays, at most this large.
# Below it a sweep is per-call overhead that stacking shares, and restarts
# share a stack.  At or above it the sweep is compute-bound, in numpy and
# scipy passes that release the GIL: stacking would only add memory, so
# each batch holds one restart and the batches share the cores.
_BATCH_ENTRIES = 1 << 17


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class NonFiniteUpdateError(RuntimeError):
    """A multiplicative update hit a zero denominator with positive numerator.

    ``restarts`` holds the positions, along the restart axis of a stacked
    state, of every restart that failed the check.
    """

    def __init__(self, message: str, restarts: Sequence[int] = ()):
        super().__init__(message)
        self.restarts = tuple(int(r) for r in restarts)


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
        if not self.tol > 0:  # NaN too
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("max_iters and check_every must be >= 1")
        if self.m_override is not None and self.m_override <= 0:
            raise ValueError(f"m_override must be positive, got {self.m_override}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RestartOutcome:
    """How one restart of a fit ended.

    ``sweeps`` counts the sweeps it completed.  A restart that ran to the
    end has its last traced objective as ``final_objective``; a dropped one
    has None there and the error class that removed it as ``dropped``.
    """

    seed: int
    final_objective: Optional[float]
    sweeps: int
    converged: bool
    dropped: Optional[str] = None


@dataclass(frozen=True)
class FitResult:
    """Converged latent state plus the objective trace of the winning restart.

    ``restarts`` holds one outcome per restart, in restart order.
    """

    state: LatentState
    objective_trace: tuple[tuple[int, float], ...]
    best_restart: int
    converged: bool
    restarts: tuple[RestartOutcome, ...]

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


def _guarded_ratio(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num / den where num > 0, else 0; the leading axis indexes restarts."""
    positive = num > 0
    bad = positive & (den <= 0)
    if bad.any():
        raise NonFiniteUpdateError(
            f"zero denominator with positive numerator in {what}", _failing_restarts(bad)
        )
    return np.divide(num, den, out=np.zeros_like(num), where=positive)


def _csr_pattern(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> sparse.csr_matrix:
    """CSR matrix of entries (rows[k], cols[k], vals[k]), given in row order."""
    indptr = np.zeros(shape[0] + 1, dtype=int)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((vals, cols, indptr), shape=shape)


def _block_pattern(template: sparse.csr_matrix, copies: int) -> sparse.csr_matrix:
    """Block-diagonal CSR holding ``copies`` copies of the template's pattern.

    Rows keep the template's entry order, so a product with it sums each
    row exactly as the template would.
    """
    nnz = template.nnz
    shift = np.arange(copies)[:, None]
    indptr = np.append((template.indptr[:-1] + nnz * shift).ravel(), copies * nnz)
    indices = (template.indices + template.shape[1] * shift).ravel()
    shape = (copies * template.shape[0], copies * template.shape[1])
    return sparse.csr_matrix((np.zeros(copies * nnz), indices, indptr), shape=shape)


def _dot_last(a: np.ndarray, v: np.ndarray):
    """a @ v as one dot product per restart row of a (a matrix-vector
    product would sum in another order)."""
    return (a[..., None, :] @ v[:, None])[..., 0, 0]


class EMEngine:
    """Vectorized sweep machinery bound to one multi-hypergraph.

    Precomputes, once and from the data alone, the per-layer
    contribution-weighted incidences, the closed-form penalty constants c_l
    and the sparsity structure of every cross-ratio matrix; all restarts
    share them.  ``consts``, one float per layer, replaces the penalty
    constants; by default each is ``layer_constants(layer)``.  Update
    methods and the objective are pure functions of the passed-in state, a
    stack of R restarts (see ``LatentState``; one restart is a stack of
    one): a stack advances as a whole, with each sparse product run once
    for all restarts, and every restart gets bit for bit the values it
    would get alone.  Products whose values differ per restart use R
    diagonal copies of the frozen pattern, built once per R.  They read
    the rates of observed interactions from a ``RateCarry``, which computes
    each rate array once and checks that every rate is positive.
    """

    def __init__(self, mh: MultiHypergraph, consts: Optional[Sequence[float]] = None):
        self.mh = mh
        # each incidence holds its own copy of the table, so none is kept
        self.incidences = [ThetaIncidence(layer, theta_table(layer)) for layer in mh.layers]
        if consts is None:
            consts = [layer_constants(layer) for layer in mh.layers]
        self.consts = tuple(consts)
        # (CSR pattern, its CSC view) per (key, restart count): the incidence
        # of each layer, keyed by its index, and the cross-ratio matrix of
        # each inter-edge set, keyed by its layer pair (stored pairs are
        # sorted, so CSR order is storage order); plus the sets touching
        # each layer, with whether the layer is the set's second
        self._patterns: dict[tuple, tuple] = {
            (l, 1): (inc.b, inc.b.T) for l, inc in enumerate(self.incidences)
        }
        self._touching: list[list] = [[] for _ in mh.layers]
        for s in mh.inter_edges:
            shape = (mh.layers[s.layer_a].num_nodes, mh.layers[s.layer_b].num_nodes)
            pattern = _csr_pattern(s.rows, s.cols, s.weights, shape)
            self._patterns[((s.layer_a, s.layer_b), 1)] = (pattern, pattern.T)
            self._touching[s.layer_a].append((s, False))
            self._touching[s.layer_b].append((s, True))

    def _stacked_product(self, key, data: np.ndarray, x: np.ndarray, transposed: bool = False):
        """The pattern of ``key`` (its CSC transpose when ``transposed``),
        holding ``data[r]`` in restart r's diagonal copy, applied to x of
        shape (R, n, k): shape (R, n', k)."""
        copies = data.shape[0]
        views = self._patterns.get((key, copies))
        if views is None:
            pattern = _block_pattern(self._patterns[(key, 1)][0], copies)
            views = self._patterns[(key, copies)] = (pattern, pattern.T)
        # a shallow copy: the index arrays are shared and never written
        mat = copy.copy(views[transposed])
        mat.data = data.ravel()
        return np.asarray(mat @ x.reshape(-1, x.shape[-1])).reshape(copies, -1, x.shape[-1])

    # -- update rules --------------------------------------------------------

    def updated_u(
        self, state: LatentState, l: int, carry: Optional[RateCarry] = None
    ) -> np.ndarray:
        """Membership update of layer l.

        ``carry`` holds rate quantities already computed at ``state`` (see
        ``RateCarry``); the ones computed here are added to it.
        """
        carry = RateCarry() if carry is None else carry
        u, w = state.u[l], state.w[l]
        inc = self.incidences[l]
        edge_sums = carry.edge_sums(inc, l, u)
        mult = inc.weights / carry.edge_rates(inc, l, u, w)

        first = self._stacked_product(
            l, inc.b.data * np.take(mult, inc.b.indices, axis=1), edge_sums
        )
        second = _per_restart_product(inc.b2, mult)[..., None] * u
        num = u * ((first - second) @ w)

        col_sums = _column_sums(u)
        den = self.consts[l] * ((col_sums[:, None, :] @ w) - u @ w)

        for s, transposed in self._touching[l]:
            pair = (s.layer_a, s.layer_b)
            ratios = carry.cross_ratios(s, state)
            w_c = state.w_cross[pair]
            # the second layer reads the CSC view of the same matrix: each
            # output row sums its entries in ascending row order of the ratio
            if not transposed:
                other = state.u[s.layer_b]
                num += u * self._stacked_product(
                    pair, ratios, other @ np.swapaxes(w_c, -1, -2)
                )
                den = den + (w_c @ _column_sums(other)[:, :, None])[:, None, :, 0]
            else:
                other = state.u[s.layer_a]
                num += u * self._stacked_product(pair, ratios, other @ w_c, transposed)
                den = den + _column_sums(other)[:, None, :] @ w_c
        return _guarded_ratio(num, den, f"u update of layer {l}")

    def updated_w(
        self, state: LatentState, l: int, carry: Optional[RateCarry] = None
    ) -> np.ndarray:
        """Affinity update of layer l; ``carry`` as for ``updated_u``."""
        carry = RateCarry() if carry is None else carry
        u, w = state.u[l], state.w[l]
        inc = self.incidences[l]
        edge_sums = carry.edge_sums(inc, l, u)
        mult = inc.weights / carry.edge_rates(inc, l, u, w)

        first = np.swapaxes(edge_sums, -1, -2) @ (edge_sums * mult[..., None])
        per_node = _per_restart_product(inc.b2, mult)
        second = np.swapaxes(u, -1, -2) @ (u * per_node[..., None])
        num = 0.5 * w * (first - second)
        den = self.consts[l] * pairwise_outer(u)
        out = _guarded_ratio(num, den, f"w update of layer {l}")
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    def updated_w_cross(self, state: LatentState, pair: tuple[int, int]) -> np.ndarray:
        s = self.mh.inter_for_pair(*pair)
        if s is None:
            raise ValueError(f"no inter-edge set joins layer pair {pair}")
        ua, ub = state.u[s.layer_a], state.u[s.layer_b]
        w = state.w_cross[pair]
        spread = self._stacked_product(pair, RateCarry().cross_ratios(s, state), ub)
        num = w * (np.swapaxes(ua, -1, -2) @ spread)
        den = _column_sums(ua)[:, :, None] * _column_sums(ub)[:, None, :]
        return _guarded_ratio(num, den, f"cross update of pair {pair}")

    # -- sweeps and objective ------------------------------------------------

    def sweep(self, state: LatentState, carry: Optional[RateCarry] = None) -> LatentState:
        """One EM sweep: u for all layers, then w, then cross affinities.

        Marginals are implicit: every update family evaluates the rates of
        the state it starts from, each rate once.  The u updates of all
        layers start from ``state`` and share its cross rates and cross
        ratios, each built once and read from ``carry`` when it holds them.
        The w updates start from the new u, so their edge sums are those of
        the returned state: a given carry is refilled with them, and with
        nothing else, for the next call.  The carry's quantities at
        ``state`` are released once the u updates are done, so a failure in
        the w or cross phase leaves the carry empty, which is valid: a
        missing key is computed when needed.
        """
        known = RateCarry() if carry is None else carry
        # every u update reads these: a zero cross rate fails the sweep first
        for s in self.mh.inter_edges:
            known.cross_ratios(s, state)
        new_u = tuple(self.updated_u(state, l, known) for l in range(self.mh.num_layers))
        # free the old edge sums before the w updates build the new ones
        for part in (known.sums, known.rates, known.cross, known.ratios):
            part.clear()
        state = LatentState(new_u, state.w, state.w_cross)
        at_new_u = RateCarry()
        new_w = tuple(self.updated_w(state, l, at_new_u) for l in range(self.mh.num_layers))
        state = LatentState(state.u, new_w, state.w_cross)
        new_cross = {
            (s.layer_a, s.layer_b): self.updated_w_cross(state, (s.layer_a, s.layer_b))
            for s in self.mh.inter_edges
        }
        if carry is not None:
            carry.sums = at_new_u.sums
        return LatentState(state.u, state.w, new_cross)

    def objective(self, state: LatentState, carry: Optional[RateCarry] = None) -> np.ndarray:
        """Approximated log-likelihood at the closed-form variational
        optimum, one value per restart of the stack.

        Per layer: -c_l * (global pairwise interaction sum) plus the
        weighted log-rates of observed hyperedges.  Per layer pair: minus
        the total cross rate over all node pairs (a column-sum contraction)
        plus the weighted log-rates of observed inter-edges.  ``carry``
        holds rate quantities already computed at ``state``; the rates
        computed here are added to it, so the next sweep from ``state``
        reuses them.  Raises DegenerateStateError, naming the failing
        restarts, when an observed interaction has zero rate.
        """
        carry = RateCarry() if carry is None else carry
        total = np.zeros(state.u[0].shape[0])
        for l, inc in enumerate(self.incidences):
            u, w = state.u[l], state.w[l]
            total -= self.consts[l] * pairwise_interaction_sum(u, w)
            total += _dot_last(np.log(carry.edge_rates(inc, l, u, w)), inc.weights)
        for s in self.mh.inter_edges:
            ua, ub = state.u[s.layer_a], state.u[s.layer_b]
            w_cross = state.w_cross[(s.layer_a, s.layer_b)]
            sa, sb = _column_sums(ua), _column_sums(ub)
            total -= (sa[:, None, :] @ w_cross @ sb[:, :, None])[:, 0, 0]
            total += _dot_last(np.log(carry.cross_rates(s, state)), s.weights)
        return total


@dataclass
class _Run:
    """Progress of one restart: its trace so far and how it ended."""

    restart: int
    trace: list = field(default_factory=list)
    sweeps: int = 0
    below: int = 0
    state: Optional[LatentState] = None
    converged: bool = False
    error: Optional[Exception] = None


class _Batch:
    """Live restarts advancing as one stacked state."""

    def __init__(self, runs: list[_Run], stack: LatentState):
        self.live = runs
        self.stack = stack
        self.carry = RateCarry()

    def keep(self, positions: list[int]) -> None:
        self.stack = self.stack.take(positions)
        self.carry = self.carry.take(positions)
        self.live = [self.live[i] for i in positions]

    def call(self, method):
        """``method(stack, carry)``, or None once no restart is live.  A
        restart the call fails on records the error and leaves the stack;
        the call is repeated for the others, whose values are unchanged
        because restarts never mix.  A failed call leaves the carry holding
        only quantities of the stack it was given (a sweep that fails after
        its u updates leaves it empty)."""
        while self.live:
            try:
                return method(self.stack, self.carry)
            except (DegenerateStateError, NonFiniteUpdateError) as exc:
                if not exc.restarts:
                    raise
                for i in exc.restarts:
                    self.live[i].error = exc
                self.keep([i for i in range(len(self.live)) if i not in exc.restarts])
        return None


def _run_batch(engine: EMEngine, mh: MultiHypergraph, cfg: InferenceConfig, restarts):
    """Run the given restarts together, sweep by sweep; one ``_Run`` each.

    Sweep 0 is the initial state.  Convergence checks fall on the same
    sweeps for every restart; a restart that converges leaves the stack
    with its final state.
    """
    runs = [_Run(r) for r in restarts]
    batch = _Batch(
        list(runs), LatentState.stack([initialize(mh, cfg, cfg.seed + r) for r in restarts])
    )
    for it in range(cfg.max_iters + 1):
        if it > 0:
            swept = batch.call(engine.sweep)
            if not batch.live:
                break
            batch.stack = swept
            for run in batch.live:
                run.sweeps = it
            if it % cfg.check_every and it != cfg.max_iters:
                continue
        objs = batch.call(engine.objective)
        if not batch.live:
            break
        going = []
        for i, (run, obj) in enumerate(zip(batch.live, objs.tolist())):
            if run.trace:
                prev = run.trace[-1][1]
                rel = abs(obj - prev) / max(abs(prev), 1e-300)
                run.below = run.below + 1 if rel < cfg.tol else 0
            run.trace.append((it, obj))
            if run.below >= 2:
                run.converged = True
                run.state = batch.stack.take(i).copy()
            else:
                going.append(i)
        if len(going) < len(batch.live):
            batch.keep(going)
    for i, run in enumerate(batch.live):
        run.state = batch.stack.take(i).copy()
    return runs


def _run_batches(engine: EMEngine, mh: MultiHypergraph, cfg: InferenceConfig, batches,
                 threads: int):
    """The ``_Run`` lists of the batches, in batch order.

    With one thread the batches run one after another, on the calling
    thread.  With more, a pool of that many threads runs them, started in
    batch order; when one fails, the batches not yet started are cancelled,
    the running ones finish, and the error of the first failed batch in
    batch order is raised.  The engine is shared read-only: it writes its
    pattern cache (``_stacked_product``) only for stacks of two or more
    restarts, and only one-restart batches run side by side.
    """
    if threads == 1:
        return [_run_batch(engine, mh, cfg, restarts) for restarts in batches]
    pool = ThreadPoolExecutor(threads)
    try:
        futures = [pool.submit(_run_batch, engine, mh, cfg, restarts) for restarts in batches]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # a cancelled batch comes after every started one, failed ones included
    return [future.result() for future in futures]


def fit(mh: MultiHypergraph, cfg: InferenceConfig) -> FitResult:
    """Multi-restart EM fit; returns the restart with the best final objective.

    Node contributions and the closed-form penalty constants are computed
    once from the data (no unobserved hyperedges are sampled); restart r
    then initializes from ``cfg.seed + r``.  Restarts run in batches that
    advance as one stacked state, one sweep for all of them: a batch holds
    as many restarts as keep R * sum_l (n_l + m_l) * K_l within
    ``_BATCH_ENTRIES``, and one after another.  Below that bound restarts
    share a stack, so small instances run every restart together.  When
    one restart alone reaches it, each batch holds one restart and the
    batches run side by side, on as many threads as the process has CPUs
    and there are batches.  Results are bit for bit those of running each
    restart alone.  Restarts that collapse to a degenerate state are
    dropped with a warning on the ``hyperblock`` logger, in restart order,
    and one more warning follows when more than half of them are; if all
    are, FitFailureError is raised.  The first restart with the strictly
    highest final objective wins.
    """
    cfg.validate(mh.num_layers)
    for l, layer in enumerate(mh.layers):
        if layer.num_hyperedges == 0:
            raise ValueError(f"layer {l} has no hyperedges")
    engine = EMEngine(mh, [layer_constants(layer, cfg.m_override) for layer in mh.layers])
    per_restart = sum(
        (layer.num_nodes + layer.num_hyperedges) * k
        for layer, k in zip(mh.layers, cfg.k_per_layer)
    )
    size = max(1, _BATCH_ENTRIES // per_restart)
    batches = [range(start, min(start + size, cfg.restarts))
               for start in range(0, cfg.restarts, size)]
    threads = min(_cores(), len(batches)) if per_restart >= _BATCH_ENTRIES else 1
    log.debug(
        "fit layout: %d batches of up to %d restarts on %d threads",
        len(batches), size, threads,
    )
    best = None
    outcomes = []
    for runs in _run_batches(engine, mh, cfg, batches, threads):
        for run in runs:
            seed = cfg.seed + run.restart
            if run.error is not None:
                log.warning(
                    "restart %d (seed %d) dropped after %d sweeps: %s: %s",
                    run.restart, seed, run.sweeps, type(run.error).__name__, run.error,
                )
                outcomes.append(RestartOutcome(
                    seed, None, run.sweeps, False, type(run.error).__name__
                ))
                continue
            outcomes.append(RestartOutcome(seed, run.trace[-1][1], run.sweeps, run.converged))
            if best is None or run.trace[-1][1] > best.trace[-1][1]:
                best = run
    dropped = sum(outcome.dropped is not None for outcome in outcomes)
    if 2 * dropped > cfg.restarts:
        log.warning("%d of %d restarts dropped", dropped, cfg.restarts)
    if best is None:
        raise FitFailureError("all restarts degenerate")
    return FitResult(best.state, tuple(best.trace), best.restart, best.converged, tuple(outcomes))
