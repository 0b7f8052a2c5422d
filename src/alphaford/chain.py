"""Forward and backward alpha-Ford chains on m-cladograms.

A chain move erases the edge holding leaf k, splits the remaining tree at an
edge e, and reinserts the leaf there.  Forward rates weight e by 1 - alpha
(external in the reduced tree) or alpha (internal); the backward chain
instead weighs the pair by whether k is a cherry.  Reinsertion at the edge
the deletion just merged reproduces the state: these self-moves carry rate
(1-alpha) per cherry and alpha per non-cherry leaf, identically for both
chains, and are kept on the clock (they contribute to the total rate
m(m-1-3 alpha)) while adding nothing to the generator.

Rates are stored as integer count arrays: one table of the non-self moves
over canonically ordered states, with four counts per (source, target) pair
(external/internal insertion edge, cherry/non-cherry leaf), so every rate is
(1 - alpha) c0 + alpha c1.  A ``Fraction`` appears only when one alpha is
evaluated.  On these counts and the integer coefficients of the alpha-Ford
law (:mod:`alphaford.ford`), stationarity and the rate-discrepancy identity
of the cherry-count potential beta are checked as integer polynomial
identities in alpha, read at the given alpha.  The float generators enter
the Feynman-Kac matrix identity

    exp(t Q_fwd) = exp(t (Q_bwd + diag(beta)))^T.

A simulator runs the same dynamics on trees with hundreds of leaves.  Every
event has the same total rate, so a run to time t draws a Poisson event
count and then the iid moves in vectorized blocks; each move rewrites three
fixed edge slots, with no rejection loop; a block of moves is applied in
one loop.  The sample-shape vector of a tree, fixed or simulated, is
computed exactly by one fold over its preorder; the chain-vs-dual check
still estimates it, every digit of its state codes from one quartet query.
Move targets, the unlabeled shape classes and the estimator's samples all
find their states through the one state code of :mod:`alphaford.cladogram`.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from alphaford._rng import parse_alpha, stream
from alphaford.cladogram import (
    Cladogram,
    StructureError,
    _insert_split_leaf,
    _integer,
    _triple_code,
    _triple_tables,
    enumerate_cladograms,
)
from alphaford.ford import _evaluate, _law, _times, sample_ford_tree
from alphaford.tree import FiniteMeasureTree

__all__ = [
    "RateMatrix",
    "ChainState",
    "DualityCheck",
    "forward_rate_matrix",
    "backward_rate_matrix",
    "beta_potential",
    "verify_beta_is_rate_discrepancy",
    "verify_invariance",
    "matrix_exponential",
    "verify_feynman_kac",
    "simulate_chain",
    "estimate_shape_vector",
    "exact_shape_vector",
    "verify_chain_diffusion_duality",
]

MAX_RATE_MATRIX_LEAVES = 7
MAX_EXPM_DIM = 1024
DUALITY_TUPLES = 64  # leaf m-tuples per replicate in verify_chain_diffusion_duality


@dataclass(frozen=True, eq=False)
class MoveTables:
    """The non-self moves of the m-leaf chain, one int64 row per sorted
    (src, tgt) pair, counted by the class of the insertion edge (external,
    internal) and by that of the displaced leaf (cherry, non-cherry)."""

    src: np.ndarray
    tgt: np.ndarray
    external: np.ndarray
    internal: np.ndarray
    cherry: np.ndarray
    non_cherry: np.ndarray
    n_cherries: np.ndarray


@lru_cache(maxsize=None)
def _move_tables(m: int) -> MoveTables:
    """Move tables built on split bitmasks, with no tree.  The targets of
    each (leaf k, reduced tree) pair are computed once, external insertion
    edges first (:func:`_insert_split_leaf`); m moves per state are
    self-moves, reinsertions at the edge the deletion merged."""
    if not 4 <= m <= MAX_RATE_MATRIX_LEAVES:
        raise StructureError(f"rate matrices support 4 <= m <= {MAX_RATE_MATRIX_LEAVES}")
    states, reduced = enumerate_cladograms(m), enumerate_cladograms(m - 1).masks
    moved = np.stack([_insert_split_leaf(reduced, m - 1, k) for k in range(1, m + 1)])
    targets = states.locate(_triple_code(moved, m))  # (leaf, reduced tree, edge)
    n, cherry = len(states), states.cherries
    tgt = targets[np.arange(m), states.deletions]  # (state, leaf, edge)
    src = np.arange(n)[:, None, None]
    moves = tgt != src
    assert ((~moves).sum(axis=(1, 2)) == m).all()
    ext = np.arange(2 * m - 5) < m - 1
    classes = np.broadcast_arrays(ext, ~ext, cherry[:, :, None], ~cherry[:, :, None])
    pairs, inverse = np.unique((src * n + tgt)[moves], return_inverse=True)
    counts = [np.bincount(inverse[c[moves]], minlength=len(pairs)) for c in classes]
    return MoveTables(pairs // n, pairs % n, *counts, cherry.sum(axis=1))


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator of a chain on the canonically ordered m-cladograms.

    Each non-self move of ``tables`` carries two counts, ``counts[0]`` of
    weight 1 - alpha and ``counts[1]`` of weight alpha; the diagonal is minus
    the row sum.  Self-moves (1 - alpha per cherry leaf, alpha per other leaf)
    count only in the total rate.  ``rows[s]`` (target to exact nonzero rate)
    and ``self_rates`` are built from the counts on first read.
    """

    alpha: Fraction
    m: int
    tables: MoveTables
    counts: tuple

    states = property(lambda self: enumerate_cladograms(self.m))

    def _at_alpha(self, rate) -> np.ndarray:
        """``rate(n, b)`` per move, for its rate n / b at alpha = a / b; one
        call per distinct count pair."""
        a, b = self.alpha.numerator, self.alpha.denominator
        c0, c1 = self.counts
        width = int(c1.max()) + 1
        codes, inverse = np.unique(c0 * width + c1, return_inverse=True)
        values = [rate((b - a) * (c // width) + a * (c % width), b) for c in codes.tolist()]
        return np.array(values, dtype=object)[inverse]

    @cached_property
    def rows(self) -> tuple:
        rates = self._at_alpha(Fraction)
        keep = rates != 0
        tgt, rates = self.tables.tgt[keep].tolist(), rates[keep].tolist()
        bounds = np.searchsorted(self.tables.src[keep], np.arange(len(self.states) + 1)).tolist()
        return tuple(dict(zip(tgt[lo:hi], rates[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def self_rates(self) -> tuple:
        a, b = self.alpha.numerator, self.alpha.denominator
        ch = self.tables.n_cherries.tolist()
        return tuple(Fraction((b - a) * c + a * (self.m - c), b) for c in ch)

    def _check_state(self, s: int) -> None:
        if not 0 <= s < len(self.states):
            raise IndexError(f"state {s} is outside 0..{len(self.states) - 1}")

    def off_diagonal_total(self, s: int) -> Fraction:
        self._check_state(s)
        a, b = self.alpha.numerator, self.alpha.denominator
        lo, hi = np.searchsorted(self.tables.src, [s, s + 1])
        c0, c1 = (int(c[lo:hi].sum()) for c in self.counts)
        return Fraction((b - a) * c0 + a * c1, b)

    def total_rate(self, s: int) -> Fraction:
        """Total event rate at state s, self-moves included."""
        return self.off_diagonal_total(s) + self.self_rates[s]

    def entry(self, s: int, t: int) -> Fraction:
        if s == t:
            return -self.off_diagonal_total(s)
        self._check_state(s)
        self._check_state(t)
        return self.rows[s].get(t, Fraction(0))

    def to_dense(self) -> np.ndarray:
        """Float generator matrix (rows sum to zero), each rate n / b rounded once."""
        n = len(self.states)
        q = np.zeros((n, n))
        q[self.tables.src, self.tables.tgt] = self._at_alpha(operator.truediv)
        q[np.diag_indices(n)] = -q.sum(axis=1)
        return q


def forward_rate_matrix(alpha, m: int) -> RateMatrix:
    """Forward chain: insertion edges weighted 1 - alpha (external) / alpha
    (internal).  Total rate at every state is m(m - 1 - 3 alpha)."""
    m = _integer(m, "a leaf count")
    alpha, mt = parse_alpha(alpha), _move_tables(m)
    return RateMatrix(alpha, m, mt, (mt.external, mt.internal))


def backward_rate_matrix(alpha, m: int) -> RateMatrix:
    """Backward chain: displaced leaf weighted 1 - alpha (cherry) / alpha
    (non-cherry), any insertion edge.  Entrywise q_bwd(t', t) = q_fwd(t, t')."""
    m = _integer(m, "a leaf count")
    alpha, mt = parse_alpha(alpha), _move_tables(m)
    return RateMatrix(alpha, m, mt, (mt.cherry, mt.non_cherry))


def _beta_coefficients(m: int, n_cherries: np.ndarray) -> np.ndarray:
    """beta = (1 - 2 alpha) B, B = ch (2m - 5) - m (m - 1), as (S, 2)
    coefficients in alpha, lowest power first."""
    base = n_cherries * (2 * m - 5) - m * (m - 1)
    return np.stack([base, -2 * base], axis=1)


def beta_potential(alpha, m: int) -> dict:
    """The potential beta(t) = (1 - 2 alpha) (#cherries(t) (2m - 5) - m(m - 1)),
    keyed by canonical key in state order; identically zero at alpha = 1/2."""
    m = _integer(m, "a leaf count")
    alpha, mt = parse_alpha(alpha), _move_tables(m)
    values = _evaluate(_beta_coefficients(m, mt.n_cherries), alpha)
    return {key: Fraction(x, alpha.denominator) for key, x in zip(enumerate_cladograms(m).keys, values)}


def _tilted_backward(alpha: Fraction, m: int) -> np.ndarray:
    """The float matrix Q_bwd + diag(beta), beta read by state position."""
    q = backward_rate_matrix(alpha, m)
    beta = _evaluate(_beta_coefficients(m, q.tables.n_cherries), alpha)
    return q.to_dense() + np.diag([x / alpha.denominator for x in beta])


def _rate_discrepancy(mt: MoveTables, beta: np.ndarray) -> np.ndarray:
    """Per state, the (S, 2) coefficients in alpha of the total backward
    minus total forward rate, minus ``beta``.  Self-moves cancel; a move adds
    (cherry - external) + alpha ((non-cherry - cherry) - (internal - external))."""
    out = -beta
    slope = (mt.non_cherry - mt.cherry) - (mt.internal - mt.external)
    np.add.at(out, mt.src, np.stack([mt.cherry - mt.external, slope], axis=1))
    return out


def verify_beta_is_rate_discrepancy(alpha, m: int) -> bool:
    """Exact check: total backward rate minus total forward rate equals the
    potential at every state (self-moves included on both sides)."""
    m = _integer(m, "a leaf count")
    alpha, mt = parse_alpha(alpha), _move_tables(m)
    residual = _rate_discrepancy(mt, _beta_coefficients(m, mt.n_cherries))
    return not any(_evaluate(residual, alpha))


def _stationarity_residual(m: int, num: np.ndarray, src, tgt, c0, c1) -> np.ndarray:
    """Coefficients in alpha, per state t, of m(m - 1 - 3 alpha) N(t) -
    sum_s N(s) q_raw(s, t), q_raw(s, t) = (1 - alpha) c0 + alpha c1 summed
    over the moves s -> t given."""
    flow = _times(num, [m * (m - 1), -3 * m])
    for i, column in enumerate(num.T):  # a column at a time bounds the memory
        np.add.at(flow[:, i], tgt, -c0 * column[src])
        np.add.at(flow[:, i + 1], tgt, (c0 - c1) * column[src])
    return flow


def verify_invariance(alpha, m: int) -> Fraction:
    """Exact residual of the stationarity identity

        m(m - 1 - 3 alpha) P(t') = sum_t P(t) q_raw(t, t'),

    with q_raw including self-moves on the diagonal.  Returns the maximum
    absolute residual (zero iff the alpha-Ford law is stationary), formed on
    the law's integer numerators and evaluated at alpha."""
    m = _integer(m, "a leaf count")
    alpha, mt = parse_alpha(alpha), _move_tables(m)
    (num, den), ch, diag = _law(m), mt.n_cherries, np.arange(len(enumerate_cladograms(m)))
    moves = (mt.src, diag), (mt.tgt, diag), (mt.external, ch), (mt.internal, m - ch)
    residual = _stationarity_residual(m, num, *map(np.concatenate, moves))
    top = max(abs(x) for x in _evaluate(residual, alpha))
    return Fraction(top, _evaluate(den, alpha) * alpha.denominator)


# Higham (2005): the numerator coefficients b_k = (26 - k)! / (k! (13 - k)!)
# of the diagonal [13/13] Pade approximant r_13 of exp, and the largest 1-norm
# theta_13 at which r_13(A) meets double precision in backward error.
_PADE13 = tuple(math.factorial(26 - k) // math.factorial(k) // math.factorial(13 - k)
                for k in range(14))
_THETA13 = 5.371920351148152


def matrix_exponential(mat: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t * mat) by scaling and squaring with the [13/13] Pade approximant.

    N. J. Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3, at
    degree 13 only: A = t * mat is scaled by 2^-s, s = max(0, ceil(log2(
    |A|_1 / theta_13))) with theta_13 = 5.37, r_13 is formed from A^2, A^4
    and A^6 in six matrix products and one solve (V - U) X = V + U, with U
    and V its odd and even parts, and X is squared s times.  The algorithm's
    lower degrees 3, 5, 7 and 9 only save products at 1-norms up to 2.10;
    the generators this package exponentiates sit above that (the m = 6
    Feynman-Kac checks at 16-30) except the 3-state m = 4 dual, which costs
    microseconds at any degree."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix_exponential needs a square matrix")
    if mat.shape[0] > MAX_EXPM_DIM:
        raise ValueError(f"dimension {mat.shape[0]} exceeds guard {MAX_EXPM_DIM}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if not math.isfinite(t):
        raise ValueError(f"need finite t, got t={t}")
    with np.errstate(over="ignore"):
        a = float(t) * mat
        norm = np.abs(a).sum(axis=0).max(initial=0.0)
    if not math.isfinite(norm):
        raise ValueError(f"t * mat overflows at t={t}")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b, eye = _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    x = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        x = x @ x
    return x


def verify_feynman_kac(alpha, m: int, t: float) -> float:
    """Max entrywise |exp(t Q_fwd) - exp(t (Q_bwd + diag beta))^T|.

    The underlying matrix identity Q_fwd^T = Q_bwd + diag(beta) is exact, so
    the deviation only measures floating-point exponentiation error."""
    if not 0 <= t < math.inf:
        raise ValueError(f"need finite t >= 0, got t={t}")
    alpha = parse_alpha(alpha)
    lhs = matrix_exponential(forward_rate_matrix(alpha, m).to_dense(), t)
    rhs = matrix_exponential(_tilted_backward(alpha, m), t)
    return float(np.abs(lhs - rhs.T).max())


# -- event-driven simulation ----------------------------------------------------

_BLOCK = 4096  # moves drawn at once by ChainState.run_until; bounds its buffers

# each start tree's slot table, built once and copied by every ChainState
# started from it; trees are immutable, so an entry never goes stale
_SLOT_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _slot_table(tree: FiniteMeasureTree) -> tuple[tuple, tuple]:
    """``(ends, inc)`` of :class:`ChainState` for ``tree``, as tuples."""
    table = _SLOT_TABLES.get(tree)
    if table is None:
        n = tree.n
        ends = [(0, 0)] * (2 * n - 3)
        inc: list[list[int]] = [[] for _ in range(2 * n - 2)]
        slot = n
        for u, w in tree.topology.edges:
            u = n - 1 - u  # u < w and no edge joins two leaves, so u is internal
            if w > 0:
                e, u, w = w - 1, w - 1, u
            else:
                e, slot, w = slot, slot + 1, n - 1 - w
            ends[e] = (u, w)
            inc[u].append(e)
            inc[w].append(e)
        table = _SLOT_TABLES[tree] = tuple(ends), tuple(map(tuple, inc))
    return table


class ChainState:
    """Mutable N-leaf tree evolving under the alpha-Ford chain.

    Vertices sit at their cladogram positions: leaves 0..N-1, internal
    vertices N..2N-3.  Edges sit in fixed slots: leaf l's edge is slot l for
    good, stored leaf first, and the N - 3 internal edges fill slots
    N..2N-4.  ``ends[e]`` holds the endpoints of edge e and ``inc[v]`` the
    slots at v (one at a leaf, three inside).
    A move draws the leaf k, the class of the insertion edge and its index,
    and rewrites three slots in place: the insertion edge z and the two
    edges f and g at the vertex v that k hangs off (see :meth:`_steps`).
    ``inc[v]`` is rewritten in place, as is one entry at each of two other
    vertices; no list is allocated.  Self-moves are events too: every
    event has rate N(N - 1 - 3 alpha), whatever the state, and a move
    reinserting the leaf where it stood leaves the state unchanged.  So a run
    over [s, t) is a Poisson(N(N - 1 - 3 alpha)(t - s)) number of iid moves,
    drawn in blocks of ``_BLOCK``; :meth:`_steps` applies a whole block in
    one loop, and :meth:`move` hands it a block of one.  ``self_moves``
    counts the self-moves taken so far.
    """

    def __init__(self, tree: FiniteMeasureTree, alpha, rng: np.random.Generator):
        alpha = parse_alpha(alpha)
        n = tree.n
        if n < 5:
            raise StructureError("chain simulation needs at least 5 leaves")
        self.n = n
        self.alpha = float(alpha)
        ends, inc = _slot_table(tree)
        self.ends: list[tuple[int, int]] = list(ends)
        self.inc: list[list[int]] = list(map(list, inc))
        # class weights for picking the insertion edge in the reduced tree
        self._w_ext = (1.0 - self.alpha) * (n - 1)
        self._w_all = self._w_ext + self.alpha * (n - 4)
        self.total_rate = n * (n - 1 - 3 * self.alpha)
        self.time = 0.0
        self.jumps = 0
        self.self_moves = 0
        self.rng = rng

    def move(self) -> bool:
        """Execute one chain event; returns False for a self-move."""
        rng = self.rng
        n = self.n
        k = int(rng.integers(n))
        if rng.random() * self._w_all < self._w_ext:
            z = int(rng.integers(n - 1))
            return not self._steps((k,), (z + (z >= k),))
        return not self._steps((k,), (n + int(rng.integers(n - 4)),))

    def _steps(self, ks, zs) -> int:
        """Move leaf k onto slot z for each (k, z) in turn; returns the
        number of self-moves, which ``self_moves`` adds up.

        Leaf k hangs off v, whose other slots x and y lead to a and b.  The
        internal one of them (y if both are) merges away as f; the other, g,
        becomes (a, b), so a leaf keeps its slot.  An external z is a leaf
        slot other than k, below N and so below f; an internal z is drawn
        from N..2N-5 and remapped past f here.  z = g puts k back where it
        stood.  Otherwise z = (p, q) becomes (p, v), which keeps a leaf p in
        its own slot, f becomes (v, q), and ``inc[v]`` becomes [k, z, f].
        """
        n = self.n
        ends, inc = self.ends, self.inc
        stays = 0
        for k, z in zip(ks, zs):
            v = ends[k][1]
            at_v = inc[v]
            s0, s1, s2 = at_v
            if s0 == k:
                x, y = s1, s2
            elif s1 == k:
                x, y = s0, s2
            else:
                x, y = s0, s1
            if y >= n:
                f, g = y, x
            else:
                f, g = x, y
            if z >= f:
                z += 1
            if z == g:
                stays += 1  # reinsertion at the merged edge
                continue
            a0, a1 = ends[g]
            b0, b1 = ends[f]
            b = b0 + b1 - v
            p, q = ends[z]
            ends[g] = (a0 + a1 - v, b)
            ends[z] = (p, v)
            ends[f] = (v, q)
            at_b, at_q = inc[b], inc[q]
            at_b[at_b.index(f)] = g
            at_q[at_q.index(z)] = f
            at_v[0] = k
            at_v[1] = z
            at_v[2] = f
        self.self_moves += stays
        return stays

    def run_until(self, horizon: float) -> int:
        """Advance the clock to ``horizon``; returns the events taken,
        self-moves included."""
        if not self.time <= horizon < math.inf:
            raise ValueError(f"need {self.time} <= horizon < inf, got horizon={horizon}")
        rng = self.rng
        n = self.n
        events = int(rng.poisson(self.total_rate * (horizon - self.time)))
        for done in range(0, events, _BLOCK):
            size = min(_BLOCK, events - done)
            k = rng.integers(n, size=size)
            ext = rng.random(size) * self._w_all < self._w_ext
            r = rng.integers(np.where(ext, n - 1, n - 4))
            z = np.where(ext, r + (r >= k), n + r)
            self._steps(k.tolist(), z.tolist())
        self.time = horizon
        self.jumps += events
        return events

    def preorder(self) -> list[int]:
        """Vertex positions of the current tree in a preorder from leaf 1, by
        one DFS over the slots; leaf children (leaf l on slot l) come first."""
        n, ends, inc = self.n, self.ends, self.inc
        order = [0]
        stack = [(ends[0][1], 0)]  # an internal vertex and the slot to its parent
        while stack:
            v, up = stack.pop()
            order.append(v)
            s0, s1, s2 = inc[v]
            for e in (s1, s2) if s0 == up else (s0, s2) if s1 == up else (s0, s1):
                if e < n:
                    order.append(e)
                else:
                    stack.append((sum(ends[e]) - v, e))
        return order

    def as_tree(self) -> FiniteMeasureTree:
        """Snapshot of the current state as an immutable measure tree; the
        slot table goes to :class:`Cladogram` as an (E, 2) int64 array of
        vertex ids, validated in numpy."""
        n, size = self.n, 2 * len(self.ends)
        ends = np.fromiter(itertools.chain.from_iterable(self.ends), np.int64, size).reshape(-1, 2)
        return FiniteMeasureTree(Cladogram(n, np.where(ends < n, ends + 1, n - 1 - ends)))

    def audit(self) -> None:
        """Full invariant check (test builds call this periodically)."""
        n = self.n
        assert len(self.ends) == 2 * n - 3 and len(self.inc) == 2 * n - 2
        for v, slots in enumerate(self.inc):
            assert len(slots) == (1 if v < n else 3)
            assert all(v in self.ends[e] for e in slots)
        for e, (u, w) in enumerate(self.ends):
            assert e in self.inc[u] and e in self.inc[w]
            # a leaf's slot is the leaf, stored first; the others join internal vertices
            assert u == e if e < n else min(u, w) >= n
        self.as_tree()  # runs the full Cladogram validation


def simulate_chain(state: ChainState, horizon: float, observe_times=(), observers=()):
    """Run ``state`` to ``horizon``, calling each observer at the requested
    times (and at the horizon), which must lie in [``state.time``,
    ``horizon``]; one outside raises ``ValueError`` before any draw.
    Returns a trajectory summary."""
    times = sorted(set(float(t) for t in observe_times) | {float(horizon)})
    if times[0] < state.time:
        raise ValueError("observation times must not precede the current time")
    if times[-1] > horizon:
        raise ValueError(f"observation times must not pass the horizon {horizon}")
    observations = []
    jumps = 0
    for t in times:
        jumps += state.run_until(t)
        observations.append((t, [obs(state) for obs in observers]))
    return {"time": state.time, "jumps": jumps, "observations": observations}


@lru_cache(maxsize=None)
def _triple_columns(m: int) -> tuple[np.ndarray, np.ndarray]:
    """A (4, T) array whose column i holds the columns 0, j, k, l of the
    i-th label triple 1 < j + 1 < k + 1 < l + 1 of an m-tuple, in the
    digit order of :func:`alphaford.cladogram._triple_code`, and the base-3
    weights of those T digits, read from the code's own tables."""
    triples = list(itertools.combinations(range(1, m), 3))
    columns = np.array([(0, *t) for t in triples], np.int64).reshape(-1, 4).T
    return columns, _triple_tables(m)[2]


def _shape_indices(tree: FiniteMeasureTree, tuples: np.ndarray) -> np.ndarray:
    """State index, in ``enumerate_cladograms(m)`` order, of the cladogram
    spanned by each row of pairwise distinct leaf ids (label i is column
    i - 1, as in :func:`alphaford.cladogram.shape`), read from its triple
    code (:func:`alphaford.cladogram._triple_code`): one quartet query
    answers every digit of every row."""
    m = tuples.shape[1]
    columns, weights = _triple_columns(m)
    # (4, T, rows): the leaves 1, j, k, l of every digit of every row
    digits = tree.quartet_partners(*tuples.T[columns])
    return enumerate_cladograms(m).locate(weights @ digits)


def estimate_shape_vector(tree, m: int, samples: int, rng):
    """Match fractions (and the multinomial draw counts) for every m-leaf
    target in canonical state order, from one batch of iid leaf m-tuples;
    tuples with repeats match no target."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    states = enumerate_cladograms(m)  # bounds m before any draw
    draws = rng.integers(1, tree.n + 1, size=(samples, m))
    # a row repeats a leaf iff two neighbours of its sorted copy are equal
    ranked = np.sort(draws, axis=1)
    draws = draws[(ranked[:, 1:] != ranked[:, :-1]).all(axis=1)]
    counts = np.bincount(_shape_indices(tree, draws), minlength=len(states))
    return counts / samples, counts


@lru_cache(maxsize=None)
def _shape_classes(m: int):
    """Rooted shapes of at most m leaves and the unlabeled classes of the
    m-cladograms.  Shapes are numbered by size, 0 being one leaf, and
    ``join[i][j]`` is the shape with root children i and j.  ``read[i]`` is
    the class spanned by shape i, its root suppressed if it has m leaves and
    a leaf attached at its root if m - 1.  ``state_class`` gives the class of
    each state, ``class_size`` its number of states: the orbit of its first
    state under the m! relabelings."""
    states = enumerate_cladograms(m)  # bounds m before the shapes are grown
    sizes = [1]
    sets = [[1]]  # leaf masks below every vertex of a shape, leaves on bits 0, 1, ...
    join: list[dict[int, int]] = [{}]
    for n in range(2, m + 1):
        for i, j in itertools.combinations_with_replacement(range(len(sizes)), 2):
            if sizes[i] + sizes[j] == n:
                join[i][j] = join[j][i] = len(sizes)
                sizes.append(n)
                sets.append(sets[i] + [x << sizes[i] for x in sets[j]] + [(1 << n) - 1])
                join.append({})

    full = (1 << (m + 1)) - 2  # labels 1..m

    def state(masks: np.ndarray) -> np.ndarray:
        """The states of these mask rows, each mask first complemented if it
        holds label 1."""
        return states.locate(_triple_code(np.where(masks & 2, full ^ masks, masks), m))

    # the m - 1 swaps of adjacent labels, applied to every state at once,
    # generate the relabelings: an orbit is a connected component of the
    # swap graph, found by spreading the smallest state index to a fixpoint
    masks = states.masks
    # labels x and x + 1 swap by flipping bits x and x + 1 where they differ
    flips = [((masks >> x ^ masks >> (x + 1)) & 1) * (3 << x) for x in range(1, m)]
    swaps = np.stack([state(masks ^ flip) for flip in flips])
    first = np.arange(len(states))
    while True:
        low = np.minimum(first, first[swaps].min(axis=0))
        if (low == first).all():
            break
        first = low
    state_class = np.unique(first, return_inverse=True)[1]  # classes numbered by first state

    def spanned(i: int, first_label: int) -> int:
        return int(state_class[state(np.array([x << first_label for x in sets[i]]))])

    read = {i: spanned(i, 1 if n == m else 2) for i, n in enumerate(sizes) if n >= m - 1}
    return join, read, tuple(state_class.tolist()), tuple(np.bincount(state_class).tolist())


def exact_shape_vector(tree: FiniteMeasureTree | ChainState, m: int) -> list[Fraction]:
    """Phi^m of ``tree`` exactly, for 2 <= m <= 8: for each state t of
    ``enumerate_cladograms(m)``, the probability that m iid uniform leaves
    are distinct and span t.

    One fold back over ``tree.preorder()`` (a measure tree's or a chain
    state's) stacks per subtree its leaf subsets of up to m leaves, counted
    by the rooted shape they span: a leaf pushes its one subset, a vertex
    pops its subtrees' tables (the last two) and pushes their sum plus, for
    each pair of child shapes, the product of their counts at the joined
    shape.  The last, leaf 1's neighbour's, gives the m-subsets and the
    (m-1)-subsets leaf 1 completes.  Labels are exchangeable, so the m!
    orderings of a subset fall evenly on the states of its class.
    """
    m = _integer(m, "a leaf count")
    join, read, state_class, class_size = _shape_classes(m)
    n = tree.n
    leaf = {0: 1}  # shared, never written: a leaf spans shape 0
    tables = []
    for v in reversed(tree.preorder()[1:]):
        if v < n:
            tables.append(leaf)
            continue
        a, b = tables.pop(), tables.pop()
        table = dict(a)
        for j, count in b.items():
            table[j] = table.get(j, 0) + count
        for i, count in a.items():
            for j, k in join[i].items():
                if j in b:
                    table[k] = table.get(k, 0) + count * b[j]
        tables.append(table)
    counts = [0] * len(class_size)
    for i, count in tables[0].items():
        if i in read:
            counts[read[i]] += count
    orderings = math.factorial(m)
    return [Fraction(counts[c] * orderings, class_size[c] * n**m) for c in state_class]


@dataclass(frozen=True)
class DualityCheck:
    """Per-target comparison of the simulated chain expectation with the
    exact Feynman-Kac right-hand side."""

    target_key: tuple
    lhs: float
    lhs_se: float
    rhs: float

    @property
    def z_score(self) -> float:
        """(lhs - rhs) over the standard error of lhs; with that error 0,
        0.0 for equal sides and a signed infinity otherwise."""
        if self.lhs_se == 0:
            return 0.0 if self.lhs == self.rhs else math.copysign(math.inf, self.lhs - self.rhs)
        return (self.lhs - self.rhs) / self.lhs_se


def _duality_samples(alpha, m, n_leaves, t, replicates, seed, initial):
    """The raw terms of the chain-vs-dual comparison: a (replicates, states)
    array of per-replicate chain estimates at time t, the tilted backward
    propagator exp(t (Q_bwd + diag beta)), and the exact shape vector of the
    initial tree."""
    m = _integer(m, "a leaf count")
    if not 0 <= t < math.inf or replicates < 2:
        raise ValueError(f"need finite t >= 0 and replicates >= 2, got t={t}, {replicates=}")
    if initial is not None and initial.n != n_leaves:
        raise ValueError(f"the initial tree has {initial.n} leaves, not n_leaves={n_leaves}")
    if n_leaves < m:  # every Phi^m would be 0 on both sides
        raise ValueError(f"need n_leaves >= m, got n_leaves={n_leaves}, m={m}")
    alpha = parse_alpha(alpha)
    # the rate matrix bounds m, so an unsupported m fails before any sampling
    mat = matrix_exponential(_tilted_backward(alpha, m), t)
    if initial is None:
        initial = sample_ford_tree(alpha, n_leaves, stream(seed, 0))
    phi0 = np.array([float(p) for p in exact_shape_vector(initial, m)])
    est = np.empty((replicates, len(phi0)))
    for r in range(replicates):
        rng = stream(seed, 2, r)
        state = ChainState(initial, alpha, rng)
        state.run_until(t)
        est[r], _ = estimate_shape_vector(state.as_tree(), m, DUALITY_TUPLES, rng)
    return est, mat, phi0


def verify_chain_diffusion_duality(
    alpha,
    m: int,
    n_leaves: int,
    t: float,
    replicates: int,
    seed: int = 0,
    initial: FiniteMeasureTree | None = None,
) -> list[DualityCheck]:
    """Compare E[Phi^{m,target}(X_t)] for the N-leaf chain started at a fixed
    tree against the dual expectation computed exactly on the m-cladogram
    backward chain tilted by the potential, for 4 <= m <= 7.  The start is
    ``initial`` or else an alpha-Ford tree drawn from ``seed``; it must have
    ``n_leaves`` >= m leaves, or both sides would be 0 for every target.

    Left side: ``replicates`` (at least 2) independent chain runs, each
    contributing a shape-vector estimate from ``DUALITY_TUPLES`` leaf
    m-tuples; the replicate spread yields the standard error.  Right side:
    exp(t (Q_bwd + diag beta)) applied to the exact shape vector of the
    initial tree (:func:`exact_shape_vector`).

    For m <= 5 all m-cladograms share one unlabeled shape, so the shape
    vector is the same for every tree and every time: such checks test the
    estimator and the dual propagator, not the chain's dynamics.  From m = 6
    on the vector depends on the tree (a comb spans no three-cherry 6-leaf
    tree), and the check sees the dynamics.
    """
    est, mat, phi0 = _duality_samples(alpha, m, n_leaves, t, replicates, seed, initial)
    lhs = est.sum(axis=0) / replicates
    lhs_var = ((est * est).sum(axis=0) / replicates - lhs**2) / (replicates - 1)
    lhs_se = np.sqrt(np.maximum(lhs_var, 0.0))
    return [
        DualityCheck(key, float(lhs[i]), float(lhs_se[i]), float(rhs))
        for i, (key, rhs) in enumerate(zip(enumerate_cladograms(m).keys, mat @ phi0))
    ]
