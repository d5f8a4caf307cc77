"""Tensor-product graphs and the linear conserved-current constraint solver.

For channels a, b of rho x rho joined by the current object phi, the
admissible Boltzmann-weight ratio is

    A_b / A_a = (W_b + mu W_a) / (W_a + mu W_b),   W_x = Omega_rho^{rho x},

a Moebius function of mu built purely from twist data.  A spanning tree of
the tensor-product graph fixes every amplitude relative to the reference
channel; each extra edge closes a cycle, decided by float sampling of the
closing identity against `SOLVER_TOL` on one shared grid of points.  That
decision fails on long cycles: for ty with rho = X it calls consistent pairs
INCONSISTENT at every even M >= 18 (ROADMAP item 1, exact amplitudes).

A solver memo keyed by the exact bits of the twist-edge ratios forms each
edge ratio, tree product and cycle residual once per classify call, and
evaluates each amplitude at most once per grid point per classify call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import struct

from .category import CategoryData, fusion_product, twist_edge_ratio
from .errors import DomainError, PoleError
from .ratfunc import RationalFunction
from .record import record
from .report import fmt_complex, fmt_float

SOLVER_TOL = 1e-9

TREE_UNIQUE = "TREE_UNIQUE"
CYCLE_CONSISTENT = "CYCLE_CONSISTENT"
UNDERDETERMINED = "UNDERDETERMINED"
INCONSISTENT = "INCONSISTENT"


@record(frozen=True)
class TensorProductGraph:
    """Channels of rho x rho as vertices, phi-fusion adjacency as edges.

    Self-loops are never stored (an a = b edge forces ratio 1 identically).
    `edges` are canonical undirected pairs (a < b unless only the reversed
    direction is admissible); `directed` holds the admissibility witnesses
    N_{a phi}^b != 0 as ordered pairs, so an edge whose reverse is missing
    from it is oriented.
    """

    rho: int
    phi: int
    vertices: tuple
    edges: tuple
    directed: tuple

    def neighbours(self, a):
        return sorted({y if x == a else x for x, y in self.edges if a in (x, y)})


@record(frozen=True)
class CycleCheck:
    vertices: tuple          # the channels of the cycle, sorted
    closing_edge: tuple
    residual: float
    samples: int


@record
class AmplitudeSolution:
    cat: CategoryData
    graph: TensorProductGraph
    reference: int
    channels: tuple
    funcs: dict                      # channel -> RationalFunction
    verdict: str
    components: tuple
    cycles: tuple = ()

    @property
    def rho(self):
        return self.graph.rho

    @property
    def phi(self):
        return self.graph.phi

    def poles(self):
        """The roots -1/x of every channel's edge factors (1 + x mu)."""
        return [p for ch in self.channels for p in self.funcs[ch].poles()]

    def to_dict(self) -> dict:
        return {
            "family": self.cat.name,
            "rho": self.cat.display(self.graph.rho),
            "phi": self.cat.display(self.graph.phi),
            "verdict": self.verdict,
            "reference": self.cat.display(self.reference),
            "channels": [
                {"label": self.cat.display(ch),
                 "num": [fmt_complex(z) for z in self.funcs[ch].num],
                 "den": [fmt_complex(z) for z in self.funcs[ch].den]}
                for ch in self.channels
            ],
            "poles": [fmt_complex(z) for z in sorted(self.poles(), key=lambda z: (z.real, z.imag))],
            "cycles": [
                {"vertices": [self.cat.display(v) for v in c.vertices],
                 "edge": [self.cat.display(c.closing_edge[0]), self.cat.display(c.closing_edge[1])],
                 "residual": fmt_float(c.residual),
                 "samples": c.samples}
                for c in self.cycles
            ],
            "components": [[self.cat.display(v) for v in comp] for comp in self.components],
        }


def _channels_of(cat: CategoryData, rho: int):
    if cat.rules is not None:
        return tuple(fusion_product(cat, rho, rho))
    if cat.channels is not None and rho == cat.rho_declared:
        return tuple(cat.channels)
    raise DomainError(f"{cat.name}: channels of {rho} x {rho} are not declared")


def build_tp_graph(cat: CategoryData, rho, phi) -> TensorProductGraph:
    """Vertices = channels of rho x rho; edge (a, b) when N_{a phi}^b != 0."""
    rho, phi = cat.check_label(rho), cat.check_label(phi)
    if cat.rules is not None:
        if not cat.rules.admits(phi, rho, rho):
            raise DomainError(
                f"current termination fails: {cat.display(rho)} is not in "
                f"{cat.display(phi)} x {cat.display(rho)}")
        verts = _channels_of(cat, rho)
        pairs = [(a, b) for a, b in itertools.product(verts, repeat=2)
                 if cat.rules.admits(a, phi, b)]
    else:
        if cat.tp_adjacency is None or phi not in cat.tp_adjacency:
            raise DomainError(f"{cat.name}: no declared tensor-product graph for phi="
                              f"{cat.display(phi)}")
        verts = _channels_of(cat, rho)
        pairs = cat.tp_adjacency[phi]
        for a, b in pairs:
            if a not in verts or b not in verts:
                raise DomainError(
                    f"{cat.name}: declared edge ({cat.display(a)}, {cat.display(b)}) for "
                    f"phi={cat.display(phi)} leaves the channels of "
                    f"{cat.display(rho)} x {cat.display(rho)}")
    directed = tuple((a, b) for a, b in pairs if a != b)
    # canonical edge list: (min, max) unless only the reverse is admissible
    edges = tuple(e if e in directed else e[::-1]
                  for e in sorted({(min(e), max(e)) for e in directed}))
    return TensorProductGraph(rho, phi, verts, edges, directed)


def edge_ratio(cat: CategoryData, rho, a, b, mu) -> complex:
    """A_b/A_a on an edge: (x + mu)/(1 + mu x) with x the twist-edge ratio."""
    return RationalFunction.linear_ratio(twist_edge_ratio(cat, rho, a, b)).evaluate(mu)


@functools.cache
def _grid_point(j: int) -> complex:
    """The solver's j-th sample point, a golden-angle phase on one of five
    radii: one grid, computed on first use and shared by every solve."""
    golden, radii = (math.sqrt(5) - 1) / 2, (0.47, 0.83, 1.31, 2.17, 3.59)
    return radii[j % len(radii)] * cmath.exp(2j * math.pi * ((j * golden) % 1.0))


def _coeff_bits(fn: RationalFunction) -> bytes:
    """The exact bits of fn's coefficients: equal bits, equal values anywhere."""
    parts = [t for z in fn.num + fn.den for t in (z.real, z.imag)]
    return struct.pack(f"<i{len(parts)}d", len(fn.num), *parts)


_UNSET = object()


class _SolverMemo:
    """Edge ratios, tree products and their grid values for one category.

    An edge is keyed by the bits of its twist-edge ratio x (so 0.0 and -0.0
    never share an entry) and a tree product by the keys along its path from
    the component root.  A product is its tree parent's product times the
    last edge ratio, the same multiplications in the same order as without a
    memo, so every coefficient keeps its bits.  Grid values are kept per
    coefficient bits, so each (function, grid point) is evaluated once, and
    so is each cycle residual of the same three functions.
    `classify_pairs` shares one memo between its solves and drops it when it
    returns: a process-wide cache would hold su(2)_22's entries for the rest of
    a session.
    """

    def __init__(self, cat: CategoryData):
        self.cat = cat
        self.keys = {}            # (rho, a, b) -> bits of twist_edge_ratio
        self.ratios = {}          # key -> (linear_ratio(x), grid values)
        self.paths = {}           # tuple of keys -> (product, grid values)
        self.grid = {}            # coefficient bits -> values by j: None at a pole, _UNSET unread
        self.residuals = {}       # (ids of three grid-value lists, need) -> _cycle_residual

    def _entry(self, fn):
        return fn, self.grid.setdefault(_coeff_bits(fn), [])

    def edge(self, rho, a, b) -> bytes:
        key = self.keys.get((rho, a, b))
        if key is None:
            x = twist_edge_ratio(self.cat, rho, a, b)
            key = self.keys[rho, a, b] = struct.pack("<dd", x.real, x.imag)
            if key not in self.ratios:
                self.ratios[key] = self._entry(RationalFunction.linear_ratio(x))
        return key

    def path(self, keys: tuple):
        """(product of the edge ratios along `keys`, its grid values)."""
        entry = self.paths.get(keys)
        if entry is None:
            fn = (self.path(keys[:-1])[0] * self.ratios[keys[-1]][0] if keys
                  else RationalFunction.one())
            entry = self.paths[keys] = self._entry(fn)
        return entry

    def residual(self, amp_a, amp_b, ratio, need: int):
        """`_cycle_residual`, once per (coefficient bits of the three, need);
        a grid-value list stands for its bits and lives as long as the memo."""
        key = (id(amp_a[1]), id(amp_b[1]), id(ratio[1]), need)
        out = self.residuals.get(key)
        if out is None:
            out = self.residuals[key] = _cycle_residual(amp_a, amp_b, ratio, need)
        return out


def _grid_value(entry, j: int):
    """The function of `entry` at grid point j, or None within 1e-8 of a pole."""
    fn, vals = entry
    if j >= len(vals):
        vals.extend([_UNSET] * (j + 1 - len(vals)))
    val = vals[j]
    if val is _UNSET:
        try:
            val = fn.evaluate(_grid_point(j), pole_tol=1e-8)
        except PoleError:
            val = None
        vals[j] = val
    return val


def _cycle_residual(amp_a, amp_b, ratio, need: int):
    """max |A_b - A_a r| over the first `need` grid points where none of the
    three is at a pole, and the number taken; at most 200 * need points are
    tried.  Each argument is a (function, grid values) memo entry."""
    res, taken = 0.0, 0
    for j in range(200 * need):
        if taken == need:
            break
        va = _grid_value(amp_a, j)
        vb = None if va is None else _grid_value(amp_b, j)
        vr = None if vb is None else _grid_value(ratio, j)
        if vr is None:
            continue
        res = max(res, abs(vb - va * vr))
        taken += 1
    return res, taken


def solve_central(cat: CategoryData, rho, phi, tree: str = "bfs", *,
                  _memo: _SolverMemo | None = None) -> AmplitudeSolution:
    """Propagate amplitude ratios over a spanning tree and classify the rest.

    The reference channel (0, else the least channel) seeds its component, so
    its amplitude is exactly 1.  One BFS or DFS walk gives each channel its
    route from its root, and its amplitude as the product of the edge ratios
    along it.  An edge (a, b) where neither route extends the other closes a
    cycle through both routes below their last shared channel: a rational
    identity of degree at most E, sampled at 2E+1 off-pole points against
    `SOLVER_TOL`.  A `_SolverMemo` of `cat` (a fresh one unless `classify_pairs`
    passes its own) forms each edge ratio, tree product, grid value and cycle
    residual once per classify call.  Float sampling misjudges long cycles (ty
    rho = X at even M >= 18, ROADMAP item 1).
    """
    graph = build_tp_graph(cat, rho, phi)
    verts = graph.vertices
    reference = 0 if 0 in verts else min(verts)

    if tree not in ("bfs", "dfs"):
        raise DomainError(f"unknown spanning-tree strategy {tree!r}")
    memo = _SolverMemo(cat) if _memo is None else _memo
    routes = {}                       # channel -> channels on its tree path from its root
    keys = {}                         # channel -> edge keys along that path
    amps = {}                         # channel -> (amplitude, grid values)
    for start in (reference, *verts):
        if start in routes:
            continue
        routes[start], keys[start], amps[start] = (start,), (), memo.path(())
        pending = [start]
        while pending:
            v = pending.pop(0) if tree == "bfs" else pending.pop()
            for w in graph.neighbours(v):
                if w not in routes:
                    routes[w] = routes[v] + (w,)
                    keys[w] = keys[v] + (memo.edge(graph.rho, v, w),)
                    amps[w] = memo.path(keys[w])
                    pending.append(w)
    components = tuple(sorted(tuple(sorted(v for v in verts if routes[v][0] == root))
                              for root in {r[0] for r in routes.values()}))

    nsamp = 2 * max(1, len(graph.edges)) + 1
    cycles = []
    for a, b in graph.edges:
        ra, rb = routes[a], routes[b]
        if ra == rb[:-1] or rb == ra[:-1]:
            continue                  # a tree edge
        res, taken = memo.residual(amps[a], amps[b],
                                   memo.ratios[memo.edge(graph.rho, a, b)], nsamp)
        meet = len(set(ra) & set(rb)) - 1          # index of the last shared channel
        cycles.append(CycleCheck(tuple(sorted({*ra[meet:], *rb[meet:]})), (a, b), res, taken))

    if any(c.residual >= SOLVER_TOL for c in cycles):
        verdict = INCONSISTENT
    elif len(components) > 1:
        verdict = UNDERDETERMINED
    else:
        verdict = CYCLE_CONSISTENT if cycles else TREE_UNIQUE
    funcs = {v: fn for v, (fn, _) in amps.items()}
    return AmplitudeSolution(cat, graph, reference, verts, funcs, verdict,
                             components, tuple(cycles))


def amplitude_at(solution: AmplitudeSolution, chi, mu) -> complex:
    """A_chi(mu) relative to the reference channel."""
    if chi not in solution.funcs:
        raise DomainError(f"{chi} is not a channel of the solution")
    if chi == solution.reference:
        return 1.0 + 0j
    return solution.funcs[chi].evaluate(mu)


@record(frozen=True)
class ClassifyRow:
    rho: int
    phi: int
    verdict: str
    n_vertices: int
    n_edges: int
    n_cycles: int


def classify_pairs(cat: CategoryData):
    """Verdict of solve_central for every simple rho and admissible phi != 0."""
    if cat.rules is not None:
        pairs = [(rho, phi) for rho in range(cat.n_objects) for phi in range(1, cat.n_objects)
                 if cat.rules.admits(phi, rho, rho)]
    else:
        pairs = [(cat.rho_declared, phi) for phi in sorted(cat.tp_adjacency)]
    memo = _SolverMemo(cat)
    sols = (solve_central(cat, rho, phi, _memo=memo) for rho, phi in pairs)
    return [ClassifyRow(s.rho, s.phi, s.verdict, len(s.graph.vertices), len(s.graph.edges),
                        len(s.cycles)) for s in sols]
