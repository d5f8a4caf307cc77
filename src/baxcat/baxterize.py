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

`solve_central` and `classify_pairs` share one walk of the spanning tree and
one verdict rule.  `solve_central` measures every cycle's residual for its
report; `classify_pairs` only needs verdicts, so it reads each cycle's grid
points until the first failing one, skips a pair's other cycles once one
fails, and builds no solution.  A solver memo keyed by the exact bits of the
twist-edge ratios forms each spin phase, edge ratio and tree product once per
call, and evaluates each of its entries at most once per grid point.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import struct

from .category import (CategoryData, _phase, fusion_product, twist_edge_ratio,
                       twist_edge_sign)
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

    @functools.cached_property
    def adjacency(self) -> dict:
        """Channel -> its neighbours, sorted, from one pass over the edges."""
        adj = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def neighbours(self, a):
        return list(self.adjacency.get(a, ()))


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
        prods, channels = cat.rules.products, set(verts)
        pairs = [(a, b) for a in verts for b in prods[a][phi] if b in channels]
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
    have = set(directed)
    edges = tuple(e if e in have else e[::-1]
                  for e in sorted({(a, b) if a < b else (b, a) for a, b in directed}))
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


class _Sampled:
    """A solver memo entry, an edge ratio or a tree product: its function and
    its values at grid points 0, 1, 2, ..., None within 1e-8 of a pole."""

    __slots__ = ("fn", "values")

    def __init__(self, fn: RationalFunction):
        self.fn, self.values = fn, []

    def at(self, j: int):
        """The value at grid point j."""
        vals = self.values
        return vals[j] if j < len(vals) else self.upto(j + 1)[j]

    def upto(self, m: int) -> list:
        """The value list, extended in order to at least m points."""
        vals = self.values
        for j in range(len(vals), m):
            try:
                vals.append(self.fn.evaluate(_grid_point(j), pole_tol=1e-8))
            except PoleError:
                vals.append(None)
        return vals


class _SolverMemo:
    """Spin phases, edge ratios and tree products for one category.

    A phase exp(i pi (Delta_b - Delta_a)) is formed once per channel pair
    (a, b) and multiplied by each rho's nu signs, as `twist_edge_ratio`
    multiplies them.  An edge (rho, a, b) reads the one edge ratio per bits of
    its twist-edge ratio x (so 0.0 and -0.0 never share an entry), and a tree
    product is kept per the edge ratios along its path from the component
    root.  A product is its tree parent's product times the last edge ratio,
    the same multiplications in the same order as without a memo, so every
    coefficient keeps its bits.  Each entry is a `_Sampled`, evaluated at most
    once per grid point.  `classify_pairs` shares one memo between its pairs
    and drops it when it returns: a process-wide cache would hold su(2)_22's
    entries for the rest of a session.
    """

    def __init__(self, cat: CategoryData):
        self.cat = cat
        self.phases = {}          # (a, b) -> exp(i pi (Delta_b - Delta_a))
        self.edges = {}           # (rho, a, b) -> the ratio entry of its x
        self.ratios = {}          # bits of twist_edge_ratio x -> _Sampled linear_ratio(x)
        self.paths = {}           # tuple of edge entries -> _Sampled product

    def edge(self, rho, a, b) -> _Sampled:
        entry = self.edges.get((rho, a, b))
        if entry is None:
            sign = twist_edge_sign(self.cat, rho, a, b)
            phase = self.phases.get((a, b))
            if phase is None:
                sp = self.cat.twists.spin
                phase = self.phases[a, b] = _phase(sp(b) - sp(a))
            x = sign * phase
            key = struct.pack("<dd", x.real, x.imag)
            if key not in self.ratios:
                self.ratios[key] = _Sampled(RationalFunction.linear_ratio(x))
            entry = self.edges[rho, a, b] = self.ratios[key]
        return entry

    def path(self, edges: tuple) -> _Sampled:
        """The product of the edge ratios `edges`, in order."""
        entry = self.paths.get(edges)
        if entry is None:
            fn = (self.path(edges[:-1]).fn * edges[-1].fn if edges
                  else RationalFunction.one())
            entry = self.paths[edges] = _Sampled(fn)
        return entry

    def walk(self, graph: TensorProductGraph, tree: str):
        """The spanning-tree walk of `graph` from its reference channel (0,
        else the least channel), then from each unreached channel in order.

        Returns (reference, routes, amps, components, closing): each channel's
        route (the channels on its tree path from its root) and `_Sampled`
        amplitude, the components as sorted tuples, and the edges that close
        a cycle, in edge order.
        """
        if tree not in ("bfs", "dfs"):
            raise DomainError(f"unknown spanning-tree strategy {tree!r}")
        verts, rho = graph.vertices, graph.rho
        reference = 0 if 0 in verts else min(verts)
        routes = {}                       # channel -> channels on its tree path from its root
        edges = {}                        # channel -> edge-ratio entries along that path
        amps = {}                         # channel -> _Sampled amplitude
        for start in (reference, *verts):
            if start in routes:
                continue
            routes[start], edges[start], amps[start] = (start,), (), self.path(())
            pending = [start]
            while pending:
                v = pending.pop(0) if tree == "bfs" else pending.pop()
                for w in graph.adjacency[v]:
                    if w not in routes:
                        routes[w] = routes[v] + (w,)
                        edges[w] = edges[v] + (self.edge(rho, v, w),)
                        amps[w] = self.path(edges[w])
                        pending.append(w)
        components = tuple(sorted(tuple(sorted(v for v in verts if routes[v][0] == root))
                                  for root in {r[0] for r in routes.values()}))
        closing = [(a, b) for a, b in graph.edges       # all but the tree edges
                   if routes[a] != routes[b][:-1] and routes[b] != routes[a][:-1]]
        return reference, routes, amps, components, closing


def _samples_needed(graph: TensorProductGraph) -> int:
    """2E + 1 off-pole points decide a closing identity of degree at most E."""
    return 2 * max(1, len(graph.edges)) + 1


def _cycle_residual(amp_a, amp_b, ratio, need: int):
    """max |A_b - A_a r| over the first `need` grid points where none of the
    three `_Sampled` is at a pole, and the number taken; at most 200 * need
    points are tried, in windows that double from `need`."""
    cap, window = 200 * need, need
    while True:
        rows = zip(amp_a.upto(window), amp_b.upto(window), ratio.upto(window))
        off = [(va, vb, vr) for va, vb, vr in itertools.islice(rows, window)
               if va is not None and vb is not None and vr is not None]
        if len(off) >= need or window == cap:
            break
        window = min(2 * window, cap)
    off = off[:need]
    return max([0.0] + [abs(vb - va * vr) for va, vb, vr in off]), len(off)


def _cycle_fails(amp_a, amp_b, ratio, need: int) -> bool:
    """`_cycle_residual(...)[0] >= SOLVER_TOL`, read one grid point at a time:
    the same points in the same order, stopping at the first failing one.  A
    NaN difference never fails, as `max` passes over it."""
    taken = 0
    for j in range(200 * need):
        va, vb, vr = amp_a.at(j), amp_b.at(j), ratio.at(j)
        if va is None or vb is None or vr is None:
            continue
        if abs(vb - va * vr) >= SOLVER_TOL:
            return True
        taken += 1
        if taken == need:
            break
    return False


def _verdict(inconsistent: bool, components: tuple, n_cycles: int) -> str:
    """A pair's verdict from its cycle decision, components and cycle count."""
    if inconsistent:
        return INCONSISTENT
    if len(components) > 1:
        return UNDERDETERMINED
    return CYCLE_CONSISTENT if n_cycles else TREE_UNIQUE


def solve_central(cat: CategoryData, rho, phi, tree: str = "bfs") -> AmplitudeSolution:
    """Propagate amplitude ratios over a spanning tree and classify the rest.

    The reference channel (0, else the least channel) seeds its component, so
    its amplitude is exactly 1.  One BFS or DFS walk gives each channel its
    route from its root, and its amplitude as the product of the edge ratios
    along it.  An edge (a, b) where neither route extends the other closes a
    cycle through both routes below their last shared channel: a rational
    identity of degree at most E, sampled at 2E+1 off-pole points against
    `SOLVER_TOL`, each cycle's residual measured in full.  A fresh
    `_SolverMemo` forms each phase, edge ratio and tree product once and
    evaluates each at most once per grid point.  Float sampling misjudges
    long cycles (ty rho = X at even M >= 18, ROADMAP item 1).
    """
    graph = build_tp_graph(cat, rho, phi)
    memo = _SolverMemo(cat)
    reference, routes, amps, components, closing = memo.walk(graph, tree)
    need = _samples_needed(graph)
    cycles = []
    for a, b in closing:
        res, taken = _cycle_residual(amps[a], amps[b], memo.edge(graph.rho, a, b), need)
        ra, rb = routes[a], routes[b]
        meet = len(set(ra) & set(rb)) - 1          # index of the last shared channel
        cycles.append(CycleCheck(tuple(sorted({*ra[meet:], *rb[meet:]})), (a, b), res, taken))
    verdict = _verdict(any(c.residual >= SOLVER_TOL for c in cycles), components, len(cycles))
    funcs = {v: amp.fn for v, amp in amps.items()}
    return AmplitudeSolution(cat, graph, reference, graph.vertices, funcs, verdict,
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
    """Verdict of solve_central for every simple rho and admissible phi != 0.

    The pairs share one `_SolverMemo`; a pair's cycles are read with
    `_cycle_fails` until one fails, and no `AmplitudeSolution` is built.
    """
    if cat.rules is not None:
        pairs = [(rho, phi) for rho in range(cat.n_objects) for phi in range(1, cat.n_objects)
                 if cat.rules.admits(phi, rho, rho)]
    else:
        pairs = [(cat.rho_declared, phi) for phi in sorted(cat.tp_adjacency)]
    memo = _SolverMemo(cat)
    rows = []
    for rho, phi in pairs:
        graph = build_tp_graph(cat, rho, phi)
        _, _, amps, components, closing = memo.walk(graph, "bfs")
        need = _samples_needed(graph)
        fails = any(_cycle_fails(amps[a], amps[b], memo.edge(graph.rho, a, b), need)
                    for a, b in closing)
        rows.append(ClassifyRow(graph.rho, graph.phi, _verdict(fails, components, len(closing)),
                                len(graph.vertices), len(graph.edges), len(closing)))
    return rows
