"""Closed-form category data and an exact verdict oracle, written apart from
baxcat so that the benchmark can check what the program prints.

Every edge ratio of a tensor-product graph is (x + mu)/(1 + x mu) with
x = nu_a nu_b exp(i pi (Delta_b - Delta_a)).  Writing x = exp(i pi t) with t
rational mod 2, the ratio is exp(-i pi t) (mu + x)/(mu + 1/x): a constant
phase, one numerator root at angle t + 1 and one denominator root at angle
1 - t.  At t = 0 or 1 the two roots coincide and the ratio is the constant
+-1.  A cycle closes iff the root multisets of the product cancel and the
phases add up to 0 mod 2, so the verdicts below are exact.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

TREE_UNIQUE = "TREE_UNIQUE"
CYCLE_CONSISTENT = "CYCLE_CONSISTENT"
UNDERDETERMINED = "UNDERDETERMINED"
INCONSISTENT = "INCONSISTENT"


@dataclass(frozen=True, eq=False)
class Topology:
    """Fusion rules, spins and signs of one category, or, for a twist-only
    family, its declared rho x rho channels and per-phi adjacency.  Compared
    and hashed by identity, so results can be cached per object."""

    name: str
    labels: tuple                 # display strings, index = label id
    fuse: object = None           # fuse(a, b) -> tuple of channels of a x b
    spins: tuple = ()             # Fraction per label
    nu: object = None             # nu(a, b, c) = nu_a^{bc}
    dual: tuple = ()
    rho: int | None = None        # twist-only: the declared rho
    channels: tuple = ()          # twist-only: channels of rho x rho
    adjacency: dict | None = None  # twist-only: phi -> undirected edges

    @property
    def n(self) -> int:
        return len(self.labels)

    def label(self, text) -> int:
        return self.labels.index(text)

    def twist_only(self) -> bool:
        return self.fuse is None


def spin_display(A: int) -> str:
    return str(A // 2) if A % 2 == 0 else f"{A}/2"


def _su2_fuse(k):
    def fuse(a, b):
        return tuple(range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2))
    return fuse


def su2(k: int) -> Topology:
    """su(2)_k: doubled spins 0..k, Delta_A = A(A+2)/(4(k+2)),
    nu_a^{bc} = (-1)^((b+c-a)/2)."""
    return Topology(
        f"su2_k{k}", tuple(spin_display(A) for A in range(k + 1)), _su2_fuse(k),
        tuple(Fraction(A * (A + 2), 4 * (k + 2)) for A in range(k + 1)),
        lambda a, b, c: -1 if ((b + c - a) // 2) % 2 else 1,
        tuple(range(k + 1)))


def minimal(k: int) -> Topology:
    """A_{k+1}: the su(2)_k ring, Delta_A = A^2/4 - A(A+2)/(4(k+2)), nu = +1."""
    return Topology(
        f"minimalA_{k + 1}", tuple(spin_display(A) for A in range(k + 1)), _su2_fuse(k),
        tuple(Fraction(A * A, 4) - Fraction(A * (A + 2), 4 * (k + 2)) for A in range(k + 1)),
        lambda a, b, c: 1, tuple(range(k + 1)))


def ty(M: int) -> Topology:
    """Z_M Tambara-Yamagami: clock labels 0..M-1 and X = M, h_a = a(M-a)/M,
    nu = +1.  Delta_X never enters a verdict (X is no channel of rho x rho
    for any rho with an admissible current)."""
    X = M

    def fuse(a, b):
        if a == X and b == X:
            return tuple(range(M))
        if X in (a, b):
            return (X,)
        return ((a + b) % M,)
    return Topology(
        f"ty_{M}", tuple(str(a) for a in range(M)) + ("X",), fuse,
        tuple(Fraction(a * (M - a), M) for a in range(M)) + (Fraction(1, 16),),
        lambda a, b, c: 1, tuple((M - a) % M for a in range(M)) + (X,))


# V x V = 1 + A + S for so(n) and sp(2m); 1 + V + A + S for G_2.  The current
# phi shifts a channel c to the channels of phi x c; self-loops never count.
def _lie(name, labels, rho, channels, adjacency) -> Topology:
    return Topology(name, labels, rho=rho, channels=channels, adjacency=adjacency)


def so(n: int, k: int) -> Topology:
    return _lie(f"so{n}_k{k}", ("0", "A", "S", "V"), 3, (0, 1, 2),
                {1: ((0, 1), (1, 2)), 2: ((0, 2), (1, 2))})


def sp(m: int, k: int) -> Topology:
    return _lie(f"sp{2 * m}_k{k}", ("0", "A", "S", "V"), 3, (0, 1, 2),
                {1: ((0, 1), (1, 2)), 2: ((0, 2), (1, 2))})


def g2(k: int) -> Topology:
    return _lie(f"g2_k{k}", ("0", "V", "A", "S"), 1, (0, 1, 2, 3),
                {2: ((0, 2), (2, 3), (1, 3))})


def family(name: str, **params) -> Topology:
    """The closed-form data behind `baxcat --family NAME` with CLI parameters."""
    if name == "su2":
        return su2(params["level"])
    if name == "minimal":
        return minimal(params["level"])
    if name == "ty":
        return ty(params["M"])
    if name == "so":
        return so(params["n"], params["level"])
    if name == "sp":
        return sp(params["m"], params["level"])
    if name == "g2":
        return g2(params["level"])
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# tensor-product graphs


@dataclass(frozen=True)
class Graph:
    rho: int
    phi: int
    vertices: tuple
    directed: tuple               # ordered (a, b) with N_{a phi}^b != 0, a != b
    edges: tuple                  # undirected, as sorted pairs

    @property
    def components(self) -> list:
        comp = {v: v for v in self.vertices}

        def find(v):
            while comp[v] != v:
                v = comp[v]
            return v
        for a, b in self.edges:
            comp[find(a)] = find(b)
        groups = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values())

    @property
    def n_cycles(self) -> int:
        return len(self.edges) - len(self.vertices) + len(self.components)


def channels(top: Topology, rho: int) -> tuple:
    return top.channels if top.twist_only() else top.fuse(rho, rho)


def pairs(top: Topology) -> list:
    """(rho, phi) pairs `classify` reports, in its order."""
    if top.twist_only():
        return [(top.rho, phi) for phi in sorted(top.adjacency)]
    return [(rho, phi) for rho in range(top.n) for phi in range(1, top.n)
            if rho in top.fuse(phi, rho)]


def graph(top: Topology, rho: int, phi: int) -> Graph:
    verts = tuple(sorted(channels(top, rho)))
    if top.twist_only():
        und = {tuple(sorted(e)) for e in top.adjacency[phi]}
        directed = tuple(sorted(und | {(b, a) for a, b in und}))
    else:
        directed = tuple((a, b) for a in verts for b in verts
                         if a != b and b in top.fuse(a, phi))
        und = {tuple(sorted(e)) for e in directed}
    return Graph(rho, phi, verts, directed, tuple(sorted(und)))


# ---------------------------------------------------------------------------
# exact amplitudes


def edge_angle(top: Topology, rho: int, a: int, b: int) -> Fraction:
    """t with x = exp(i pi t) for the edge a -> b, reduced mod 2."""
    t = top.spins[b] - top.spins[a]
    if top.nu(a, rho, rho) * top.nu(b, rho, rho) < 0:
        t += 1
    return t % 2


@dataclass(frozen=True)
class Amplitude:
    """exp(i pi phase) * prod (mu - e^{i pi r})^{roots[r]}, exact."""

    phase: Fraction
    roots: tuple                  # sorted (angle, nonzero multiplicity) pairs

    @staticmethod
    def one() -> "Amplitude":
        return Amplitude(Fraction(0), ())

    @staticmethod
    def edge(t: Fraction) -> "Amplitude":
        if t in (0, 1):
            return Amplitude(-t % 2, ())
        return Amplitude(-t % 2, tuple(sorted({(t + 1) % 2: 1, (1 - t) % 2: -1}.items())))

    def __mul__(self, other: "Amplitude") -> "Amplitude":
        c = Counter(dict(self.roots))
        c.update(dict(other.roots))
        return Amplitude((self.phase + other.phase) % 2,
                         tuple(sorted((r, m) for r, m in c.items() if m)))

    def inverse(self) -> "Amplitude":
        return Amplitude(-self.phase % 2, tuple((r, -m) for r, m in self.roots))

    def __call__(self, mu: complex) -> complex:
        val = cmath.exp(1j * math.pi * float(self.phase))
        for r, m in self.roots:
            val *= (mu - cmath.exp(1j * math.pi * float(r))) ** m
        return val


def edge_ratio(top: Topology, rho: int, a: int, b: int, mu: complex) -> complex:
    """A_b / A_a = (x + mu)/(1 + x mu) in floating point."""
    t = edge_angle(top, rho, a, b)
    if t in (0, 1):
        return complex(1 - 2 * int(t))
    x = cmath.exp(1j * math.pi * float(t))
    return (x + mu) / (1 + x * mu)


@dataclass(frozen=True)
class Solution:
    graph: Graph
    verdict: str
    reference: int
    amplitudes: dict              # channel -> Amplitude relative to the reference

    @property
    def n_vertices(self) -> int:
        return len(self.graph.vertices)


def solve(top: Topology, rho: int, phi: int) -> Solution:
    """Exact verdict: spanning forest by breadth-first search, then one exact
    identity test per closing edge.  The verdict does not depend on the tree
    because holonomies multiply."""
    g = graph(top, rho, phi)
    ref = 0 if 0 in g.vertices else min(g.vertices)
    if top.twist_only():
        # the declared graphs are trees, whose amplitudes no cycle constrains
        if g.n_cycles or len(g.components) > 1:
            raise ValueError(f"{top.name}: declared graph for phi={phi} is not a tree")
        return Solution(g, TREE_UNIQUE, ref, {})
    adj = {v: [] for v in g.vertices}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    amp, tree = {}, set()
    for start in g.vertices:
        if start in amp:
            continue
        amp[start] = Amplitude.one()
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v]):
                if w not in amp:
                    amp[w] = amp[v] * Amplitude.edge(edge_angle(top, rho, v, w))
                    tree.add((min(v, w), max(v, w)))
                    queue.append(w)
    if any(e not in tree and amp[e[1]] != amp[e[0]] * Amplitude.edge(edge_angle(top, rho, *e))
           for e in g.edges):
        verdict = INCONSISTENT
    elif len(g.components) > 1:
        verdict = UNDERDETERMINED
    elif g.n_cycles:
        verdict = CYCLE_CONSISTENT
    else:
        verdict = TREE_UNIQUE
    rel = {v: a * amp[ref].inverse() for v, a in amp.items()}
    return Solution(g, verdict, ref, rel)


@cache
def classify(top: Topology) -> list:
    return [solve(top, rho, phi) for rho, phi in pairs(top)]


# ---------------------------------------------------------------------------
# height bases


def height_count(top: Topology, rho: int, L: int, periodic: bool) -> int:
    """Admissible height sequences h_0..h_L, h_{j+1} in rho x h_j, counted
    from the L-th power of rho's fusion matrix: its trace for a periodic
    basis, the sum of its entries for open ends."""
    n = top.n
    step = [[1 if c in top.fuse(rho, h) else 0 for c in range(n)] for h in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(L):
        power = [[sum(power[i][m] * step[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
    if periodic:
        return sum(power[i][i] for i in range(n))
    return sum(map(sum, power))
