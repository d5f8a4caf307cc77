"""Quantum 6j symbols for the su(2)_k fusion ring and the gauge fix that puts
the F-blocks into the convention used throughout this package.

The raw Racah table (q-deformed 6j with sign prefactor) solves the pentagon
and is unitary, but its special-value entries carry label-dependent signs.
All identities this package relies on are sign conventions on top of fixed
magnitudes, so the table is post-processed by a GF(2) solve over per-vertex
sign gauges plus the one associator twist available on the Z_2-graded ring.
Doubled-integer spins throughout (label A means spin A/2).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .category import FSymbolTable


def q_int(n: int, k: int) -> float:
    return math.sin(n * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))


@lru_cache(maxsize=None)
def _q_fact(n: int, k: int) -> float:
    out = 1.0
    for m in range(2, n + 1):
        out *= q_int(m, k)
    return out


def su2_admissible(A: int, B: int, C: int, k: int) -> bool:
    if (A + B + C) % 2:
        return False
    return abs(A - B) <= C <= min(A + B, 2 * k - A - B)


def su2_qdim(A: int, k: int) -> float:
    return q_int(A + 1, k)


def _tri(A, B, C, k):
    return math.sqrt(
        _q_fact((-A + B + C) // 2, k) * _q_fact((A - B + C) // 2, k)
        * _q_fact((A + B - C) // 2, k) / _q_fact((A + B + C) // 2 + 1, k))


def racah_sixj(A, B, E, C, D, F, k) -> float:
    """{a b e; c d f}_q at q = exp(i pi/(k+2)); doubled-integer arguments."""
    for (x, y, z) in ((A, B, E), (E, C, D), (B, C, F), (A, F, D)):
        if not su2_admissible(x, y, z, k):
            return 0.0
    T = [(A + B + E) // 2, (E + C + D) // 2, (B + C + F) // 2, (A + F + D) // 2]
    Q = [(A + B + C + D) // 2, (A + E + C + F) // 2, (B + E + D + F) // 2]
    total = 0.0
    for z in range(max(T), min(Q) + 1):
        term = (-1) ** z * _q_fact(z + 1, k)
        for t in T:
            term /= _q_fact(z - t, k)
        for q in Q:
            term /= _q_fact(q - z, k)
        total += term
    return _tri(A, B, E, k) * _tri(E, C, D, k) * _tri(B, C, F, k) * _tri(A, F, D, k) * total


def _raw_blocks(k: int) -> dict:
    """Racah-normalised [F^{xyz}_w] blocks; pentagon-true, unitary."""
    lab = range(k + 1)
    blocks = {}
    for x, y, z, w in itertools.product(lab, repeat=4):
        us = tuple(u for u in lab if su2_admissible(x, y, u, k) and su2_admissible(u, z, w, k))
        vs = tuple(v for v in lab if su2_admissible(y, z, v, k) and su2_admissible(x, v, w, k))
        if not us or not vs:
            continue
        mat = np.zeros((len(us), len(vs)))
        sgn = (-1) ** ((x + y + z + w) // 2)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                mat[i, j] = sgn * math.sqrt(su2_qdim(u, k) * su2_qdim(v, k)) * racah_sixj(
                    x, y, u, z, w, v, k)
        blocks[(x, y, z, w)] = (us, vs, mat)
    return blocks


# ---------------------------------------------------------------------------
# GF(2) sign gauge


class _GF2System:
    """Sparse XOR system solved by Gaussian elimination on bitmask rows."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.rows = []

    def add(self, idxs, rhs):
        mask = 0
        for i in idxs:
            mask ^= 1 << i
        if mask == 0:
            if rhs:
                raise ValueError("inconsistent constant sign constraint")
            return
        self.rows.append((mask, rhs))

    def solve(self):
        pivots = {}
        for mask, rhs in self.rows:
            m, r = mask, rhs
            while m:
                p = m.bit_length() - 1
                if p in pivots:
                    pm, pr = pivots[p]
                    m ^= pm
                    r ^= pr
                else:
                    pivots[p] = (m, r)
                    break
            else:
                if r:
                    return None
        val = [0] * self.nvars
        for p in sorted(pivots):      # row masks only hold bits <= pivot
            pm, pr = pivots[p]
            v = pr
            m = pm ^ (1 << p)
            while m:
                q = m.bit_length() - 1
                v ^= val[q]
                m ^= 1 << q
            val[p] = v
        return val


def _gauge_bit_indices(x, y, z, w, u, v, vid, xi):
    idxs = [vid[(x, y, u)], vid[(u, z, w)], vid[(y, z, v)], vid[(x, v, w)]]
    if x % 2 and y % 2 and z % 2:
        idxs.append(xi)           # Z_2 associator twist on the all-odd blocks
    return idxs


def _sign_system(k: int, blocks: dict):
    """Constraints pinning the convention:
      - F_{tt'}[r 0; a b] = +1 on its support,
      - [F^{a r r}_a]_{s 0} and [F^{r r r}_r]_{0 s} positive,
      - the three-way rotation identity,
      - [F^{hp hm r}_r]_{chi h} = [F^{hm r r}_{hp}]_{h chi}  (projector symmetry),
      - sqrt(d_b) [F^{r f b}_r]_{r a} = sqrt(d_a) [F^{r a f}_r]_{r b}  (vertex cancellation).
    Magnitudes already agree (tetrahedral symmetry of the Racah symbol); only
    signs are solved for.
    """
    lab = range(k + 1)
    verts = [(x, y, u) for x, y, u in itertools.product(lab, repeat=3)
             if su2_admissible(x, y, u, k)]
    vid = {v: i for i, v in enumerate(verts)}
    xi = len(verts)
    sys2 = _GF2System(xi + 1)
    eps = 1e-10
    entry = FSymbolTable(blocks).block_value

    def bit(val):
        return 0 if val.real > 0 else 1

    def fix_sign(x, y, z, w, u, v, target_bit):
        val = entry(x, y, z, w, u, v)
        sys2.add(_gauge_bit_indices(x, y, z, w, u, v, vid, xi), bit(val) ^ target_bit)

    def same_sign(t1, u1, v1, t2, u2, v2, w1=1.0, w2=1.0):
        a = entry(*t1, u1, v1)
        b = entry(*t2, u2, v2)
        a = None if a is None else w1 * a
        b = None if b is None else w2 * b
        if a is None or b is None or (abs(a) < eps and abs(b) < eps):
            return
        idxs = _gauge_bit_indices(*t1, u1, v1, vid, xi) + _gauge_bit_indices(*t2, u2, v2, vid, xi)
        sys2.add(idxs, bit(a) ^ bit(b))

    for a, r in itertools.product(lab, repeat=2):
        for b in lab:
            if su2_admissible(a, r, b, k):
                fix_sign(a, r, 0, b, b, r, 0)
                fix_sign(a, r, r, a, b, 0, 0)
    for r in lab:
        for s in lab:
            if su2_admissible(r, r, s, k):
                fix_sign(r, r, r, r, 0, s, 0)

    dq = lambda A: su2_qdim(A, k)
    for a, b, c in itertools.product(lab, repeat=3):
        if not su2_admissible(a, b, c, k):
            continue
        for G, A in itertools.product(lab, repeat=2):
            if not su2_admissible(G, A, b, k):
                continue
            for B in lab:
                if not (su2_admissible(a, G, B, k) and su2_admissible(B, A, c, k)):
                    continue
                w1 = math.sqrt(dq(A) * dq(G) / dq(b))
                w2 = math.sqrt(dq(A) * dq(B) / dq(c))
                w3 = math.sqrt(dq(G) * dq(B) / dq(a))
                same_sign((a, G, A, c), B, b, (B, a, b, A), G, c, w1, w2)
                same_sign((a, G, A, c), B, b, (G, b, c, B), A, a, w1, w3)

    for hm, hp, r, chi, h in itertools.product(lab, repeat=5):
        if (su2_admissible(hp, hm, chi, k) and su2_admissible(chi, r, r, k)
                and su2_admissible(hm, r, h, k) and su2_admissible(hp, h, r, k)):
            same_sign((hp, hm, r, r), chi, h, (hm, r, r, hp), h, chi)

    for r, f in itertools.product(lab, repeat=2):
        if not su2_admissible(r, f, r, k):
            continue
        for a, b in itertools.product(lab, repeat=2):
            if (su2_admissible(r, r, a, k) and su2_admissible(r, r, b, k)
                    and su2_admissible(a, f, b, k)):
                same_sign((r, f, b, r), r, a, (r, a, f, r), r, b,
                          math.sqrt(dq(b)), math.sqrt(dq(a)))
    return sys2, vid, xi


@lru_cache(maxsize=None)
def su2k_f_blocks(k: int) -> dict:
    """Gauge-fixed complex F blocks for su(2)_k, keyed (x,y,z,w); the
    matrices are read-only."""
    blocks = _raw_blocks(k)
    sys2, vid, xi = _sign_system(k, blocks)
    sol = sys2.solve()
    if sol is None:
        raise RuntimeError(f"sign gauge for su(2)_{k} is infeasible")
    out = {}
    for (x, y, z, w), (us, vs, mat) in blocks.items():
        fixed = mat.astype(complex)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                s = 0
                for idx in _gauge_bit_indices(x, y, z, w, u, v, vid, xi):
                    s ^= sol[idx]
                if s:
                    fixed[i, j] = -fixed[i, j]
        fixed.setflags(write=False)         # cached and shared by su2 and minimal
        out[(x, y, z, w)] = (us, vs, fixed)
    return out
