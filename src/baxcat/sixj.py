"""Quantum 6j symbols for the su(2)_k fusion ring, in the sign gauge used
throughout this package.

The Racah table (q-deformed 6j with sign prefactor) solves the pentagon and
is unitary, but its special-value entries carry label-dependent signs.  All
identities this package relies on are sign conventions on top of fixed
magnitudes, so each entry is multiplied by one closed-form sign: a vertex
sign ``g`` on each of its four trivalent vertices, plus the Z_2 associator
twist on the blocks whose three upper labels are all odd (see
``su2k_f_blocks``).  Doubled-integer spins throughout (label A means spin A/2).
"""

from __future__ import annotations

import math
from functools import lru_cache


def q_int(n: int, k: int) -> float:
    return math.sin(n * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))


@lru_cache(maxsize=None)
def _q_fact(n: int, k: int) -> float:
    out = 1.0
    for m in range(2, n + 1):
        out *= q_int(m, k)
    return out


def su2_admissible(A, B, C, k: int):
    """The su(2)_k fusion rule N_{AB}^C != 0, on ints or on broadcasting
    label arrays."""
    return ((A + B + C) % 2 == 0) & (abs(A - B) <= C) & (C <= A + B) & (A + B + C <= 2 * k)


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


def _racah_z_sums(A, B, E, C, D, F, QF):
    """`racah_sixj`'s z-sums over label arrays, z outside, each term in the
    scalar operation order; QF[m] is `_q_fact(m, k)`."""
    import numpy as np
    T = ((A + B + E) // 2, (E + C + D) // 2, (B + C + F) // 2, (A + F + D) // 2)
    Q = ((A + B + C + D) // 2, (A + E + C + F) // 2, (B + E + D + F) // 2)
    lo, hi = np.max(T, axis=0), np.min(Q, axis=0)
    total = np.zeros(len(A))
    for z in range(int(lo.min()), int(hi.max()) + 1):
        on = np.flatnonzero((lo <= z) & (z <= hi))
        term = (-1) ** z * QF[z + 1]
        for t in T:
            term = term / QF[z - t[on]]
        for q in Q:
            term = term / QF[q[on] - z]
        total[on] += term
    return total


def _vertex_sign(x: int, y: int, u: int) -> int:
    """Gauge bit of the vertex (x, y; u): with q = (x - y + u)/2,
    r = (y + u - x)/2 and s = (x + y + u)/2, it is
    C(q, 2) + C(r, 2) + C(s, 2) + q r mod 2."""
    q, r, s = (x - y + u) // 2, (y + u - x) // 2, (x + y + u) // 2
    return (q * (q - 1) // 2 + r * (r - 1) // 2 + s * (s - 1) // 2 + q * r) % 2


@lru_cache(maxsize=None)
def su2k_f_blocks(k: int) -> dict:
    """Gauge-fixed complex F blocks for su(2)_k, keyed (x,y,z,w); the
    matrices are read-only.

    [F^{xyz}_w]_{uv} is the Racah-normalised entry
    (-1)^{(x+y+z+w)/2} sqrt(d_u d_v) {x y u; z w v}_q times
    (-1)^{g(x,y;u) + g(u,z;w) + g(y,z;v) + g(x,v;w) + [x, y, z all odd]}.
    The convention this fixes: F_{tt'}[r 0; a b] = +1 on its support,
    [F^{a r r}_a]_{s 0} and [F^{r r r}_r]_{0 s} positive, the three-way
    rotation identity, projector symmetry and vertex cancellation.

    All entries are computed at once, as arrays: `racah_sixj`'s z-sum runs
    with z outside, over the entries whose range holds z, and every term,
    product and sign keeps the scalar operation order, so each value is the
    one `racah_sixj` gives, bit for bit.
    """
    from .category import f_blocks
    return f_blocks(*_su2k_entries(k))           # cached and shared by su2 and minimal


def _su2k_entries(k: int):
    """The (x, y, z, w, u, v) rows of `su2k_f_blocks(k)`, in key order, and
    their values."""
    import numpy as np
    from .category import f_rows
    n = k + 1
    rows = f_rows(su2_admissible(*np.ogrid[:n, :n, :n], k))
    x, y, z, w, u, v = rows.T

    QF = np.array([_q_fact(m, k) for m in range(2 * k + 2)])
    total = _racah_z_sums(x, y, u, z, w, v, QF)

    def tri(a, b, c):
        return np.sqrt(QF[(-a + b + c) // 2] * QF[(a - b + c) // 2] * QF[(a + b - c) // 2]
                       / QF[(a + b + c) // 2 + 1])

    racah = tri(x, y, u) * tri(u, z, w) * tri(y, z, v) * tri(x, v, w) * total
    qd = np.array([su2_qdim(a, k) for a in range(n)])
    root = np.sqrt(qd[u] * qd[v])
    val = np.where((x + y + z + w) // 2 % 2, -root, root) * racah
    twist = x % 2 & y % 2 & z % 2                # Z_2 associator twist on the all-odd blocks
    flip = (twist + _vertex_sign(x, y, u) + _vertex_sign(u, z, w)
            + _vertex_sign(y, z, v) + _vertex_sign(x, v, w)) % 2
    return rows, np.where(flip, -val, val) + 0.0  # + 0.0 stores a zero as +0
