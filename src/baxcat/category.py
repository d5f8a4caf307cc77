"""Category data model: fusion rules, quantum dimensions, twist data and
F-symbols, plus the axiom/identity checks that validate them.

Conventions
-----------
Labels are dense integers 0..n-1 with 0 the identity object.  Half-integer
su(2) spins are stored as doubled integers and rendered as "1/2", "3/2", ...
by the display layer.

F-symbols ``[F^{xyz}_w]_{uv}``, where u runs over x*y and v over y*z, are
stored as one flat sorted index of entries; the entries of each (x, y, z, w)
form a unitary block.  The two-index symbol written ``F_{tt'}[r s; a b]`` is
``[F^{a r s}_b]_{t t'}``.  The tables are kept in the gauge where the
special-value and rotation identities below hold with positive square roots;
correctness of a table means passing `check_f_identities`, not matching any
published gauge.

Labels, fusion channels, spins and signs are plain Python data, so solving
and classifying never load numpy: each function that computes with arrays
(the F index, the identity checks, JSON with F) imports it where it runs.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import operator
from fractions import Fraction

from .errors import AxiomError, CapabilityError, DomainError
from .record import record
from .report import VerificationReport, fmt_float


@record(frozen=True)
class ObjectLabel:
    id: int
    display: str


@record(frozen=True)
class FusionRules:
    """Multiplicity-free fusion rules with duality map: `products[a][b]` is
    the sorted tuple of channels c with N_{ab}^c = 1."""

    n_objects: int
    products: tuple
    dual: tuple

    @classmethod
    def from_triples(cls, n, triples, dual) -> "FusionRules":
        """The rules with N_{ab}^c = 1 exactly on the (a, b, c) given."""
        prods = [[set() for _ in range(n)] for _ in range(n)]
        for a, b, c in triples:
            prods[a][b].add(c)
        return cls(n, tuple(tuple(tuple(sorted(cs)) for cs in row) for row in prods),
                   tuple(dual))

    def admits(self, a, b, c) -> bool:
        """N_{ab}^c != 0."""
        return c in self.products[a][b]

    def fusion(self, a, b):
        return list(self.products[a][b])

    @functools.cached_property
    def N(self):
        """N[a, b, c] = N_{ab}^c as a read-only uint8 array, built on first read."""
        import numpy as np
        n = self.n_objects
        N = np.zeros((n, n, n), dtype=np.uint8)
        for a, row in enumerate(self.products):
            for b, cs in enumerate(row):
                N[a, b, list(cs)] = 1
        N.setflags(write=False)
        return N

    def nhat(self, a):
        # (N_a)_b^c = N_{ab}^c
        return self.N[a].astype(float)


@record(frozen=True)
class QuantumDims:
    """Quantum dimensions as Python floats; `d` is the same as an array."""

    values: tuple

    def __getitem__(self, a) -> float:
        return self.values[a]

    @functools.cached_property
    def d(self):
        """The dimensions as a read-only float array, built on first read."""
        import numpy as np
        d = np.array(self.values, dtype=float)
        d.setflags(write=False)
        return d


@record(frozen=True)
class TwistData:
    """Topological spins as exact rationals and the sign table nu_a^{bc}.

    nu is keyed (a, b, c) exactly on the admissible triples N_{bc}^a != 0.
    A Delta entry may be None for twist-only families whose source tables do
    not state that spin; no solver path consumes it.
    """

    Delta: tuple                 # Fraction (or None) per label
    nu: dict

    def spin(self, a) -> Fraction:
        fr = self.Delta[a]
        if fr is None:
            raise CapabilityError(f"topological spin of label {a} is not declared")
        return fr


_KEY_BITS = 10          # bits per label in a flat F key, so labels stay below 1024


def f_keys(x, y, z, w, u, v):
    """Keys of label tuples (x, y, z, w, u, v), ordered as the tuples are; the
    labels are ints (giving an int) or int64 arrays (giving an int64 array)."""
    s = 1 << _KEY_BITS
    return ((((x * s + y) * s + z) * s + w) * s + u) * s + v


def f_labels(keys):
    """The (x, y, z, w, u, v) rows of an int64 key array, inverse of `f_keys`."""
    import numpy as np
    return keys[:, None] >> _KEY_BITS * np.arange(5, -1, -1) & (1 << _KEY_BITS) - 1


class FSymbolTable:
    """Sparse storage for [F^{xyz}_w]_{uv}, indexed once as `flat`, which
    every check and the export read.

    Takes a zero-argument loader returning the (x, y, z, w, u, v) rows, an
    int64 array, and their values; it runs on the first read of `flat`.
    """

    def __init__(self, load):
        self._load = load

    @functools.cached_property
    def flat(self):
        """Every entry as read-only (keys, values): the sorted `f_keys` of the
        (x, y, z, w, u, v) tuples and their values, closed by a sentinel key
        above all others with value 0."""
        import numpy as np
        labels, vals = self._load()
        vals = vals.astype(complex)
        if labels.size and labels.max() >> _KEY_BITS:
            raise CapabilityError(f"F table labels reach {labels.max()}; "
                                  f"the flat index holds labels below {1 << _KEY_BITS}")
        keys = f_keys(*labels.T)
        if not np.all(keys[1:] > keys[:-1]):        # the built-in tables come sorted
            order = np.argsort(keys)
            keys, vals = keys[order], vals[order]
        keys = np.append(keys, np.iinfo(np.int64).max)
        vals = np.append(vals, 0)
        keys.setflags(write=False)
        vals.setflags(write=False)
        return keys, vals

    def gather(self, x, y, z, w, u, v):
        """[F^{xyz}_w]_{uv} over label arrays, 0 where the table has no entry."""
        import numpy as np
        try:
            labels = [np.asarray(t, dtype=np.int64) for t in (x, y, z, w, u, v)]
            inside = not np.any(functools.reduce(operator.or_, labels) >> _KEY_BITS)
        except OverflowError:           # past the int64 range
            inside = False
        if not inside:
            raise DomainError(f"F labels outside 0..{(1 << _KEY_BITS) - 1}")
        return self.at(f_keys(*labels))

    def at(self, q):
        """The entries of an int64 array of `f_keys`, 0 where the table has none."""
        import numpy as np
        keys, vals = self.flat
        pos = np.searchsorted(keys, q)
        out = vals[pos]
        out[keys[pos] != q] = 0
        return out

    def block_value(self, x, y, z, w, u, v):
        """[F^{xyz}_w]_{uv}, one binary search of `flat`, or None when the
        table has no such entry.  A label outside 0..1023, which `f_keys` would
        carry into the next label's bits, is refused."""
        if (x | y | z | w | u | v) >> _KEY_BITS:
            raise DomainError(f"F labels {(x, y, z, w, u, v)} outside 0..{(1 << _KEY_BITS) - 1}")
        keys, vals = self.flat
        q = f_keys(x, y, z, w, u, v)
        pos = keys.searchsorted(q)          # below the sentinel key, so a position in keys
        return complex(vals[pos]) if keys[pos] == q else None


def _block_entries(blocks):
    """The (x, y, z, w, u, v) rows and values of a block dict, block by block."""
    import numpy as np
    us, vs, mats = zip(*blocks.values()) if blocks else ((), (), ())
    nu, nv = (np.fromiter(map(len, t), np.int64, len(t)) for t in (us, vs))
    labels = _block_rows(np.array(list(blocks), dtype=np.int64).reshape(-1, 4),
                         np.fromiter(itertools.chain.from_iterable(us), np.int64, nu.sum()), nu,
                         np.fromiter(itertools.chain.from_iterable(vs), np.int64, nv.sum()), nv)
    return labels, np.concatenate((np.zeros(0, complex), *mats), axis=None)


def _block_rows(heads, us, nu, vs, nv):
    """The (x, y, z, w, u, v) rows of blocks whose (x, y, z, w) are `heads`:
    block j is the product of its nu[j] labels u and nv[j] labels v, which
    follow those of the blocks before it in `us` and `vs`, u-major."""
    import numpy as np
    i, t = _ranges(np.zeros_like(nu), nu * nv)          # block, entry in block
    return np.column_stack((heads[i], us[(np.cumsum(nu) - nu)[i] + t // nv[i]],
                            vs[(np.cumsum(nv) - nv)[i] + t % nv[i]]))


def f_rows(adm):
    """The (x, y, z, w, u, v) rows, in key order, of the F table of the fusion
    rules adm[a, b, c] = (N_{ab}^c != 0): block (x, y, z, w) is the full
    product of its u in x*y with w in u*z and its v in y*z with w in x*v."""
    import numpy as np
    n = len(adm)
    x, y, z, w = np.indices((n,) * 4).reshape(4, -1)
    has_u = adm[x, y] & adm[:, z, w].T
    has_v = adm[y, z] & adm[x, :, w]
    keep = has_u.any(1) & has_v.any(1)
    has_u, has_v = has_u[keep], has_v[keep]
    return _block_rows(np.column_stack((x, y, z, w))[keep], np.nonzero(has_u)[1], has_u.sum(1),
                       np.nonzero(has_v)[1], has_v.sum(1))


def f_blocks(labels, vals) -> dict:
    """The blocks {(x,y,z,w): (us, vs, matrix)} of entries sorted by their
    (x, y, z, w, u, v) rows, each block the full product of its us and vs;
    the matrices are read-only views of `vals`."""
    import numpy as np
    vals = np.array(vals, dtype=complex)
    vals.setflags(write=False)
    if not len(labels):
        return {}
    first = np.r_[True, np.any(labels[1:, :4] != labels[:-1, :4], axis=1)]
    start = np.flatnonzero(first)
    size = np.diff(np.r_[start, len(labels)])
    nu = np.add.reduceat(first | np.r_[True, labels[1:, 4] != labels[:-1, 4]], start,
                         dtype=np.int64)
    ucol, vcol = labels[:, 4].tolist(), labels[:, 5].tolist()
    blocks = {}
    for head, s, m, nu_, nv in zip(labels[start, :4].tolist(), start.tolist(), size.tolist(),
                                   nu.tolist(), (size // nu).tolist()):
        blocks[tuple(head)] = (tuple(ucol[s:s + m:nv]), tuple(vcol[s:s + nv]),
                               vals[s:s + m].reshape(nu_, nv))
    return blocks


@record
class CategoryData:
    """Everything the solver and verifier consume.

    Twist-only families (no fusion tensor, no F) instead declare the rho x rho
    channel list and the per-phi tensor-product adjacency taken verbatim from
    the source tables.
    """

    name: str
    labels: tuple
    twists: TwistData
    rules: FusionRules | None = None
    dims: QuantumDims | None = None
    f: FSymbolTable | None = None
    # declared data for twist-only families
    channels: tuple | None = None
    rho_declared: int | None = None
    tp_adjacency: dict | None = None     # phi id -> tuple of directed (a, b)
    notes: tuple = ()                    # data-provenance caveats, exported as-is

    @property
    def n_objects(self) -> int:
        return len(self.labels)

    @property
    def baxterisable(self) -> bool:
        full = self.rules is not None and self.dims is not None
        declared = self.channels is not None and self.tp_adjacency is not None
        return (full or declared) and self.twists is not None

    @property
    def representable(self) -> bool:
        return self.baxterisable and self.f is not None

    def check_label(self, a) -> int:
        try:
            label = operator.index(a)       # an int, or an integer type such as numpy's
        except TypeError:
            label = -1
        if not 0 <= label < self.n_objects:
            raise DomainError(f"invalid label {a!r} for {self.name}")
        return label

    def display(self, a) -> str:
        return self.labels[self.check_label(a)].display

    def label_id(self, text) -> int:
        for lab in self.labels:
            if lab.display == text:
                return lab.id
        raise DomainError(f"unknown label {text!r} for {self.name}")


# ---------------------------------------------------------------------------
# operations


def fusion_product(cat: CategoryData, a, b):
    """Sorted channels of a x b."""
    a, b = cat.check_label(a), cat.check_label(b)
    if cat.rules is None:
        raise CapabilityError(f"{cat.name} carries no fusion tensor")
    return cat.rules.fusion(a, b)


def check_fusion_ring(rules: FusionRules) -> VerificationReport:
    """Identity, commutativity, duality and associativity axioms.

    The report carries the first counterexample of each failing axiom.
    """
    import numpy as np
    n = rules.n_objects
    N = rules.N
    rep = VerificationReport("fusion_ring", params={"n_objects": n})

    def add(name, bad, samples):
        rep.add(name, 0.0 if bad is None else 1.0, 0.5, samples=samples,
                **({} if bad is None else {"counterexample": list(bad)}))

    eye = np.eye(n, dtype=int)
    add("identity", _first_true((N[:, 0, :] != eye) | (N[0] != eye)), n * n)
    add("commutativity", _first_true(N != N.transpose(1, 0, 2)), n ** 3)
    dual = np.zeros((n, n), dtype=int)
    dual[np.arange(n), rules.dual] = 1
    add("duality", _first_true(N[:, :, 0] != dual), n * n)

    # (ab)c = a(bc) for one a at a time, as [b, c, d] arrays:
    # sum_x N_ab^x N_xc^d against sum_y N_bc^y N_ay^d, in float64, which
    # BLAS multiplies and which holds every such sum (at most n) exactly
    bad = None
    Ni = N.astype(np.float64)
    for a in range(n):
        lhs = (Ni[a] @ Ni.reshape(n, n * n)).reshape(n, n, n)
        rhs = (Ni.reshape(n * n, n) @ Ni[a]).reshape(n, n, n)
        hit = _first_true(lhs != rhs)
        if hit is not None:
            bad = (a, *hit)
            break
    add("associativity", bad, n ** 4)
    return rep


def _first_true(mask):
    """Index of the first True entry in lexicographic order, or None."""
    hits = mask.nonzero()
    return tuple(int(i[0]) for i in hits) if len(hits[0]) else None


def compute_quantum_dims(rules: FusionRules) -> QuantumDims:
    """d_a = Perron eigenvalue of the fusion matrix of a; d_0 = 1 exactly."""
    import numpy as np
    ring = check_fusion_ring(rules)
    if not ring.passed:
        failing = [c.name for c in ring.checks if not c.passed]
        raise AxiomError(f"fusion ring axioms violated: {failing}")
    d = np.empty(rules.n_objects)
    for a in range(rules.n_objects):
        ev = np.linalg.eigvals(rules.nhat(a))
        d[a] = float(np.max(ev.real))
    d[0] = 1.0
    return QuantumDims(tuple(d.tolist()))


def _phase(frac: Fraction) -> complex:
    """exp(i pi frac) from an exact rational, reduced mod 2 first."""
    frac = frac % 2
    return cmath.exp(1j * math.pi * (frac.numerator / frac.denominator))


def twist_factor(cat: CategoryData, a, b, c) -> complex:
    """Omega_a^{bc} = nu_a^{bc} exp(i pi (Delta_b + Delta_c - Delta_a))."""
    a, b, c = cat.check_label(a), cat.check_label(b), cat.check_label(c)
    nu = cat.twists.nu.get((a, b, c))
    if nu is None:
        raise DomainError(
            f"triple ({cat.display(a)}; {cat.display(b)}, {cat.display(c)}) "
            f"is not admissible in {cat.name}")
    sp = cat.twists.spin
    return nu * _phase(sp(b) + sp(c) - sp(a))


def twist_edge_ratio(cat: CategoryData, rho, a, b) -> complex:
    """Omega_rho^{rho b} / Omega_rho^{rho a} in the gauge-free form
    nu_a^{rho rho} nu_b^{rho rho} exp(i pi (Delta_b - Delta_a))."""
    rho, a, b = cat.check_label(rho), cat.check_label(a), cat.check_label(b)
    return twist_edge_sign(cat, rho, a, b) * _phase(cat.twists.spin(b) - cat.twists.spin(a))


def twist_edge_sign(cat: CategoryData, rho: int, a: int, b: int):
    """nu_a^{rho rho} nu_b^{rho rho}, the sign of a twist-edge ratio, for
    checked labels."""
    nua = cat.twists.nu.get((a, rho, rho))
    nub = cat.twists.nu.get((b, rho, rho))
    if nua is None or nub is None:
        raise DomainError(
            f"missing nu entry for channels {cat.display(a)}, {cat.display(b)} "
            f"of {cat.display(rho)} x {cat.display(rho)} in {cat.name}")
    return nua * nub


# ---------------------------------------------------------------------------
# F-symbol identity checks


def _fusion_csr(rules: FusionRules):
    """The admissible triples (x, y, z) as rows in lexicographic order, and
    `ptr` with the rows of x*n + y at ptr[x*n + y]:ptr[x*n + y + 1]; those of
    x alone are at ptr[x*n]:ptr[(x + 1)*n]."""
    import numpy as np
    n = rules.n_objects
    trip = np.argwhere(rules.N)
    return trip, np.searchsorted(trip[:, 0] * n + trip[:, 1], np.arange(n * n + 1))


def _ranges(start, count):
    """(i, t) for every t in start[i]:start[i] + count[i], in order."""
    import numpy as np
    i = np.repeat(np.arange(len(start)), count)
    return i, np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count, count)


def _expand(ptr, p):
    """(i, t) for every row t in ptr[p[i]]:ptr[p[i] + 1], in order: the rows
    joined to each p[i] through a `_fusion_csr` pointer array."""
    return _ranges(ptr[p], ptr[p + 1] - ptr[p])


def _cmul(x, y):
    """x * y by the real operations of Python's complex product.  With `_cabs`,
    the modulus as Python's abs rounds it, this keeps the residuals equal to a
    scalar loop's bit for bit (numpy's complex multiply and abs may round
    differently), so ties pick the same worst tuple."""
    import numpy as np
    out = np.empty(len(x), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _cabs(z):
    import numpy as np
    return np.hypot(z.real, z.imag)


def _fold_worst(res, worst, where, tag):
    """Fold residuals listed in loop order into the running (worst, where):
    the first maximum wins, as a strict `>` scan would find it.  A NaN
    residual, from a NaN in F, counts as infinite, so such a table fails."""
    if len(res):
        m = int(res.argmax())               # the first NaN, if there is one
        r = math.inf if math.isnan(res[m]) else float(res[m])
        if r > worst:
            return r, tag(m)
    return worst, where


_PENTAGON_TERMS = 1 << 13    # pentagon terms per batch, which bounds its arrays


def _pentagon_residual(cat: CategoryData, f: FSymbolTable):
    """Max |pentagon defect| with the offending label tuple.

    The tuples run over f in a x b, g in f x c, e in g x d, l in c x d and
    k in b x l with e in a x k, and each must satisfy

        [F^{fcd}_e]_{gl} [F^{abl}_e]_{fk}
            = sum_{h in b x c} [F^{abc}_g]_{fh} [F^{ahd}_e]_{gk} [F^{bcd}_k]_{hl}.

    For each outer a the tuples are joined from the fusion triples in loop
    order: (b, f, c, g) at once, with each [F^{abc}_g]_{fh} looked up once,
    then (d, e, l, k) in batches of about `_PENTAGON_TERMS` terms of the
    sums, counted ahead from the fusion rules.  Each sum over h stays in one
    batch, so no residual depends on the batching.  Each label is one column,
    gathered through the row it was joined from.
    """
    import numpy as np
    n, N = cat.n_objects, cat.rules.N
    trip, ptr = _fusion_csr(cat.rules)
    ptr1 = ptr[::n]
    Ni = N.astype(np.int64)
    lk = np.einsum("cdl,bl->bcd", Ni, Ni.sum(2))     # (l, k) pairs of each (b, c, d)
    # (d, e, l, k, h) terms of each (b, c, g)
    terms = np.einsum("gde,bcd->bcg", Ni, lk) * Ni.sum(2)[:, :, None]
    at = f.at
    worst, where = 0.0, None
    for a in range(n):
        b, fa = trip[ptr1[a]:ptr1[a + 1], 1:].T
        i, t = _expand(ptr1, fa)                                         # c, g
        if not len(i):
            continue
        b, fa, c, g = b[i], fa[i], trip[t, 1], trip[t, 2]
        # [F^{abc}_g]_{fh} of row p's h = trip[t, 2] at abc[base[p] + t]
        cnt = ptr[b * n + c + 1] - ptr[b * n + c]
        i, t = _ranges(ptr[b * n + c], cnt)
        abc = at(f_keys(a, b, c, g, fa, 0)[i] + trip[t, 2])
        base = np.cumsum(cnt) - cnt - ptr[b * n + c]
        cum = np.cumsum(terms[b, c, g])
        cuts = np.searchsorted(cum, np.arange(_PENTAGON_TERMS, cum[-1], _PENTAGON_TERMS), "right")
        for lo, hi in itertools.pairwise([0, *cuts.tolist(), len(b)]):
            if lo == hi:
                continue
            i, t = _expand(ptr1, g[lo:hi])                               # d, e
            p, d, e = lo + i, trip[t, 1], trip[t, 2]
            i, t = _expand(ptr, c[p] * n + d)                            # l
            p, d, e, l = p[i], d[i], e[i], trip[t, 2]
            i, t = _expand(ptr, b[p] * n + l)                            # k
            p, d, e, l, k = p[i], d[i], e[i], l[i], trip[t, 2]
            keep = N[a, k, e] != 0
            p, d, e, l, k = p[keep], d[keep], e[keep], l[keep], k[keep]
            bp, fp, cp, gp = b[p], fa[p], c[p], g[p]
            lhs = _cmul(at(f_keys(fp, cp, d, e, gp, l)), at(f_keys(a, bp, l, e, fp, k)))
            i, t = _expand(ptr, bp * n + cp)
            h = trip[t, 2]
            # each term's keys: the row's keys with h put in
            prod = _cmul(_cmul(abc[base[p][i] + t],
                               at(f_keys(a, 0, d, e, gp, k)[i] + (h << 4 * _KEY_BITS))),
                         at(f_keys(bp, cp, d, k, 0, l)[i] + (h << _KEY_BITS)))
            rhs = np.empty(len(p), dtype=complex)
            rhs.real = np.bincount(i, prod.real, len(p))
            rhs.imag = np.bincount(i, prod.imag, len(p))
            worst, where = _fold_worst(_cabs(lhs - rhs), worst, where, lambda m: tuple(
                int(x) for x in (a, bp[m], cp[m], d[m], e[m], fp[m], gp[m], l[m], k[m])))
    return worst, where


def _f0_residual(cat: CategoryData, f: FSymbolTable):
    """Special values: F_{tt'}[r 0; a b] = delta_{tb} delta_{t'r} N_{ab}^r and,
    for self-dual r, F_{s0}[r r; a a] = F_{0s}[r r; a a] = sqrt(d_s/(d_a d_r)).

    The square-root identities come from closing an (r, r) bubble and so only
    make sense when 0 sits in r x r; non-self-dual labels are outside their
    domain.  Worst tuples are taken in the order of the loop: per (a, r) the
    blocks [F^{ar0}_b], then the s0 entries; then the 0s entries.
    """
    import numpy as np
    n, d = cat.n_objects, cat.dims.d
    selfdual = np.array(cat.rules.dual) == np.arange(n)
    trip, ptr = _fusion_csr(cat.rules)
    m = len(trip)
    a, r, b = trip.T
    # block [F^{ar0}_b]: its entries' distance from the unit at (b, r), or 1 if absent
    keys, vals = f.flat
    lo = np.searchsorted(keys, f_keys(a, r, 0, b, 0, 0))
    hi = np.searchsorted(keys, f_keys(a, r, 0, b + 1, 0, 0))
    _, y, _, w, u, v = f_labels(keys).T                               # each key's labels
    dist = np.abs(vals - ((u == w) & (v == y)))
    blk = np.where(lo == hi, 1.0, np.maximum.reduceat(dist, np.stack((lo, hi), 1).ravel())[::2])
    s0 = np.where(selfdual[r], _cabs(f.gather(a, r, r, a, b, 0)
                                     - np.sqrt(d[b] / (d[a] * d[r]))), 0.0)
    # loop order: per (a, r), its blocks, then its s0 entries
    start = ptr[a * n + r]
    order = np.empty(2 * m, dtype=np.int64)
    order[start + np.arange(m)] = np.arange(m)
    order[ptr[a * n + r + 1] + np.arange(m)] = np.arange(m, 2 * m)

    def tag(j):
        t = order[j] % m
        head = (int(a[t]), int(r[t]), int(b[t]))
        if order[j] >= m:
            return head + ("s0",)
        return head + (("missing",) if lo[t] == hi[t] else ())

    worst, where = _fold_worst(np.concatenate((blk, s0))[order], 0.0, None, tag)
    rr, s = trip[(a == r) & selfdual[r]][:, 1:].T
    res = _cabs(f.gather(rr, rr, rr, rr, 0, s) - np.sqrt(d[s] / (d[rr] * d[rr])))
    return _fold_worst(res, worst, where, lambda j: (int(rr[j]), int(s[j]), "0s"))


def _usefulid_residual(cat: CategoryData, f: FSymbolTable):
    """Rotation identity: sqrt(d_A d_G / d_b) F_{Bb}[G A; a c] equals
    sqrt(d_A d_B / d_c) F_{Gc}[a b; B A] equals sqrt(d_G d_B / d_a) F_{Aa}[b c; G B].

    Checked on all-self-dual label tuples, the domain of the unoriented
    triangle re-slicing it encodes.  The tuples (a, b, c, G, A, B) are joined
    from the self-dual fusion triples one a at a time, in the loop order
    a, b, c; G, A with b in G x A; B in a x G with c in B x A.
    """
    import numpy as np
    n, N, d = cat.n_objects, cat.rules.N, cat.dims.d
    selfdual = np.array(cat.rules.dual) == np.arange(n)
    trip, ptr = _fusion_csr(cat.rules)
    sd = trip[selfdual[trip].all(axis=1)]
    by_b = np.argwhere(N.transpose(2, 0, 1))                       # (b, G, A)
    by_b = by_b[selfdual[by_b].all(axis=1)]
    ptr_b = np.searchsorted(by_b[:, 0], np.arange(n + 1))
    worst, where = 0.0, None
    for a in range(n):
        b, c = sd[sd[:, 0] == a, 1:].T
        i, t = _expand(ptr_b, b)                                       # G, A
        b, c, G, A = b[i], c[i], by_b[t, 1], by_b[t, 2]
        i, t = _expand(ptr, a * n + G)                                 # B
        b, c, G, A, B = b[i], c[i], G[i], A[i], trip[t, 2]
        keep = selfdual[B] & (N[B, A, c] != 0)
        b, c, G, A, B = b[keep], c[keep], G[keep], A[keep], B[keep]
        e1 = np.sqrt(d[A] * d[G] / d[b]) * f.gather(a, G, A, c, B, b)
        e2 = np.sqrt(d[A] * d[B] / d[c]) * f.gather(B, a, b, A, G, c)
        e3 = np.sqrt(d[G] * d[B] / d[a]) * f.gather(G, b, c, B, A, a)
        res = np.maximum(_cabs(e1 - e2), _cabs(e1 - e3))
        worst, where = _fold_worst(res, worst, where, lambda m: tuple(
            int(x) for x in (a, b[m], c[m], G[m], A[m], B[m])))
    return worst, where


def _unitarity_residual(f: FSymbolTable):
    """Max |U U^dagger - 1| over the blocks, in key order; a NaN counts as
    infinite and a non-square block as 1 at the first such block.

    A block is a run of `flat` keys with equal (x, y, z, w); its side is its
    count of u labels, and the blocks of one side are multiplied as one stack.
    A block without entries has no keys, so it is not checked.
    """
    import numpy as np
    keys, vals = f.flat
    if len(keys) == 1:
        return 0.0, None
    keys, vals = keys[:-1], vals[:-1]
    head, uhead = keys >> 2 * _KEY_BITS, keys >> _KEY_BITS       # (x, y, z, w) and with u
    first = np.r_[True, head[1:] != head[:-1]]
    block, start = np.cumsum(first) - 1, np.flatnonzero(first)
    size = np.bincount(block)
    side = np.bincount(block, np.r_[True, uhead[1:] != uhead[:-1]]).astype(np.int64)

    def tag(j):
        return tuple(f_labels(keys[start[j], None])[0, :4].tolist())

    skew = np.flatnonzero(side * side != size)
    if len(skew):
        return 1.0, tag(skew[0])
    res = np.empty(len(size))
    for s in np.flatnonzero(np.bincount(side)).tolist():
        on = np.flatnonzero(side == s)
        m = vals[start[on, None] + np.arange(s * s)].reshape(-1, s, s)
        res[on] = np.abs(m @ m.conj().transpose(0, 2, 1) - np.eye(s)).max(axis=(1, 2))
    return _fold_worst(res, 0.0, None, tag)


def check_f_identities(cat: CategoryData, tol: float = 1e-10) -> VerificationReport:
    """Pentagon, special values, rotation identity and block unitarity; on a
    table with no entries the three that read only entries fail unsampled."""
    if cat.f is None:
        raise CapabilityError(f"{cat.name} has no F-symbol table")
    missing = [what for what, have in (("fusion rules", cat.rules),
                                       ("quantum dimensions", cat.dims)) if have is None]
    if missing:
        raise CapabilityError(f"{cat.name} has F-symbols but no {' and no '.join(missing)} "
                              "to check them against")
    rep = VerificationReport("f_identities", params={"category": cat.name})
    empty = len(cat.f.flat[0]) == 1             # the sentinel key alone
    for name, residual, where in (
            ("pentagon", _pentagon_residual, "worst_tuple"),
            ("special_values", _f0_residual, "worst_tuple"),
            ("rotation", _usefulid_residual, "worst_tuple"),
            ("unitarity", lambda cat, f: _unitarity_residual(f), "worst_block")):
        if empty and name != "special_values":      # which fails on the missing blocks
            rep.add(name, math.inf, tol, samples=0, detail="no F entries")
        else:
            r, w = residual(cat, cat.f)
            rep.add(name, r, tol, **({where: list(w)} if w else {}))
    return rep


# ---------------------------------------------------------------------------
# JSON import/export

_SCHEMA = "baxcat-category-v1"


def category_to_json(cat: CategoryData) -> str:
    doc = {
        "schema": _SCHEMA,
        "name": cat.name,
        "labels": [lab.display for lab in cat.labels],
        "Delta": [None if fr is None else f"{fr.numerator}/{fr.denominator}"
                  for fr in cat.twists.Delta],
        "nu": [[a, b, c, int(s)] for (a, b, c), s in sorted(cat.twists.nu.items())],
    }
    if cat.rules is not None:
        doc["dual"] = [int(x) for x in cat.rules.dual]
        doc["N"] = [[a, b, int(c)] for a, row in enumerate(cat.rules.products)
                    for b, cs in enumerate(row) for c in cs]  # sparse triples, value always 1
    if cat.dims is not None:
        doc["d"] = [fmt_float(x) for x in cat.dims.values]
    if cat.f is not None:
        doc["F"] = cat.f                # written by `_f_json`
    if cat.channels is not None:
        doc["channels"] = list(cat.channels)
        doc["rho"] = cat.rho_declared
        doc["tp_adjacency"] = {str(phi): [list(e) for e in edges]
                               for phi, edges in sorted(cat.tp_adjacency.items())}
    if cat.notes:
        doc["notes"] = list(cat.notes)
    # json.dumps(doc, indent=1), one member at a time
    return "{\n" + ",\n".join(f' "F": {_f_json(val)}' if key == "F" else
                               json.dumps({key: val}, indent=1)[2:-2]
                               for key, val in doc.items()) + "\n}"


# one F row [x, y, z, w, u, v, [re, im]] as json.dumps(doc, indent=1) writes it,
# with the digits of `fmt_float`
_F_ROW = "  [\n" + "   %d,\n" * 6 + '   [\n    "%.17g",\n    "%.17g"\n   ]\n  ]'


def _f_json(f: FSymbolTable) -> str:
    """The exported "F" list: one `_F_ROW` per entry of `flat`."""
    keys, vals = f.flat
    cols = f_labels(keys[:-1]).T.tolist() + [vals[:-1].real.tolist(), vals[:-1].imag.tolist()]
    if not cols[0]:
        return "[]"
    return "[\n" + ",\n".join(map(_F_ROW.__mod__, zip(*cols))) + "\n ]"


def _doc_get(doc, key, kind=list, length=None):
    """doc[key], which must be a `kind` (with `length` entries when given)."""
    if key not in doc:
        raise DomainError(f"category JSON has no {key!r}")
    val = doc[key]
    if not isinstance(val, kind) or (length is not None and len(val) != length):
        want = kind.__name__ if length is None else f"{kind.__name__} of {length} entries"
        raise DomainError(f"category JSON {key!r} must be a {want}, got {val!r}")
    return val


def _is_label(a, n) -> bool:
    return type(a) is int and 0 <= a < n


def _check_rows(key, rows, n, width, n_labels):
    """Each row is a list of `width` fields whose first `n_labels` are labels."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise DomainError(f"category JSON {key}[{i}] = {row!r}: expected {width} fields")
        for a in row[:n_labels]:
            if type(a) is not int or not 0 <= a < n:
                raise DomainError(f"category JSON {key}[{i}] = {row!r}: "
                                  f"label {a!r} is not in 0..{n - 1}")
    return rows


def _check_each(key, vals, ok, want):
    """`vals`, each passing `ok`; the first that fails raises DomainError
    naming it and saying what was wanted."""
    for i, v in enumerate(vals):
        if not ok(v):
            raise DomainError(f"category JSON {key}[{i}] = {v!r}: {want}")
    return vals


def _convert(key, vals, fn, what):
    """[fn(v) for v in vals], naming the first value that fn rejects."""
    out = []
    for i, v in enumerate(vals):
        try:
            out.append(fn(v))
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError(f"category JSON {key}[{i}] = {v!r}: not {what}") from None
    return out


def _not_bool(x):
    if isinstance(x, bool):             # JSON true and false are not numbers
        raise TypeError(f"{x} is not a number")
    return x


def _finite(x) -> float:
    x = float(_not_bool(x))
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _positive(x) -> float:
    x = _finite(x)
    if x <= 0:
        raise ValueError(f"{x} is not positive")
    return x


def _complex_pair(val):
    if not isinstance(val, list) or len(val) != 2:
        raise ValueError(f"{val!r} is not a pair")
    re, im = val
    return complex(_finite(re), _finite(im))


def _f_table(rows, vals, n, rules) -> FSymbolTable:
    """The table of the checked F `rows` with values `vals`, each block
    padded with zeros to the product of its u and v labels.  An entry given
    twice raises DomainError, and one outside the fusion `rules` AxiomError,
    naming the first row at fault; a block that is not square raises
    AxiomError naming the first one in row order."""
    import numpy as np
    labels = np.array([row[:6] for row in rows], dtype=np.int64).reshape(-1, 6)
    vals = np.array(vals, dtype=complex)
    if not len(labels):
        return FSymbolTable(lambda: (labels, vals))
    order = np.lexsort(labels.T[::-1])
    s = labels[order]
    again = np.flatnonzero(np.all(s[1:] == s[:-1], axis=1))
    if len(again):
        i = int(order[again + 1].min())
        raise DomainError(f"category JSON F[{i}] = {rows[i]!r}: entry "
                          f"{tuple(rows[i][:6])} given twice")
    if rules is not None:
        x, y, z, w, u, v = labels.T
        vertices = ((x, y, u), (u, z, w), (y, z, v), (x, v, w))
        fused = [rules.N[t] != 0 for t in vertices]
        bad = ~np.logical_and.reduce(fused)
        if bad.any():
            i = int(bad.argmax())
            abc = next([int(a[i]) for a in t] for t, ok in zip(vertices, fused) if not ok[i])
            raise AxiomError(f"category JSON F[{i}] = {rows[i]!r}: entry {tuple(rows[i][:6])} "
                             f"breaks the fusion rules, N{abc} = 0")
    # blocks in key order, with the ranks of u and of v in each
    first = np.r_[True, np.any(s[1:, :4] != s[:-1, :4], axis=1)]
    block, start = np.cumsum(first) - 1, np.flatnonzero(first)
    ucat, urank = np.unique(block * n + s[:, 4], return_inverse=True)
    vcat, vrank = np.unique(block * n + s[:, 5], return_inverse=True)
    nu, nv = np.bincount(ucat // n), np.bincount(vcat // n)
    if np.any(nu != nv):
        skew = np.flatnonzero(nu != nv)
        j = skew[np.minimum.reduceat(order, start)[skew].argmin()]
        raise AxiomError(f"category JSON F block {tuple(s[start[j], :4].tolist())} is "
                         f"{nu[j]}x{nv[j]}, not square")
    off, size = np.cumsum(nu) - nu, nu * nu        # u's (and v's) of block j from off[j]
    pos = (np.cumsum(size) - size)[block] + (urank - off[block]) * nu[block] + vrank - off[block]
    padded = _block_rows(s[start, :4], ucat % n, nu, vcat % n, nu)
    pvals = np.zeros(len(padded), dtype=complex)
    pvals[pos] = vals[order]
    return FSymbolTable(lambda: (padded, pvals))


def category_from_json(text: str) -> CategoryData:
    """Parse a category document.  A malformed one raises DomainError naming
    the key and, inside a list, the entry at fault."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"category JSON does not parse: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != _SCHEMA:
        raise DomainError(f"unknown category schema {schema!r}")
    name = _doc_get(doc, "name", str)
    string = (lambda s: isinstance(s, str), "expected a string")
    texts = _check_each("labels", _doc_get(doc, "labels"), *string)
    first = {}
    for i, s in enumerate(texts):
        if first.setdefault(s, i) != i:
            raise DomainError(f"category JSON labels[{i}] = {s!r}: given twice "
                              f"(labels[{first[s]}])")
    labels = tuple(ObjectLabel(i, s) for i, s in enumerate(texts))
    n = len(labels)
    label = (lambda a: _is_label(a, n), f"label not in 0..{n - 1}")
    Delta = _convert("Delta", _doc_get(doc, "Delta", length=n),
                     lambda s: None if s is None else Fraction(_not_bool(s)), "a fraction")
    nu = {}
    for i, (a, b, c, s) in enumerate(_check_rows("nu", _doc_get(doc, "nu"), n, 4, 3)):
        if type(s) is not int or abs(s) != 1:
            raise DomainError(f"category JSON nu[{i}] = {[a, b, c, s]!r}: sign must be 1 or -1")
        nu[(a, b, c)] = s
    twists = TwistData(tuple(Delta), nu)
    rules = None
    if "N" in doc:
        triples = _check_rows("N", _doc_get(doc, "N"), n, 3, 3)
        dual = _check_each("dual", _doc_get(doc, "dual", length=n), *label)
        rules = FusionRules.from_triples(n, triples, dual)
    dims = None
    if "d" in doc:
        dims = QuantumDims(tuple(_convert("d", _doc_get(doc, "d", length=n), _positive,
                                          "a positive finite number")))
    f = None
    if "F" in doc:
        rows = _check_rows("F", _doc_get(doc, "F"), n, 7, 6)
        vals = _convert("F", [row[6] for row in rows], _complex_pair,
                        "a finite [real, imag] pair")
        f = _f_table(rows, vals, n, rules)
    channels = tp = None
    if "channels" in doc:
        channels = tuple(_check_each("channels", _doc_get(doc, "channels"), *label))
    rho = doc.get("rho")
    if rho is not None and not _is_label(rho, n):
        raise DomainError(f"category JSON 'rho' = {rho!r}: label not in 0..{n - 1}")
    if "tp_adjacency" in doc:
        tp = {}
        for phi, edges in _doc_get(doc, "tp_adjacency", dict).items():
            key = f"tp_adjacency[{phi!r}]"
            canonical = phi.isascii() and phi.isdigit() and phi == str(int(phi))
            if not canonical or not _is_label(int(phi), n) or not isinstance(edges, list):
                raise DomainError(f"category JSON {key} = {edges!r}: expected a label "
                                  "and a list of edges")
            tp[int(phi)] = tuple(tuple(e) for e in _check_rows(key, edges, n, 2, 2))
    notes = _check_each("notes", _doc_get(doc, "notes"), *string) if "notes" in doc else ()
    return CategoryData(name, labels, twists, rules=rules, dims=dims, f=f,
                        channels=channels, rho_declared=rho, tp_adjacency=tp, notes=tuple(notes))
