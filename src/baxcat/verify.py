"""Numerical verification of everything claimed for the solved weights:
current conservation at a vertex, Yang-Baxter, commuting transfer matrices,
braid limits, projector algebra, and the completely-packed-loop closed forms.

The local identities (projector and Temperley-Lieb algebra, braid relations
and limits, YBE) are checked on the smallest open patch of strands that holds
them, 2 or 3 strands, each local configuration counted once, so their
residuals do not depend on L.
All sampling is seed-reproducible: spectral parameters are drawn by
`random.Random(seed)`, for a non-negative int seed, from the annulus
0.2 < |mu| < 5 with small disks around poles excluded.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import numpy as np

from .baxterize import (INCONSISTENT, UNDERDETERMINED, AmplitudeSolution,
                        amplitude_at, solve_central)
from .category import CategoryData, fusion_product, twist_edge_ratio
from .errors import CapabilityError, DomainError, PoleError
from .ratfunc import RationalFunction
from .report import VerificationReport, fmt_complex
from .treerep import (OPEN_ALL, PERIODIC, braid_op, check_dense, enumerate_trees,
                      open_count, periodic_count, projector_op, r_op,
                      transfer_matrix)

POLE_EXCLUSION = 1e-3


def mu_annulus(rng, n, avoid=()):
    """n seeded points with 0.2 < |mu| < 5, away from the given poles."""
    out = []
    avoid = [complex(p) for p in avoid]
    while len(out) < n:
        r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        mu = r * cmath.exp(2j * math.pi * rng.random())
        if any(abs(mu - p) < POLE_EXCLUSION for p in avoid):
            continue
        out.append(mu)
    return out


def _check_samples(samples):
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")


def _check_seed(seed):
    """random.Random would seed -n as n and hash a non-int, so refuse both."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DomainError(f"seed must be a non-negative int, got {seed!r}")


def _check_consistent(solution, determined=True):
    """Refuse an INCONSISTENT solution: its weights have no current to check.
    With `determined`, refuse an UNDERDETERMINED one too: the solver sets the
    reference of each extra component to 1, so its weights are one arbitrary
    member of a family, and a check of them would judge that choice."""
    cat = solution.cat
    pair = f"({cat.display(solution.rho)}, {cat.display(solution.phi)})"
    if solution.verdict == INCONSISTENT:
        raise DomainError(f"{pair} is {INCONSISTENT}: the checks require a consistent solution")
    if determined and solution.verdict == UNDERDETERMINED:
        comps = ", ".join("{" + ", ".join(map(cat.display, c)) + "}" for c in solution.components)
        raise DomainError(f"{pair} is {UNDERDETERMINED}: its amplitudes are fixed only up to "
                          f"one factor per component ({comps}); the checks require a unique "
                          f"solution")


def _fnorm(m):
    return float(np.linalg.norm(m))


def _patch(cat, rho, L, P, what):
    """The P-strand open patch of a local identity on L open strands, and the
    exact L-strand dimension.  Every patch row has a copy at every placement,
    so the identity holds on L strands exactly when it holds on the patch."""
    if L < P:
        raise DomainError(f"{what} needs at least {P} strands, got L = {L}")
    dim = open_count(cat, rho, L)
    if dim > sys.float_info.max:
        raise DomainError(f"L = {L} strands of {cat.display(rho)}: more states than a float holds")
    return enumerate_trees(cat, rho, P, OPEN_ALL), dim


def _worst_over_pairs(residual, samples, seed, poles):
    """The largest residual(mu, mu') over `samples` seeded annulus pairs, the
    first (mu, mu') that gave it, and how many pairs were redrawn because they
    hit a pole; past 50 * samples redraws the PoleError propagates."""
    rng = random.Random(seed)
    worst, at, skipped, done = 0.0, None, 0, 0
    while done < samples:
        mu1, mu2 = mu_annulus(rng, 2, avoid=poles)
        try:
            res = residual(mu1, mu2)
        except PoleError:
            skipped += 1
            if skipped > 50 * samples:
                raise
            continue
        if at is None or res > worst:
            at = (mu1, mu2)
        worst = max(worst, res)
        done += 1
    return worst, at, skipped


def perturb_solution(solution: AmplitudeSolution, chi, eps) -> AmplitudeSolution:
    """Scale one channel amplitude by (1 + eps); negative-control input."""
    funcs = dict(solution.funcs)
    funcs[chi] = funcs[chi] * RationalFunction([1.0 + eps], [1.0])
    return solution.replace(funcs=funcs)


def random_solution(cat: CategoryData, rho, phi, seed=0) -> AmplitudeSolution:
    """Random constant amplitudes on the same graph; YBE negative control."""
    _check_seed(seed)
    sol = solve_central(cat, rho, phi)
    rng = random.Random(seed)
    funcs = {}
    for ch in sol.channels:
        z = rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random())
        funcs[ch] = RationalFunction([z], [1.0])
    funcs[sol.reference] = RationalFunction.one()
    return sol.replace(funcs=funcs)


# ---------------------------------------------------------------------------
# conserved current at a vertex


def verify_current_vertex(cat: CategoryData, rho, phi, solution: AmplitudeSolution,
                          samples=10, seed=0, tol=1e-10) -> VerificationReport:
    """Vertex form of the conservation law, with the F-symbols kept in.

    For every admissible directed edge a -> b the combination

        A_b sqrt(d_b) F_{rho a}[phibar b; rho rho] (W_a/W_b + mu)
      - A_a sqrt(d_a) F_{rho b}[a phi; rho rho] (1 + mu W_a/W_b)

    must vanish identically in mu; the rotation identity is what cancels the
    F-symbols and dimensions against the solved ratios.  phibar = phi for
    self-dual currents, which is the printed form of the relation.
    """
    _check_samples(samples)
    _check_seed(seed)
    if not cat.representable:
        raise CapabilityError(f"{cat.name} has no F-symbols; vertex check needs them")
    _check_consistent(solution, determined=False)   # each edge constrains its own component
    rho, phi = cat.check_label(rho), cat.check_label(phi)
    if not solution.graph.directed:
        raise DomainError(f"({cat.display(rho)}, {cat.display(phi)}) has no edge between two "
                          f"channels: the vertex check would sample nothing")
    phibar = cat.rules.dual[phi]
    d = cat.dims
    mus = mu_annulus(random.Random(seed), samples, avoid=solution.poles())
    rep = VerificationReport(
        "current_vertex",
        params={"category": cat.name, "rho": cat.display(rho), "phi": cat.display(phi)},
        seed=seed)
    worst, where = 0.0, None
    amps = {ch: [amplitude_at(solution, ch, mu) for mu in mus] for ch in solution.channels}
    for a, b in solution.graph.directed:
        f1 = cat.f.block_value(rho, phibar, b, rho, rho, a)
        f2 = cat.f.block_value(rho, a, phi, rho, rho, b)
        if f1 is None or f2 is None:
            raise DomainError(f"edge ({cat.display(a)}, {cat.display(b)}): vertex "
                              f"F-symbols inadmissible")
        ratio = 1.0 / twist_edge_ratio(cat, rho, a, b)   # W_a / W_b
        for mu, amp_a, amp_b in zip(mus, amps[a], amps[b]):
            lhs = amp_b * math.sqrt(d[b]) * f1 * (ratio + mu)
            rhs = amp_a * math.sqrt(d[a]) * f2 * (1 + mu * ratio)
            r = abs(lhs - rhs)
            if r > worst:
                worst, where = r, (cat.display(a), cat.display(b))
    rep.add("vertex_divergence", worst, tol, samples=samples * len(solution.graph.directed),
            **({"worst_edge": list(where)} if where else {}))
    rep.notes.append(
        "together with the rotation-identity residuals this directly verifies "
        "the weight constraint for this category's data")
    return rep


# ---------------------------------------------------------------------------
# Yang-Baxter and transfer matrices (conjecture checks)


def verify_ybe(cat: CategoryData, rho, solution: AmplitudeSolution, L=3,
               samples=25, seed=0, tol=1e-8) -> VerificationReport:
    """R_1(mu) R_2(mu mu') R_1(mu') = R_2(mu') R_1(mu mu') R_2(mu) on the
    3-strand patch, multiplicative difference form, relative to the left side;
    L sets the stated dimension."""
    _check_samples(samples)
    _check_seed(seed)
    _check_consistent(solution)
    basis, dim = _patch(cat, rho, L, 3, "YBE")

    def residual(mu1, mu2):
        R = {(mu, j): r_op(solution, mu, j, basis).matrix
             for mu in (mu1, mu2, mu1 * mu2) for j in (1, 2)}
        lhs = R[mu1, 1] @ R[mu1 * mu2, 2] @ R[mu2, 1]
        rhs = R[mu2, 2] @ R[mu1 * mu2, 1] @ R[mu1, 2]
        return _fnorm(lhs - rhs) / max(_fnorm(lhs), 1e-300)

    worst, at, skipped = _worst_over_pairs(residual, samples, seed, solution.poles())
    rep = VerificationReport(
        "ybe", params={"category": cat.name, "rho": cat.display(rho),
                       "phi": cat.display(solution.phi), "L": L, "dim": dim,
                       "status": "conjecture check"},
        seed=seed)
    rep.add("ybe_residual", worst, tol, samples=samples, skipped_pole_collisions=skipped,
            worst_at=[fmt_complex(mu) for mu in at])
    return rep


def verify_commuting_transfer(cat: CategoryData, rho, solution: AmplitudeSolution,
                              L, samples=5, seed=0, tol=1e-8) -> VerificationReport:
    """Relative commutator of T(mu), T(mu') on the periodic basis, which is
    counted exactly and refused over the dense budget before it is built."""
    _check_samples(samples)
    _check_seed(seed)
    _check_consistent(solution)
    check_dense(periodic_count(cat, rho, L))
    basis = enumerate_trees(cat, rho, L, PERIODIC)

    def residual(mu1, mu2):
        t1 = transfer_matrix(solution, mu1, basis).matrix
        t2 = transfer_matrix(solution, mu2, basis).matrix
        return _fnorm(t1 @ t2 - t2 @ t1) / max(_fnorm(t1) * _fnorm(t2), 1e-300)

    worst, at, skipped = _worst_over_pairs(residual, samples, seed, solution.poles())
    rep = VerificationReport(
        "commuting_transfer",
        params={"category": cat.name, "rho": cat.display(rho),
                "phi": cat.display(solution.phi), "L": L, "dim": basis.size,
                "status": "conjecture check"},
        seed=seed)
    rep.add("commutator", worst, tol, samples=samples, skipped_pole_collisions=skipped,
            worst_at=[fmt_complex(mu) for mu in at])
    return rep


def verify_braid_limits(cat: CategoryData, rho, solution: AmplitudeSolution,
                        tol=1e-12) -> VerificationReport:
    """R(1) equal to the identity; R(infinity) and R(0), the exact limits,
    proportional to one of the braid generators, on the 2-strand patch.
    Which sense matches is recorded, not asserted."""
    _check_consistent(solution)
    basis = enumerate_trees(cat, rho, 2, OPEN_ALL)
    rep = VerificationReport(
        "braid_limits", params={"category": cat.name, "rho": cat.display(rho),
                                "phi": cat.display(solution.phi)})
    r1 = r_op(solution, 1.0, 1, basis).matrix
    rep.add("r_at_identity", _fnorm(r1 - np.eye(basis.size)), tol)

    senses = [(sense, braid_op(cat, rho, 1, sense, basis).matrix) for sense in ("over", "under")]
    for mu, tag in ((math.inf, "mu_large"), (0.0, "mu_small")):
        R = r_op(solution, mu, 1, basis).matrix
        res, sense = min((_fnorm(R - np.vdot(B, R) / np.vdot(B, B) * B)
                          / max(_fnorm(R), 1e-300), sense) for sense, B in senses)
        rep.add(f"braid_limit_{tag}", res, tol, matched_sense=sense)
    return rep


def verify_projector_algebra(cat: CategoryData, rho, L, tol=1e-10) -> VerificationReport:
    """Completeness and orthogonality of the channel projectors; the
    Temperley-Lieb relations whenever rho x rho has exactly two channels,
    the quadratic one on 2 strands and the cubic one from L = 3."""
    basis, dim = _patch(cat, rho, L, 2, "the projector algebra")
    chans = fusion_product(cat, rho, rho)
    Ps = {c: projector_op(cat, rho, c, 1, basis).matrix for c in chans}
    rep = VerificationReport(
        "projector_algebra",
        params={"category": cat.name, "rho": cat.display(rho), "L": L, "dim": dim})
    rep.add("completeness", _fnorm(sum(Ps.values()) - np.eye(basis.size)), tol)
    orth = max(_fnorm(Ps[c1] @ Ps[c2] - (Ps[c1] if c1 == c2 else 0.0))
               for c1 in chans for c2 in chans)
    rep.add("orthogonality", orth, tol)

    if len(chans) == 2 and chans[0] == 0:
        d_rho = cat.dims[rho]
        e = d_rho * Ps[0]
        rep.add("tl_quadratic", _fnorm(e @ e - d_rho * e), tol, loop_weight=d_rho)
        if L >= 3:
            basis = enumerate_trees(cat, rho, 3, OPEN_ALL)
            e1, e2 = (d_rho * projector_op(cat, rho, 0, j, basis).matrix for j in (1, 2))
            rep.add("tl_cubic", max(_fnorm(e1 @ e2 @ e1 - e1), _fnorm(e2 @ e1 @ e2 - e2)), tol)
    return rep


def verify_braid_relations(cat: CategoryData, rho, L=5, tol=1e-9) -> VerificationReport:
    """Reidemeister II and III for the twist-weighted braid generators."""
    basis, dim = _patch(cat, rho, L, 3, "Reidemeister III")
    b1, b2 = (braid_op(cat, rho, j, "over", basis).matrix for j in (1, 2))
    r3 = _fnorm(b1 @ b2 @ b1 - b2 @ b1 @ b2)
    basis = enumerate_trees(cat, rho, 2, OPEN_ALL)
    r2 = _fnorm(braid_op(cat, rho, 1, "over", basis).matrix
                @ braid_op(cat, rho, 1, "under", basis).matrix - np.eye(basis.size))
    rep = VerificationReport(
        "braid_relations",
        params={"category": cat.name, "rho": cat.display(rho), "L": L, "dim": dim})
    rep.add("reidemeister2", r2, tol)
    rep.add("reidemeister3", r3, tol)
    return rep


# ---------------------------------------------------------------------------
# completely packed loops


def loop_c_ratio(q: complex, mu: complex) -> complex:
    """C(u)/A_1(u) = (e^u - 1)/(q - q^{-1} e^u) with mu = e^u."""
    q = complex(q)
    mu = complex(mu)
    den = q - mu / q
    if abs(den) < 1e-12:
        raise PoleError(f"loop weight pole at mu={mu}", pole=q * q)
    return (mu - 1) / den


def loop_functional_check(q: complex, mu, mu2, tol=1e-10, c_offset=0.0) -> VerificationReport:
    """The loop-model functional equation at one (mu, mu') pair.

    c_offset shifts C/A_1 away from the closed form; nonzero values are
    negative controls and must break the equation.
    """
    if q == 0:
        raise DomainError("loop weight q must be nonzero")
    c1 = loop_c_ratio(q, mu) + c_offset
    c2 = loop_c_ratio(q, mu2) + c_offset
    c12 = loop_c_ratio(q, mu * mu2) + c_offset
    d_rho = q + 1 / q
    lhs = c12
    rhs = d_rho * c2 * c1 + c1 + c2 + c1 * c12 * c2
    rep = VerificationReport("loop_functional",
                             params={"q": fmt_complex(q), "mu": fmt_complex(mu),
                                     "mu2": fmt_complex(mu2)})
    rep.add("functional_equation", abs(lhs - rhs), tol)
    return rep


def _connect(partner, u, v):
    """Join two open strand endpoints; returns number of loops closed (0/1)."""
    if partner[u] == v:
        del partner[u]
        del partner[v]
        return 1
    pu, pv = partner.pop(u), partner.pop(v)
    partner[pu], partner[pv] = pv, pu
    return 0


def _canon(partner):
    return frozenset(frozenset(pair) for pair in partner.items())


def cpl_transfer(d_rho, a1, c, Lx, Ly) -> complex:
    """Torus loop partition function via a row transfer in the connectivity
    basis.  States are matchings over the initial-cut endpoints ("i", x) and
    the frontier endpoints ("f", x); loop closures convert to factors d_rho
    as they happen, and the torus is closed by gluing frontier to cut.

    Vertex resolutions (ports S below, N above, W/E horizontal):
    the a1-resolution pairs {N,W} and {S,E}; the c-resolution pairs
    {N,E} and {S,W}.
    """
    d_rho, a1, c = complex(d_rho), complex(a1), complex(c)
    start = {}
    for x in range(Lx):
        start[("i", x)] = ("f", x)
        start[("f", x)] = ("i", x)
    states = {_canon(start): (start, complex(1))}

    def merge(pool, partner, weight):
        key = _canon(partner)
        if key in pool:
            pool[key] = (pool[key][0], pool[key][1] + weight)
        else:
            pool[key] = (partner, weight)

    for _ in range(Ly):
        # fresh row edges: horizontals ("h", x) and new verticals ("n", x)
        pool = {}
        for partner, weight in states.values():
            p = dict(partner)
            for x in range(Lx):
                p[("h", x, 0)] = ("h", x, 1)
                p[("h", x, 1)] = ("h", x, 0)
                p[("n", x, 0)] = ("n", x, 1)
                p[("n", x, 1)] = ("n", x, 0)
            merge(pool, p, weight)
        states = pool
        for x in range(Lx):
            south = ("f", x)
            north = ("n", x, 0)
            west = ("h", (x - 1) % Lx, 1)
            east = ("h", x, 0)
            pool = {}
            for partner, weight in states.values():
                for arcs, wt in ((((north, west), (south, east)), a1),
                                 (((north, east), (south, west)), c)):
                    p = dict(partner)
                    loops = 0
                    for u, v in arcs:
                        loops += _connect(p, u, v)
                    merge(pool, p, weight * wt * d_rho ** loops)
            states = pool
        # new verticals become the frontier
        pool = {}
        for partner, weight in states.values():
            p = {}
            for u, v in partner.items():
                u2 = ("f", u[1]) if u[:1] == ("n",) else u
                v2 = ("f", v[1]) if v[:1] == ("n",) else v
                p[u2] = v2
            merge(pool, p, weight)
        states = pool

    total = complex(0)
    for partner, weight in states.values():
        p = dict(partner)
        loops = 0
        for x in range(Lx):
            loops += _connect(p, ("f", x), ("i", x))
        assert not p
        total += weight * d_rho ** loops
    return total


def cpl_enumerate(d_rho, a1, c, Lx, Ly) -> complex:
    """Brute-force torus loop partition function: resolve every vertex both
    ways, count loops by union-find over lattice edges."""
    nv = Lx * Ly
    if nv > 16:
        raise DomainError("enumeration capped at 16 vertices")
    d_rho, a1, c = complex(d_rho), complex(a1), complex(c)

    def h_edge(x, y):
        return (y * Lx + x)

    def v_edge(x, y):
        return nv + (y % Ly) * Lx + x

    nedges = 2 * nv
    total = complex(0)
    for mask in range(1 << nv):
        parent = list(range(nedges))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj

        weight = complex(1)
        for y in range(Ly):
            for x in range(Lx):
                v = y * Lx + x
                north = v_edge(x, y)
                south = v_edge(x, y - 1)
                east = h_edge(x, y)
                west = h_edge((x - 1) % Lx, y)
                if (mask >> v) & 1:
                    union(north, east)
                    union(south, west)
                    weight *= c
                else:
                    union(north, west)
                    union(south, east)
                    weight *= a1
        loops = len({find(i) for i in range(nedges)})
        total += weight * d_rho ** loops
    return total


def _loop_partition(count, q, mu, Lx, Ly) -> complex:
    """`count` at the conserved-current weights; DomainError naming q where
    the sum leaves the complex float range."""
    q = complex(q)
    try:
        z = count(q + 1 / q, 1.0, loop_c_ratio(q, mu), Lx, Ly)
    except OverflowError:
        z = complex("nan")
    if not cmath.isfinite(z):
        raise DomainError(f"loop weight q={q}: the {Lx}x{Ly} torus partition function "
                          "overflows a complex float")
    return z


def loop_partition_enumeration(q, mu, Lx, Ly) -> complex:
    """Torus partition function of the completely packed loop model with the
    conserved-current weights: per-vertex weights A_1 = 1 and
    C = (mu - 1)/(q - q^{-1} mu), weight q + q^{-1} per closed loop."""
    return _loop_partition(cpl_enumerate, q, mu, Lx, Ly)


def loop_partition_transfer(q, mu, Lx, Ly) -> complex:
    """Same partition function through the connectivity-basis row transfer."""
    return _loop_partition(cpl_transfer, q, mu, Lx, Ly)
