"""Tensor-product graphs and the conserved-current solver."""

import cmath
import itertools
import json
import math
import struct

import numpy as np
import pytest

import baxcat as bx
from baxcat import ratfunc
from baxcat.baxterize import (CYCLE_CONSISTENT, INCONSISTENT, TREE_UNIQUE,
                              UNDERDETERMINED)
from baxcat.errors import DomainError, PoleError

MUS = [0.7, 1.9, 0.4 + 1.1j, 2.6 - 0.8j, 0.31, 3.7 + 0.2j]


def test_tp_graph_su2_loop():
    cat = bx.build_su2k(3)
    g = bx.build_tp_graph(cat, 1, 2)          # rho=1/2, phi=1
    assert g.vertices == (0, 2)
    assert g.edges == ((0, 2),)
    assert all((b, a) in g.directed for a, b in g.directed)      # unoriented


def test_tp_graph_higher_spin_path():
    cat = bx.build_su2k(6)
    g = bx.build_tp_graph(cat, 3, 2)          # rho=3/2, phi=1 -> path 0-1-2-3
    assert g.vertices == (0, 2, 4, 6)
    assert g.edges == ((0, 2), (2, 4), (4, 6))


def test_tp_graph_ty_oriented_cycle():
    for M in (3, 6):
        ty = bx.build_tambara_yamagami(M)
        g = bx.build_tp_graph(ty, M, 1)
        assert all((b, a) not in g.directed for a, b in g.directed)  # oriented
        assert set(g.directed) == {(a, (a + 1) % M) for a in range(M)}
        assert len(g.edges) == M


def test_tp_graph_no_self_loops():
    cat = bx.build_su2k(6)
    g = bx.build_tp_graph(cat, 2, 2)          # rho=1, phi=1: 1 in 1x1
    assert all(a != b for a, b in g.edges)


def test_tp_graph_termination_condition():
    cat = bx.build_su2k(2)
    # rho=1, phi=1: 1 not in 1 x 1 at k=2 (1x1 = 0 only)
    with pytest.raises(DomainError):
        bx.build_tp_graph(cat, 2, 2)


def test_edge_ratio_at_one():
    for cat, rho in ((bx.build_su2k(4), 1), (bx.build_tambara_yamagami(5), 5)):
        chans = bx.fusion_product(cat, rho, rho)
        for a, b in itertools.permutations(chans, 2):
            assert abs(bx.edge_ratio(cat, rho, a, b, 1.0) - 1.0) < 1e-14


def test_edge_ratio_su2_4_value():
    cat = bx.build_su2k(4)
    got = bx.edge_ratio(cat, 1, 2, 0, 2.0)
    assert abs(got - cmath.exp(-1j * cmath.pi / 3)) < 1e-13


def test_edge_ratio_ty_closed_form():
    M = 5
    ty = bx.build_tambara_yamagami(M)
    w = cmath.exp(2j * cmath.pi / M)
    for mu in MUS:
        for a in range(M):
            got = bx.edge_ratio(ty, M, a, (a + 1) % M, mu)
            expect = (1 - mu * w ** (a + 0.5)) / (mu - w ** (a + 0.5))
            assert abs(got - expect) < 1e-12


def test_edge_ratio_unimodular_and_reciprocal():
    for cat, rho in ((bx.build_su2k(5), 1), (bx.build_family("so", n=6, k=2), 3),
                     (bx.build_family("g2", k=2), 1)):
        chans = (bx.fusion_product(cat, rho, rho) if cat.rules is not None
                 else cat.channels)
        for a, b in itertools.permutations(chans, 2):
            for mu in (0.3, 1.7, 4.2):
                r = bx.edge_ratio(cat, rho, a, b, mu)
                assert abs(abs(r) - 1.0) < 1e-12
                assert abs(r * bx.edge_ratio(cat, rho, b, a, mu) - 1.0) < 1e-12


def test_edge_ratio_pole():
    cat = bx.build_su2k(2)
    x = bx.twist_edge_ratio(cat, 1, 2, 0)
    with pytest.raises(PoleError) as exc:
        bx.edge_ratio(cat, 1, 2, 0, -1 / x)
    assert exc.value.pole is not None


def test_solve_loop_family_closed_form():
    for k in range(2, 9):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 1, 2)
        assert sol.verdict == TREE_UNIQUE
        q2 = cmath.exp(2j * cmath.pi / (k + 2))
        for mu in MUS:
            got = (bx.amplitude_at(sol, 0, mu) / bx.amplitude_at(sol, 2, mu))
            expect = (1 - mu * q2) / (mu - q2)
            assert abs(got - expect) < 1e-12 * abs(expect)


def test_solve_minimal_conjugate_q():
    for k in (2, 3, 5):
        cat = bx.build_minimal_A(k)
        sol = bx.solve_central(cat, 1, 2)
        q2 = cmath.exp(-2j * cmath.pi / (k + 2))     # q -> 1/q
        for mu in MUS:
            got = bx.amplitude_at(sol, 0, mu) / bx.amplitude_at(sol, 2, mu)
            expect = (1 - mu * q2) / (mu - q2)
            assert abs(got - expect) < 1e-12 * abs(expect)


def test_solve_ty_cycle_consistent():
    for M in range(3, 9):
        ty = bx.build_tambara_yamagami(M)
        sol = bx.solve_central(ty, M, 1)
        assert sol.verdict == CYCLE_CONSISTENT
        assert len(sol.cycles) == 1
        assert sol.cycles[0].residual < 1e-10
        w = cmath.exp(2j * cmath.pi / M)
        for mu in MUS[:3]:
            for a in range(M - 1):
                got = bx.amplitude_at(sol, a + 1, mu) / bx.amplitude_at(sol, a, mu)
                expect = (1 - mu * w ** (a + 0.5)) / (mu - w ** (a + 0.5))
                assert abs(got - expect) < 1e-11


def test_solve_inconsistent_spin_3half():
    # the 2-3 fusion channel needs k >= 7, so the 1-2-3 triangle and with it
    # the obstruction first appears at k = 7
    for k in (7, 8, 10):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 3, 4)
        assert sol.verdict == INCONSISTENT
        bad = [c for c in sol.cycles if c.residual > 1e-3]
        assert bad and bad[0].vertices == (2, 4, 6)   # spins 1, 2, 3
    # boundary case: at k = 6 the graph is the path 0-2-1-3 and the solution
    # exists: test_properties.py::test_every_solved_su2_pair_conserves_current[6]
    # and test_acceptance.py::test_criterion_5_negative_classification[6]
    # check it against the vertex conservation law
    sol6 = bx.solve_central(bx.build_su2k(6), 3, 4)
    assert sol6.verdict == TREE_UNIQUE


def test_solve_higher_spin_tree():
    for k in (6, 8):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 3, 2)
        assert sol.verdict == TREE_UNIQUE


def test_solve_underdetermined_components():
    cat = bx.build_su2k(6)
    sol = bx.solve_central(cat, 3, 6)          # rho=3/2, phi=3: two components
    assert sol.verdict == UNDERDETERMINED
    assert sol.components == ((0, 6), (2, 4))
    assert bx.amplitude_at(sol, 0, 1.7) == 1.0
    assert abs(bx.amplitude_at(sol, 2, 1.7)) > 0  # seeded in its own component


def test_amplitude_reference_exact():
    sol = bx.solve_central(bx.build_su2k(5), 1, 2)
    for mu in MUS:
        assert bx.amplitude_at(sol, 0, mu) == 1.0 + 0j


def test_all_amplitudes_one_at_mu_one():
    for cat, rho, phi in ((bx.build_su2k(6), 3, 2), (bx.build_tambara_yamagami(7), 7, 1),
                          (bx.build_family("g2", k=1), 1, 2)):
        sol = bx.solve_central(cat, rho, phi)
        for ch in sol.channels:
            assert abs(bx.amplitude_at(sol, ch, 1.0) - 1.0) < 1e-13


def test_degenerate_edge_constant_ratio():
    # so(n)_2 has Delta_S = 1, so the 0-S twist ratio is exactly -1 and the
    # S amplitude is the constant -1 (removable singularity at mu = 1)
    so5 = bx.build_family("so", n=5, k=2)
    assert abs(bx.twist_edge_ratio(so5, 3, 0, 2) + 1.0) < 1e-14
    sol = bx.solve_central(so5, 3, 2)
    assert sol.funcs[2].degree == 0
    for mu in (1.0, 0.3, 2.4 + 1.1j):
        assert abs(bx.edge_ratio(so5, 3, 0, 2, mu) + 1.0) < 1e-14
        assert abs(bx.amplitude_at(sol, 2, mu) + 1.0) < 1e-13
    # TY_3 carries the +1 counterpart on its middle edge
    ty3 = bx.build_tambara_yamagami(3)
    assert abs(bx.twist_edge_ratio(ty3, 3, 1, 2) - 1.0) < 1e-14
    solty = bx.solve_central(ty3, 3, 1)
    for mu in (1.0, 0.7, 3.1 - 0.4j):
        r = bx.amplitude_at(solty, 2, mu) / bx.amplitude_at(solty, 1, mu)
        assert abs(r - 1.0) < 1e-13


def test_amplitude_su2_2_paper_normalisation():
    sol = bx.solve_central(bx.build_su2k(2), 1, 2)
    got = bx.amplitude_at(sol, 0, 2.0) / bx.amplitude_at(sol, 2, 2.0)
    assert abs(got - (4 - 3j) / 5) < 1e-13


def test_amplitude_so5_unimodular_real_mu():
    so5 = bx.build_family("so", n=5, k=1)
    sol = bx.solve_central(so5, 3, 1)          # phi = A
    for mu in (0.4, 1.3, 3.9):
        assert abs(abs(bx.amplitude_at(sol, 2, mu)) - 1.0) < 1e-12


def test_amplitude_pole_error():
    cat = bx.build_su2k(2)
    sol = bx.solve_central(cat, 1, 2)
    pole = sol.funcs[2].poles()[0]
    with pytest.raises(PoleError):
        bx.amplitude_at(sol, 2, pole)
    with pytest.raises(DomainError):
        bx.amplitude_at(sol, 1, 2.0)           # 1/2 is not a channel


def test_solve_lie_families_closed_forms():
    for n, k in ((4, 2), (5, 1), (6, 3), (7, 2)):
        so = bx.build_family("so", n=n, k=k)
        q = cmath.exp(1j * cmath.pi / (n + k - 2))
        solA = bx.solve_central(so, 3, 1)
        solS = bx.solve_central(so, 3, 2)
        for mu in MUS[:4]:
            a0 = bx.amplitude_at(solA, 0, mu) / bx.amplitude_at(solA, 1, mu)
            aS = bx.amplitude_at(solA, 2, mu) / bx.amplitude_at(solA, 1, mu)
            assert abs(a0 - (1 - mu * q ** (n - 2)) / (mu - q ** (n - 2))) < 1e-12
            assert abs(aS - (1 - mu * q ** -2) / (mu - q ** -2)) < 1e-12
            s0 = bx.amplitude_at(solS, 0, mu) / bx.amplitude_at(solS, 2, mu)
            sA = bx.amplitude_at(solS, 1, mu) / bx.amplitude_at(solS, 2, mu)
            assert abs(s0 - (1 + mu * q ** n) / (mu + q ** n)) < 1e-12
            assert abs(sA - (1 - mu * q ** 2) / (mu - q ** 2)) < 1e-12


def test_solve_sp_and_g2_closed_forms():
    for m, k in ((2, 1), (3, 2)):
        sp = bx.build_family("sp", m=m, k=k)
        q = cmath.exp(1j * cmath.pi / (m + k + 1))
        solA = bx.solve_central(sp, 3, 1)
        solS = bx.solve_central(sp, 3, 2)
        for mu in MUS[:4]:
            a0 = bx.amplitude_at(solA, 0, mu) / bx.amplitude_at(solA, 1, mu)
            aS = bx.amplitude_at(solA, 2, mu) / bx.amplitude_at(solA, 1, mu)
            assert abs(a0 - (1 + mu * q ** m) / (mu + q ** m)) < 1e-12
            assert abs(aS - (1 - mu / q) / (mu - 1 / q)) < 1e-12
            s0 = bx.amplitude_at(solS, 0, mu) / bx.amplitude_at(solS, 2, mu)
            sA = bx.amplitude_at(solS, 1, mu) / bx.amplitude_at(solS, 2, mu)
            assert abs(s0 - (1 - mu * q ** (m + 1)) / (mu - q ** (m + 1))) < 1e-12
            assert abs(sA - (1 - mu * q) / (mu - q)) < 1e-12
    for k in (1, 3):
        g2 = bx.build_family("g2", k=k)
        q = cmath.exp(1j * cmath.pi / (k + 4))
        sol = bx.solve_central(g2, 1, 2)
        assert sol.verdict == TREE_UNIQUE
        for mu in MUS[:4]:
            r0 = bx.amplitude_at(sol, 0, mu) / bx.amplitude_at(sol, 2, mu)
            rS = bx.amplitude_at(sol, 3, mu) / bx.amplitude_at(sol, 2, mu)
            rV = bx.amplitude_at(sol, 1, mu) / bx.amplitude_at(sol, 3, mu)
            assert abs(r0 - (1 - mu * q ** 4) / (mu - q ** 4)) < 1e-12
            assert abs(rS - (1 - mu * q ** (-2 / 3)) / (mu - q ** (-2 / 3))) < 1e-12
            assert abs(rV - (1 - mu * q ** (8 / 3)) / (mu - q ** (8 / 3))) < 1e-12


def test_degree_bound_eccentricity():
    for cat, rho, phi in ((bx.build_su2k(8), 3, 2), (bx.build_tambara_yamagami(6), 6, 1),
                          (bx.build_family("g2", k=2), 1, 2)):
        sol = bx.solve_central(cat, rho, phi)
        # BFS distances from the reference vertex
        dist = {sol.reference: 0}
        frontier = [sol.reference]
        while frontier:
            nxt = []
            for v in frontier:
                for w in sol.graph.neighbours(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for ch in sol.channels:
            if ch in dist:
                assert sol.funcs[ch].degree <= dist[ch]


def test_spanning_tree_invariance():
    rng = np.random.default_rng(11)
    for cat, rho, phi in ((bx.build_su2k(6), 3, 2), (bx.build_tambara_yamagami(5), 5, 1),
                          (bx.build_family("so", n=6, k=2), 3, 1)):
        s_bfs = bx.solve_central(cat, rho, phi, tree="bfs")
        s_dfs = bx.solve_central(cat, rho, phi, tree="dfs")
        mus = rng.uniform(0.4, 3.0, size=20) * np.exp(2j * np.pi * rng.uniform(size=20))
        for mu in mus:
            for a, b in s_bfs.graph.edges:
                r1 = bx.amplitude_at(s_bfs, b, mu) / bx.amplitude_at(s_bfs, a, mu)
                r2 = bx.amplitude_at(s_dfs, b, mu) / bx.amplitude_at(s_dfs, a, mu)
                assert abs(r1 - r2) < 1e-10


def _connected(verts, edges):
    """Whether `edges`, each within `verts`, join all of `verts`."""
    seen, todo = set(), [min(verts)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [y if x == v else x for x, y in edges if v in (x, y)]
    return seen == set(verts)


@pytest.mark.parametrize("family, params", [
    *(("su2", {"k": k}) for k in range(1, 11)), *(("minimal", {"k": k}) for k in range(2, 8)),
    *(("ty", {"M": M}) for M in range(2, 13)),
    ("so", {"n": 5, "k": 2}), ("sp", {"m": 2, "k": 3}), ("g2", {"k": 2})])
def test_bfs_and_dfs_trees_close_simple_cycles(family, params):
    # each closing edge's cycle is the two tree routes below their last shared
    # channel and the edge itself: every channel on it has two neighbours on
    # it, and it stays connected without the closing edge
    cat = bx.build_family(family, **params)
    for row in bx.classify_pairs(cat):
        bfs, dfs = (bx.solve_central(cat, row.rho, row.phi, tree=t) for t in ("bfs", "dfs"))
        assert (bfs.verdict, bfs.components) == (dfs.verdict, dfs.components)
        for sol in (bfs, dfs):
            g = sol.graph
            assert len(sol.cycles) == len(g.edges) - len(g.vertices) + len(sol.components)
            for c in sol.cycles:
                assert set(c.closing_edge) <= set(c.vertices)
                inside = [e for e in g.edges if set(e) <= set(c.vertices)]
                assert all(sum(v in e for e in inside) >= 2 for v in c.vertices), (row, c)
                assert _connected(c.vertices, [e for e in inside if e != c.closing_edge]), (row, c)


def test_randomised_tree_twists_always_solve():
    # any twist assignment on a tree graph admits a solution, by construction
    rng = np.random.default_rng(5)
    cat = bx.build_su2k(6)
    base = cat.twists
    for trial in range(5):
        nu = dict(base.nu)
        delta = list(base.Delta)
        for A in range(1, 7):
            delta[A] = base.Delta[A] + rng.integers(0, 8) * type(base.Delta[A])(1, 8)
        twisted = bx.CategoryData(cat.name, cat.labels,
                                  bx.TwistData(tuple(delta), nu),
                                  rules=cat.rules, dims=cat.dims, f=cat.f)
        sol = bx.solve_central(twisted, 3, 2)   # path graph
        assert sol.verdict == TREE_UNIQUE


def test_classify_su2_completeness():
    cat = bx.build_su2k(2)
    rows = bx.classify_pairs(cat)
    # oracle: brute-force enumeration of admissible (rho, phi != 0) pairs
    expect = set()
    for rho in range(3):
        for phi in range(1, 3):
            if cat.rules.N[phi, rho, rho]:
                expect.add((rho, phi))
    assert {(r.rho, r.phi) for r in rows} == expect
    assert all(r.verdict == TREE_UNIQUE for r in rows)


def test_classify_su2_8_negative_row():
    rows = bx.classify_pairs(bx.build_su2k(8))
    by_pair = {(r.rho, r.phi): r for r in rows}
    assert by_pair[(3, 2)].verdict == TREE_UNIQUE
    assert by_pair[(3, 4)].verdict == INCONSISTENT
    assert by_pair[(3, 4)].n_cycles >= 1


def test_classify_ty4():
    rows = bx.classify_pairs(bx.build_tambara_yamagami(4))
    by_pair = {(r.rho, r.phi): r for r in rows}
    assert by_pair[(4, 1)].verdict == CYCLE_CONSISTENT


def test_classify_twist_only():
    rows = bx.classify_pairs(bx.build_family("sp", m=2, k=2))
    assert {(r.rho, r.phi) for r in rows} == {(3, 1), (3, 2)}
    assert all(r.verdict == TREE_UNIQUE for r in rows)


@pytest.mark.parametrize("family, params", [
    *(("su2", {"k": k}) for k in range(1, 13)), *(("minimal", {"k": k}) for k in range(1, 13)),
    *(("ty", {"M": M}) for M in range(2, 13)),
    ("so", {"n": 5, "k": 2}), ("sp", {"m": 2, "k": 3}), ("g2", {"k": 1})])
def test_classify_rows_count_the_cycles_the_solver_checks(family, params):
    cat = bx.build_family(family, **params)
    for row in bx.classify_pairs(cat):
        sol = bx.solve_central(cat, row.rho, row.phi)
        g = sol.graph
        assert row.n_cycles == len(sol.cycles) == len(g.edges) - len(g.vertices) + len(sol.components)
        assert (row.verdict, row.n_vertices, row.n_edges) == (sol.verdict, len(g.vertices),
                                                              len(g.edges))


def test_solution_json_deterministic():
    sol1 = bx.solve_central(bx.build_tambara_yamagami(5), 5, 1)
    sol2 = bx.solve_central(bx.build_tambara_yamagami(5), 5, 1)
    assert json.dumps(sol1.to_dict()) == json.dumps(sol2.to_dict())
    for ch in sol1.channels:
        assert np.array_equal(sol1.funcs[ch].num, sol2.funcs[ch].num)
        assert np.array_equal(sol1.funcs[ch].den, sol2.funcs[ch].den)


def _two_pass_cycle(fa, fb, ratio, need):
    """Reference: the sampler of the first solver, which collected the
    off-pole points in one pass and evaluated the residual in a second."""
    golden = (math.sqrt(5) - 1) / 2
    radii = (0.47, 0.83, 1.31, 2.17, 3.59)
    pts = []
    j = 0
    while len(pts) < need and j < 200 * need:
        mu = radii[j % len(radii)] * np.exp(2j * math.pi * ((j * golden) % 1.0))
        j += 1
        try:
            for fn in (fa, fb, ratio):
                fn.evaluate(mu, pole_tol=1e-8)
        except PoleError:
            continue
        pts.append(complex(mu))
    res = 0.0
    for mu in pts:
        res = max(res, abs(fb.evaluate(mu) - fa.evaluate(mu) * ratio.evaluate(mu)))
    return res, len(pts)


def test_cycle_checks_match_the_two_pass_sampler_bit_for_bit():
    cats = ([bx.build_su2k(k) for k in range(1, 11)]
            + [bx.build_minimal_A(k) for k in range(1, 9)]
            + [bx.build_tambara_yamagami(M) for M in (5, 18, 24)]
            + [bx.build_family("so", n=5, k=2), bx.build_family("sp", m=3, k=1),
               bx.build_family("g2", k=2)])
    inconsistent = {}
    checked = 0
    for cat in cats:
        for row in bx.classify_pairs(cat):
            sol = bx.solve_central(cat, row.rho, row.phi)
            need = 2 * max(1, len(sol.graph.edges)) + 1
            for c in sol.cycles:
                a, b = c.closing_edge
                ratio = bx.RationalFunction.linear_ratio(bx.twist_edge_ratio(cat, row.rho, a, b))
                assert (c.residual, c.samples) == _two_pass_cycle(sol.funcs[a], sol.funcs[b],
                                                                  ratio, need)
                checked += 1
            if sol.verdict == INCONSISTENT:
                inconsistent.setdefault(cat.name, []).append((row.rho, row.phi))
    assert checked > 50
    # the float verdicts, known wrong ones included (ROADMAP item 1): at ty
    # M = 18 and 24 the exact oracle calls only some of these pairs inconsistent
    assert inconsistent["ty_18"] == [(18, p) for p in (1, 3, 6, 12, 15, 17)]
    assert inconsistent["ty_24"] == [(24, p) for p in (1, 5, 7, 11, 13, 17, 19, 23)]
    assert "ty_5" not in inconsistent


def _polyval_evaluate(fn, mu, pole_tol):
    """Reference: the evaluator as numpy's polyval computed it; None at a pole."""
    mu = complex(mu)
    den = complex(np.polynomial.polynomial.polyval(mu, fn.den))
    scale = float(np.max(np.abs(fn.den))) * max(1.0, abs(mu)) ** (len(fn.den) - 1)
    if abs(den) <= pole_tol * scale:
        return None
    return complex(np.polynomial.polynomial.polyval(mu, fn.num)) / den


def _bits(z):
    return None if z is None else struct.pack("<dd", z.real, z.imag)


def test_evaluate_matches_polyval_bit_for_bit():
    golden = (math.sqrt(5) - 1) / 2
    radii = (0.47, 0.83, 1.31, 2.17, 3.59)
    grid = [complex(radii[j % 5] * np.exp(2j * math.pi * ((j * golden) % 1.0)))
            for j in range(16)]
    rng = np.random.default_rng(12)
    seeded = [complex(z) for z in rng.normal(size=4) + 1j * rng.normal(size=4)]
    cats = ([bx.build_su2k(k) for k in range(1, 11)]
            + [bx.build_minimal_A(k) for k in range(1, 9)]
            + [bx.build_tambara_yamagami(M) for M in (5, 18, 24)]
            + [bx.build_family("so", n=5, k=2), bx.build_family("sp", m=3, k=1),
               bx.build_family("g2", k=2)])
    checked = poles = 0
    seen = set()
    for cat in cats:
        for row in bx.classify_pairs(cat):
            for fn in bx.solve_central(cat, row.rho, row.phi).funcs.values():
                key = (tuple(map(_bits, fn.num)), tuple(map(_bits, fn.den)))
                if key in seen:
                    continue
                seen.add(key)
                # points just off each pole put the pole test on both sides of its thresholds
                near = [p + d for p in fn.poles() for d in (1e-13, 3e-13, 1e-12, 3e-12, 1e-10,
                                                             3e-9, 1e-8, 3e-8, 1e-7)]
                for mu in grid + seeded + near:
                    for tol in (1e-12, 1e-8):
                        expect = _polyval_evaluate(fn, mu, tol)
                        try:
                            got = fn.evaluate(mu, pole_tol=tol)
                        except PoleError:
                            got = None
                        assert _bits(got) == _bits(expect), (cat.name, row, mu, tol)
                        checked += 1
                        poles += got is None
    # the solver samples the same grid
    assert [_bits(bx.baxterize._grid_point(j)) for j in range(16)] == [_bits(z) for z in grid]
    assert checked > 10_000 and poles > 100, (checked, poles)


def test_products_match_numpy_convolve(monkeypatch):
    # numpy's convolve is the oracle for every product the solver forms on the
    # classify corpus; its BLAS dot products may round differently, so the
    # two agree to rounding, relative to the largest coefficient
    products = []
    real = ratfunc._convolve

    def recording(a, b):
        out = real(a, b)
        products.append((a, b, out))
        return out
    monkeypatch.setattr(ratfunc, "_convolve", recording)
    cats = ([bx.build_su2k(k) for k in range(1, 13)]
            + [bx.build_minimal_A(k) for k in range(1, 9)]
            + [bx.build_tambara_yamagami(M) for M in range(2, 25)])
    for cat in cats:
        bx.classify_pairs(cat)
    # each distinct product is formed once per classify call (2,314 convolutions)
    assert len(products) > 2000
    for a, b, out in products:
        expect = np.convolve(a, b)
        assert len(out) == len(expect)
        assert np.max(np.abs(np.array(out) - expect)) <= 1e-15 * np.max(np.abs(expect)), (a, b)


def test_poles_are_the_factor_roots_of_the_denominator():
    # every amplitude on the classify corpus carries one root -1/x per
    # denominator factor; numpy's polyroots is the oracle, to 1e-7 because it
    # splits a double pole (ty M = 27) by about 2e-8
    from numpy.polynomial.polynomial import polyroots
    cats = ([bx.build_su2k(k) for k in range(1, 13)]
            + [bx.build_minimal_A(k) for k in range(2, 9)]
            + [bx.build_tambara_yamagami(M) for M in range(2, 29)])
    seen = set()
    for cat in cats:
        for row in bx.classify_pairs(cat):
            for fn in bx.solve_central(cat, row.rho, row.phi).funcs.values():
                poles = fn.poles()
                key = (tuple(map(_bits, fn.num + fn.den)), tuple(map(_bits, poles)))
                if key in seen:
                    continue
                seen.add(key)
                assert len(poles) == len(fn.den) - 1, (cat.name, row)
                roots = [complex(z) for z in polyroots(fn.den)] if len(fn.den) > 1 else []
                for p in poles:
                    gap, i = min((abs(p - z), i) for i, z in enumerate(roots))
                    assert gap <= 1e-7, (cat.name, row, p)
                    del roots[i]
                    with pytest.raises(PoleError) as exc:
                        fn.evaluate(p, pole_tol=1e-12)
                    assert exc.value.pole in poles and str(exc.value.pole) in str(exc.value)
    assert len(seen) > 1000, len(seen)


def _memo_free_solve(cat, rho, phi):
    """Reference: the solver without its memo.  Each tree product is formed
    afresh as funcs[v] * linear_ratio(x), each solve evaluates its amplitudes
    through its own grid memo and each closing edge through a fresh one."""
    baxterize = bx.baxterize
    graph = bx.build_tp_graph(cat, rho, phi)
    verts = graph.vertices
    reference = 0 if 0 in verts else min(verts)

    def ratio(a, b):
        return bx.RationalFunction.linear_ratio(bx.twist_edge_ratio(cat, graph.rho, a, b))

    def grid_values(fn):
        memo = {}

        def at(j):
            if j not in memo:
                try:
                    memo[j] = fn.evaluate(baxterize._grid_point(j), pole_tol=1e-8)
                except PoleError:
                    memo[j] = None
            return memo[j]
        return at

    funcs, parent, components = {}, {}, []
    for start in (reference, *verts):
        if start in funcs:
            continue
        comp, pending = [start], [start]
        funcs[start] = bx.RationalFunction.one()
        while pending:
            v = pending.pop(0)
            for w in sorted({y if x == v else x for x, y in graph.edges if v in (x, y)}):
                if w not in funcs:
                    funcs[w] = funcs[v] * ratio(v, w)
                    parent[w] = v
                    comp.append(w)
                    pending.append(w)
        components.append(tuple(sorted(comp)))

    def root_path(v):
        path = [v]
        while v in parent:
            v = parent[v]
            path.append(v)
        return path

    tree_edges = {frozenset((v, parent[v])) for v in parent}
    need = 2 * max(1, len(graph.edges)) + 1
    amps = {v: grid_values(funcs[v]) for v in verts}
    cycles = []
    for a, b in graph.edges:
        if frozenset((a, b)) in tree_edges:
            continue
        res, taken = 0.0, 0
        vr_at = grid_values(ratio(a, b))
        for j in range(200 * need):
            if taken == need:
                break
            va = amps[a](j)
            vb = None if va is None else amps[b](j)
            vr = None if vb is None else vr_at(j)
            if vr is not None:
                res = max(res, abs(vb - va * vr))
                taken += 1
        pa, pb = root_path(a), root_path(b)
        meet = next(v for v in pa if v in pb)
        cyc = pa[: pa.index(meet) + 1] + pb[: pb.index(meet)] if parent else [a, b]
        cycles.append(baxterize.CycleCheck(tuple(sorted(set(cyc))), (a, b), res, taken))
    if any(c.residual >= baxterize.SOLVER_TOL for c in cycles):
        verdict = INCONSISTENT
    elif len(components) > 1:
        verdict = UNDERDETERMINED
    else:
        verdict = CYCLE_CONSISTENT if cycles else TREE_UNIQUE
    return baxterize.AmplitudeSolution(cat, graph, reference, verts, funcs, verdict,
                                       tuple(sorted(components)), tuple(cycles))


def _recording_walks(monkeypatch):
    """(graph, amplitude functions) of every spanning-tree walk, in order."""
    walks = []
    real = bx.baxterize._SolverMemo.walk

    def recording(memo, graph, tree):
        out = real(memo, graph, tree)
        walks.append((graph, {v: amp.fn for v, amp in out[2].items()}))
        return out
    monkeypatch.setattr(bx.baxterize._SolverMemo, "walk", recording)
    return walks


def _same_bits(f, g):
    return (tuple(map(_bits, f.num + f.den)) == tuple(map(_bits, g.num + g.den))
            and f.poles() == g.poles())


def test_classify_and_solve_match_the_memo_free_solver_bit_for_bit():
    cats = ([bx.build_su2k(k) for k in (*range(1, 11), 22, 32)]
            + [bx.build_minimal_A(k) for k in range(1, 9)]
            + [bx.build_tambara_yamagami(M) for M in (5, *range(16, 33))]
            + [bx.build_family("so", n=5, k=2), bx.build_family("sp", m=3, k=1),
               bx.build_family("g2", k=2)])
    inconsistent = {}
    cycles = 0
    for cat in cats:
        for row in bx.classify_pairs(cat):
            expect = _memo_free_solve(cat, row.rho, row.phi)
            g = expect.graph
            assert (row.verdict, row.n_vertices, row.n_edges, row.n_cycles) == (
                expect.verdict, len(g.vertices), len(g.edges), len(expect.cycles)), (cat.name, row)
            sol = bx.solve_central(cat, row.rho, row.phi)
            assert sol.to_dict() == expect.to_dict(), (cat.name, row)
            for ch in sol.channels:
                assert _same_bits(sol.funcs[ch], expect.funcs[ch]), (cat.name, row, ch)
            assert ([(c.closing_edge, struct.pack("<d", c.residual), c.samples)
                     for c in sol.cycles]
                    == [(c.closing_edge, struct.pack("<d", c.residual), c.samples)
                        for c in expect.cycles]), (cat.name, row)
            cycles += len(sol.cycles)
            if row.verdict == INCONSISTENT:
                inconsistent.setdefault(cat.name, []).append((row.rho, row.phi))
    assert cycles > 500
    # the known wrong float verdicts (ROADMAP item 1) do not move
    assert inconsistent["ty_18"] == [(18, p) for p in (1, 3, 6, 12, 15, 17)]
    assert inconsistent["ty_24"] == [(24, p) for p in (1, 5, 7, 11, 13, 17, 19, 23)]


def test_classify_evaluates_each_function_once_per_grid_point(monkeypatch):
    # each edge ratio and tree product of the solver memo is one function
    # object, so keying the calls by object counts each entry's reads of a point
    cat = bx.build_su2k(22)
    rho, phi = 2, 2
    alone = json.dumps(bx.solve_central(cat, rho, phi).to_dict())
    calls = []
    real = bx.RationalFunction.evaluate

    def counting(fn, mu, pole_tol=1e-12):
        calls.append((fn, _bits(mu)))
        return real(fn, mu, pole_tol)
    monkeypatch.setattr(bx.RationalFunction, "evaluate", counting)
    rows = bx.classify_pairs(cat)
    assert any(r.n_cycles for r in rows)
    # the verdicts stop at each cycle's first failing point: 333 calls, not
    # the 6,533 of measuring every cycle in full
    assert 0 < len(calls) == len(set(calls)) <= 400
    monkeypatch.undo()
    # no state outlives a call: a solve after a classify call is the solve alone
    assert json.dumps(bx.solve_central(cat, rho, phi).to_dict()) == alone


def _per_point_residual(fns, need, point):
    """Reference: the cycle residual one grid point at a time, skipping a
    point where any of the three functions is within 1e-8 of a pole."""
    res, taken = 0.0, 0
    for j in range(200 * need):
        if taken == need:
            break
        try:
            va, vb, vr = (fn.evaluate(point(j), pole_tol=1e-8) for fn in fns)
        except PoleError:
            continue
        res = max(res, abs(vb - va * vr))
        taken += 1
    return res, taken


def test_cycle_residual_skips_pole_points_as_the_per_point_loop(monkeypatch):
    # grid points forced onto a pole of one of the three functions, scattered
    # or in one run, which may end before or after the last of the 200 * need
    # points tried, so that fewer than `need` points may survive
    baxterize = bx.baxterize
    real = baxterize._grid_point
    rng = np.random.default_rng(3)
    lr = bx.RationalFunction.linear_ratio
    short = 0
    for case in range(300):
        xs = [complex(cmath.exp(2j * math.pi * rng.uniform())) for _ in range(3)]
        amp_a = lr(xs[0]) * lr(xs[1])
        ratio = lr(xs[2])
        amp_b = amp_a * ratio if case % 2 else amp_a * lr(-xs[2])    # consistent or not
        fns = (amp_a, amp_b, ratio)
        need = int(rng.integers(1, 8))
        poles = [p for fn in fns for p in fn.poles()]
        run = range(0)
        if case % 3 == 0:
            start = int(rng.integers(0, 2 * need))
            run = range(start, start + int(rng.integers(100 * need, 300 * need)))
        forced = {int(j): poles[rng.integers(len(poles))]
                  for j in rng.integers(0, 6 * need, size=int(rng.integers(0, 4 * need)))}

        def point(j, forced=forced, run=run, poles=poles):
            if j in run:
                return poles[j % len(poles)]
            return forced.get(j, real(j))
        monkeypatch.setattr(baxterize, "_grid_point", point)
        got = baxterize._cycle_residual(*map(baxterize._Sampled, fns), need)
        want = _per_point_residual(fns, need, point)
        assert struct.pack("<dq", *got) == struct.pack("<dq", *want), (case, got, want)
        short += got[1] < need
    assert short > 20, short


def test_cycle_verdict_stops_at_the_first_failing_point_of_the_full_residual(monkeypatch):
    # the harness above, with cycles that fail at some grid points only and
    # a NaN or an infinite grid value put into some cases
    baxterize = bx.baxterize
    real = baxterize._grid_point
    rng = np.random.default_rng(4)
    lr = bx.RationalFunction.linear_ratio
    seen = {True: 0, False: 0}
    late = inf_fails = 0
    for case in range(400):
        xs = [complex(cmath.exp(2j * math.pi * rng.uniform())) for _ in range(3)]
        amp_a = lr(xs[0]) * lr(xs[1])
        ratio = lr(xs[2])
        # consistent, inconsistent, or off by a twist near the tolerance
        tilt = (0.0, 1.0, 10 ** rng.uniform(-10.5, -8.5))[case % 3]
        amp_b = amp_a * lr(xs[2] * cmath.exp(1j * tilt)) if tilt != 1.0 else amp_a * lr(-xs[2])
        fns = (amp_a, amp_b, ratio)
        need = int(rng.integers(1, 8))
        poles = [p for fn in fns for p in fn.poles()]
        run = range(0)
        if case % 4 == 0:
            start = int(rng.integers(0, 2 * need))
            run = range(start, start + int(rng.integers(100 * need, 300 * need)))
        forced = {int(j): poles[rng.integers(len(poles))]
                  for j in rng.integers(0, 6 * need, size=int(rng.integers(0, 4 * need)))}

        def point(j, forced=forced, run=run, poles=poles):
            if j in run:
                return poles[j % len(poles)]
            return forced.get(j, real(j))
        monkeypatch.setattr(baxterize, "_grid_point", point)
        full, fast = (tuple(map(baxterize._Sampled, fns)) for _ in range(2))
        bad = (None, math.nan, math.inf)[case % 5 % 3]
        if bad is not None:
            at, which = int(rng.integers(0, 2 * need)), int(rng.integers(3))
            for sampled in (full, fast):
                sampled[which].upto(2 * need)
                sampled[which].values[at] = complex(bad, 0.0)
        want = baxterize._cycle_residual(*full, need)[0] >= baxterize.SOLVER_TOL
        got = baxterize._cycle_fails(*fast, need)
        assert got == want, (case, got, want)
        seen[got] += 1
        inf_fails += got and tilt == 0.0 and bad == math.inf
        if bad is None:
            # reference stop: the failing point, the need-th off-pole point or the cap
            taken, stop = 0, 200 * need - 1
            for j in range(200 * need):
                try:
                    va, vb, vr = (fn.evaluate(point(j), pole_tol=1e-8) for fn in fns)
                except PoleError:
                    continue
                taken += 1
                if abs(vb - va * vr) >= baxterize.SOLVER_TOL or taken == need:
                    stop = j
                    break
            assert [len(s.values) for s in fast] == [stop + 1] * 3, case
            late += got and taken > 1
    assert min(seen.values()) > 100, seen
    assert late > 5, late
    assert inf_fails > 5, inf_fails       # an inf fails a consistent cycle


def test_classify_memo_keeps_the_edge_ratios_of_each_rho_apart(monkeypatch):
    # su2_4 with nu_2^{3/2 3/2} flipped: the 0-2 edge of rho = 3/2 then has
    # another twist ratio than the same edge of rho = 1/2
    doc = json.loads(bx.category_to_json(bx.build_su2k(4)))
    del doc["F"]
    for entry in doc["nu"]:
        if entry[:3] == [2, 3, 3]:
            entry[3] = -entry[3]
    cat = bx.category_from_json(json.dumps(doc))
    walks = _recording_walks(monkeypatch)
    rows = bx.classify_pairs(cat)
    monkeypatch.undo()
    assert {(r.rho, r.phi) for r in rows} >= {(1, 2), (3, 2)}
    assert [(g.rho, g.phi) for g, _ in walks] == [(r.rho, r.phi) for r in rows]
    flipped = 0
    for graph, funcs in walks:
        sol = bx.solve_central(cat, graph.rho, graph.phi)
        assert funcs.keys() == sol.funcs.keys()
        for ch, fn in funcs.items():
            assert _same_bits(fn, sol.funcs[ch]), (graph.rho, graph.phi, ch)
        flipped += graph.rho == 3 and 2 in funcs
    assert flipped


def _so_doc(edit):
    doc = json.loads(bx.category_to_json(bx.build_family("so", n=5, k=2)))
    edit(doc)
    return bx.category_from_json(json.dumps(doc))


def test_declared_self_loop_is_dropped():
    clean = bx.solve_central(bx.build_family("so", n=5, k=2), 3, 1)
    looped = _so_doc(lambda doc: doc["tp_adjacency"]["1"].append([1, 1]))
    assert bx.build_tp_graph(looped, 3, 1).edges == clean.graph.edges
    assert bx.solve_central(looped, 3, 1).to_dict() == clean.to_dict()


def test_declared_edge_off_the_channels_is_refused():
    cat = _so_doc(lambda doc: doc.update(channels=[0, 1]))
    with pytest.raises(DomainError, match=r"edge \(.*\) for phi=A .*channels"):
        bx.solve_central(cat, 3, 1)


def test_unsorted_declared_channels_give_the_sorted_amplitudes():
    text = bx.category_to_json(bx.build_family("so", n=6, k=2))
    doc = json.loads(text)
    doc["channels"] = doc["channels"][::-1]
    ordered, reversed_ = bx.category_from_json(text), bx.category_from_json(json.dumps(doc))
    assert reversed_.channels != ordered.channels
    rows = [(r.rho, r.phi, r.verdict) for r in bx.classify_pairs(ordered)]
    assert [(r.rho, r.phi, r.verdict) for r in bx.classify_pairs(reversed_)] == rows
    for rho, phi, _ in rows:
        s1, s2 = bx.solve_central(ordered, rho, phi), bx.solve_central(reversed_, rho, phi)
        assert s2.reference == s1.reference
        for mu in MUS[:3]:
            for ch in s1.channels:
                assert bx.amplitude_at(s2, ch, mu) == bx.amplitude_at(s1, ch, mu)
