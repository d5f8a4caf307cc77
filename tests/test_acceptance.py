"""Acceptance criteria, one test per criterion (split per parameter where a
criterion sweeps families).  Each prints a PASS/FAIL line with the measured
worst residual so the suite output doubles as the acceptance report."""

import cmath
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import baxcat as bx
from baxcat.baxterize import CYCLE_CONSISTENT, INCONSISTENT, TREE_UNIQUE
from baxcat.verify import perturb_solution, random_solution


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def seeded_mus(seed, n=20):
    rng = np.random.default_rng(seed)
    return [complex(r * np.exp(2j * np.pi * t)) for r, t in
            zip(np.exp(rng.uniform(np.log(0.25), np.log(4.0), n)), rng.uniform(0, 1, n))]


def rel_err(got, expect):
    return abs(got - expect) / max(abs(expect), 1e-300)


def ratio(sol, b, a, mu):
    return bx.amplitude_at(sol, b, mu) / bx.amplitude_at(sol, a, mu)


def test_criterion_1_loop_closed_form():
    worst = 0.0
    for k in range(2, 9):
        for family, sign in (("su2", 1), ("minimal", -1)):
            cat = bx.build_family(family, k=k)
            sol = bx.solve_central(cat, 1, 2)
            q2 = cmath.exp(sign * 2j * cmath.pi / (k + 2))
            for mu in seeded_mus(100 + k):
                expect = (1 - mu * q2) / (mu - q2)
                worst = max(worst, rel_err(ratio(sol, 0, 2, mu), expect))
    report("1", worst < 1e-10,
           f"loop weights match closed form for k=2..8, both twist families "
           f"(worst rel err {worst:.2e}, tol 1e-10)")


def test_su2_spin_half_weights_are_the_abf_face_weights():
    # Andrews-Baxter-Forrester, J. Stat. Phys. 35 (1984) 193: with mu = e^{2iu}
    # and lambda = pi/(k+2), R(mu) is proportional to sin(lambda - u) 1 + sin(u) e_j,
    # so A_0/A_1 - 1 = d sin(u)/sin(lambda - u) with d = 2 cos(lambda)
    worst = 0.0
    for k in range(2, 13):
        sol = bx.solve_central(bx.build_su2k(k), 1, 2)          # rho = 1/2, phi = 1
        lam = math.pi / (k + 2)
        for u in (0.1 + 0.05j, 0.37 - 0.2j, -0.6 + 0.3j, 1.1 + 0.7j):
            expect = 2 * math.cos(lam) * cmath.sin(u) / cmath.sin(lam - u)
            worst = max(worst, rel_err(ratio(sol, 0, 2, cmath.exp(2j * u)) - 1, expect))
    report("ABF", worst < 1e-12,
           f"su2 spin-1/2 weights are the ABF face weights for k=2..12 "
           f"(worst rel err {worst:.2e}, tol 1e-12)")


def test_criterion_2_lie_twist_only():
    worst = 0.0
    for n in (4, 5, 6, 7):
        for k in (1, 2):
            so = bx.build_family("so", n=n, k=k)
            q = cmath.exp(1j * cmath.pi / (n + k - 2))
            solA = bx.solve_central(so, 3, 1)
            solS = bx.solve_central(so, 3, 2)
            for mu in seeded_mus(200 + 10 * n + k, 8):
                worst = max(
                    worst,
                    rel_err(ratio(solA, 0, 1, mu),
                            (1 - mu * q ** (n - 2)) / (mu - q ** (n - 2))),
                    rel_err(ratio(solA, 2, 1, mu), (1 - mu / q ** 2) / (mu - 1 / q ** 2)),
                    rel_err(ratio(solS, 0, 2, mu), (1 + mu * q ** n) / (mu + q ** n)),
                    rel_err(ratio(solS, 1, 2, mu), (1 - mu * q ** 2) / (mu - q ** 2)))
    for m in (2, 3):
        for k in (1, 3):
            sp = bx.build_family("sp", m=m, k=k)
            q = cmath.exp(1j * cmath.pi / (m + k + 1))
            solA = bx.solve_central(sp, 3, 1)
            solS = bx.solve_central(sp, 3, 2)
            for mu in seeded_mus(300 + 10 * m + k, 8):
                worst = max(
                    worst,
                    rel_err(ratio(solA, 0, 1, mu), (1 + mu * q ** m) / (mu + q ** m)),
                    rel_err(ratio(solA, 2, 1, mu), (1 - mu / q) / (mu - 1 / q)),
                    rel_err(ratio(solS, 0, 2, mu),
                            (1 - mu * q ** (m + 1)) / (mu - q ** (m + 1))),
                    rel_err(ratio(solS, 1, 2, mu), (1 - mu * q) / (mu - q)))
    for k in (1, 2):
        g2 = bx.build_family("g2", k=k)
        q = cmath.exp(1j * cmath.pi / (k + 4))
        sol = bx.solve_central(g2, 1, 2)
        for mu in seeded_mus(400 + k, 8):
            worst = max(
                worst,
                rel_err(ratio(sol, 0, 2, mu), (1 - mu * q ** 4) / (mu - q ** 4)),
                rel_err(ratio(sol, 3, 2, mu),
                        (1 - mu * q ** (-2 / 3)) / (mu - q ** (-2 / 3))),
                rel_err(ratio(sol, 1, 3, mu),
                        (1 - mu * q ** (8 / 3)) / (mu - q ** (8 / 3))))
    report("2", worst < 1e-10,
           f"so(n)/sp(2m)/G2 ratios match their displayed forms "
           f"(worst rel err {worst:.2e}, tol 1e-10)")


def test_criterion_3_higher_spin():
    worst = 0.0
    for k in (4, 5, 6, 8):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 2, 2)        # rho = 1, phi = 1
        q = cmath.exp(1j * cmath.pi / (k + 2))
        chans = sol.channels
        for mu in seeded_mus(500 + k):
            for i, (a, b) in enumerate(zip(chans, chans[1:])):
                expect = ((1 - mu * q ** (-2 * (i + 1)))
                          / (mu - q ** (-2 * (i + 1))))
                worst = max(worst, rel_err(ratio(sol, b, a, mu), expect))
    report("3", worst < 1e-10,
           f"spin-1 weights match the fused closed form for k>=4 "
           f"(worst rel err {worst:.2e}, tol 1e-10)")


def test_criterion_4_parafermions():
    worst_cycle = 0.0
    worst_ratio = 0.0
    for M in range(3, 9):
        ty = bx.build_tambara_yamagami(M)
        sol = bx.solve_central(ty, M, 1)
        assert sol.verdict == CYCLE_CONSISTENT, f"TY_{M}: {sol.verdict}"
        worst_cycle = max(worst_cycle, max(c.residual for c in sol.cycles))
        w = cmath.exp(2j * cmath.pi / M)
        for mu in seeded_mus(600 + M, 8):
            for a in range(M - 1):
                expect = (1 - mu * w ** (a + 0.5)) / (mu - w ** (a + 0.5))
                worst_ratio = max(worst_ratio, rel_err(ratio(sol, a + 1, a, mu), expect))
    ok = worst_cycle < 1e-10 and worst_ratio < 1e-10
    report("4", ok,
           f"TY_3..8 cycle-consistent with clock-model ratios "
           f"(cycle residual {worst_cycle:.2e}, ratio err {worst_ratio:.2e}, tol 1e-10)")


@pytest.mark.parametrize("k", [6, 7, 8, 10])
def test_criterion_5_negative_classification(k):
    # The spin-3/2, phi = 2 obstruction is the 1-2-3 cycle.  Its closing edge
    # 2-3 needs N_{2,2}^{3} != 0, i.e. 2 + 2 + 3 <= k, so the obstruction
    # first exists at k = 7.  At k = 6 the graph is the path 0-2-1-3 and the
    # current exists: that level is checked as the truncation boundary.
    cat = bx.build_su2k(k)
    sol1 = bx.solve_central(cat, 3, 2)           # phi = 1
    sol2 = bx.solve_central(cat, 3, 4)           # phi = 2
    tree_ok = sol1.verdict == TREE_UNIQUE
    if k == 6:
        closing = int(cat.rules.N[4, 4, 6])
        path_ok = (sol2.verdict == TREE_UNIQUE
                   and sol2.graph.edges == ((0, 4), (2, 4), (2, 6)))
        vertex = (bx.verify_current_vertex(cat, 3, 4, sol2, seed=k).max_residual
                  if sol2.verdict == TREE_UNIQUE else math.inf)
        ok = tree_ok and closing == 0 and path_ok and vertex < 1e-10
        detail = (f"k=6 truncation boundary: (3/2, 1) -> {sol1.verdict}; "
                  f"N[2,2;3] = {closing}; (3/2, 2) -> {sol2.verdict}, "
                  f"edges {sol2.graph.edges}, vertex residual {vertex:.2e} (tol 1e-10)")
        report("5[k=6]", ok, detail)
        return
    bad_cycles = [c for c in sol2.cycles
                  if c.vertices == (2, 4, 6) and c.residual > 1e-3]
    neg_ok = sol2.verdict == INCONSISTENT and bad_cycles
    detail = (f"k={k}: (3/2, 1) -> {sol1.verdict}; (3/2, 2) -> {sol2.verdict}"
              + (f", 1-2-3 cycle residual {bad_cycles[0].residual:.2e}" if bad_cycles
                 else f", edges {sol2.graph.edges}"))
    report(f"5[k={k}]", tree_ok and neg_ok, detail)


def test_criterion_6_current_vertex():
    worst = 0.0
    for k in (2, 3, 4, 5):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 1, 2)
        worst = max(worst, bx.verify_current_vertex(cat, 1, 2, sol, seed=k).max_residual)
    cat4 = bx.build_su2k(4)
    sol4 = bx.solve_central(cat4, 2, 2)
    worst = max(worst, bx.verify_current_vertex(cat4, 2, 2, sol4, seed=44).max_residual)
    for M in (3, 4, 5, 6):
        ty = bx.build_tambara_yamagami(M)
        sol = bx.solve_central(ty, M, 1)
        worst = max(worst, bx.verify_current_vertex(ty, M, 1, sol, seed=M).max_residual)
    cat3 = bx.build_su2k(3)
    mutated = perturb_solution(bx.solve_central(cat3, 1, 2), 2, 1e-3)
    control = bx.verify_current_vertex(cat3, 1, 2, mutated, seed=9).max_residual
    ok = worst < 1e-10 and control > 1e-4
    report("6", ok,
           f"vertex conservation holds with F-symbols kept in "
           f"(worst {worst:.2e}, tol 1e-10; mutation control {control:.2e} > 1e-4)")


def test_criterion_7_ybe():
    worst = 0.0
    for k in (2, 3, 4):
        cat = bx.build_su2k(k)
        sol = bx.solve_central(cat, 1, 2)
        worst = max(worst, bx.verify_ybe(cat, 1, sol, samples=25, seed=k).max_residual)
    cat4 = bx.build_su2k(4)
    sol4 = bx.solve_central(cat4, 2, 2)
    worst = max(worst, bx.verify_ybe(cat4, 2, sol4, samples=25, seed=74).max_residual)
    for M in (3, 4):
        ty = bx.build_tambara_yamagami(M)
        sol = bx.solve_central(ty, M, 1)
        worst = max(worst, bx.verify_ybe(ty, M, sol, samples=25, seed=M).max_residual)
    cat3 = bx.build_su2k(3)
    control = bx.verify_ybe(cat3, 1, random_solution(cat3, 1, 2, seed=5),
                            samples=10, seed=5).max_residual
    ok = worst < 1e-8 and control > 1e-2
    report("7", ok,
           f"Yang-Baxter conjecture checks (worst {worst:.2e}, tol 1e-8; "
           f"negative control {control:.2e})")


def test_criterion_8_commuting_transfer():
    cat = bx.build_su2k(3)
    sol = bx.solve_central(cat, 1, 2)
    worst = 0.0
    for L in (4, 6):
        worst = max(worst, bx.verify_commuting_transfer(
            cat, 1, sol, L=L, samples=5, seed=L).max_residual)
    report("8", worst < 1e-8,
           f"transfer matrices commute at L=4,6 (worst {worst:.2e}, tol 1e-8)")


def test_criterion_9_algebra_suites():
    worst_proj = 0.0
    for cat, rho in ((bx.build_su2k(2), 1), (bx.build_su2k(3), 1),
                     (bx.build_su2k(4), 1), (bx.build_su2k(4), 2),
                     (bx.build_tambara_yamagami(3), 3),
                     (bx.build_tambara_yamagami(4), 4)):
        rep = bx.verify_projector_algebra(cat, rho, L=4)
        worst_proj = max(worst_proj, rep.check("completeness").residual,
                         rep.check("orthogonality").residual)
        if rho == 1:
            tl = rep.check("tl_quadratic")
            d = cat.dims[1]
            q = cmath.exp(1j * cmath.pi / (cat.n_objects + 1))
            assert abs(d - (q + 1 / q).real) < 1e-12
            worst_proj = max(worst_proj, tl.residual, rep.check("tl_cubic").residual)
    worst_braid = 0.0
    for cat, rho in ((bx.build_su2k(3), 1), (bx.build_su2k(4), 2),
                     (bx.build_tambara_yamagami(4), 4)):
        rep = bx.verify_braid_relations(cat, rho, L=4)
        worst_braid = max(worst_braid, rep.max_residual)
    worst_r1 = 0.0
    for cat, rho, phi in ((bx.build_su2k(3), 1, 2), (bx.build_tambara_yamagami(4), 4, 1)):
        sol = bx.solve_central(cat, rho, phi)
        rep = bx.verify_braid_limits(cat, rho, sol)
        worst_r1 = max(worst_r1, rep.check("r_at_identity").residual)
    ok = worst_proj < 1e-10 and worst_braid < 1e-9 and worst_r1 < 1e-12
    report("9", ok,
           f"projector algebra {worst_proj:.2e} (tol 1e-10); TL with loop weight "
           f"q+1/q; braid relations {worst_braid:.2e} (tol 1e-9); "
           f"R(1)=identity {worst_r1:.2e} (tol 1e-12)")


def test_criterion_10_loop_model():
    q = cmath.exp(1j * cmath.pi / 5)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        u, u2 = rng.uniform(-1.2, 1.2, 2) + 1j * rng.uniform(-2.5, 2.5, 2)
        rep = bx.loop_functional_check(q, cmath.exp(u), cmath.exp(u2))
        worst = max(worst, rep.max_residual)
    z1 = bx.loop_partition_enumeration(q, 1.7 + 0.4j, 2, 2)
    z2 = bx.loop_partition_transfer(q, 1.7 + 0.4j, 2, 2)
    gap = abs(z1 - z2) / abs(z1)
    ok = worst < 1e-10 and gap < 1e-10
    report("10", ok,
           f"loop functional equation over 50 seeded pairs (worst {worst:.2e}) "
           f"and 2x2 torus two-route agreement (gap {gap:.2e}), tol 1e-10")


def test_criterion_11_determinism():
    sol_a = bx.solve_central(bx.build_tambara_yamagami(5), 5, 1)
    sol_b = bx.solve_central(bx.build_tambara_yamagami(5), 5, 1)
    json_same = json.dumps(sol_a.to_dict()) == json.dumps(sol_b.to_dict())
    args = [sys.executable, "-m", "baxcat.cli", "--format", "json", "verify", "ybe",
            "--family", "su2", "--level", "3", "--rho", "1/2", "--phi", "1",
            "--samples", "5", "--seed", "21"]
    out1 = subprocess.run(args, capture_output=True, text=True).stdout
    out2 = subprocess.run(args, capture_output=True, text=True).stdout
    cli_same = out1 == out2 and out1 != ""
    worst_tree = 0.0
    for cat, rho, phi in ((bx.build_su2k(6), 3, 2), (bx.build_tambara_yamagami(6), 6, 1),
                          (bx.build_family("g2", k=2), 1, 2)):
        s1 = bx.solve_central(cat, rho, phi, tree="bfs")
        s2 = bx.solve_central(cat, rho, phi, tree="dfs")
        for mu in seeded_mus(900, 20):
            for a, b in s1.graph.edges:
                worst_tree = max(worst_tree, abs(ratio(s1, b, a, mu) - ratio(s2, b, a, mu)))
    ok = json_same and cli_same and worst_tree < 1e-10
    report("11", ok,
           f"byte-identical seeded reruns (solver {json_same}, cli {cli_same}); "
           f"spanning-tree invariance {worst_tree:.2e} (tol 1e-10)")
