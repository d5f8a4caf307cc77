"""Verification suites, including the negative controls that keep the
positive checks honest."""

import cmath
import math

import numpy as np
import pytest

import baxcat as bx
from baxcat.errors import CapabilityError, DomainError
from baxcat.verify import (cpl_enumerate, cpl_transfer, perturb_solution,
                           random_solution)


def solved(cat, rho, phi):
    return bx.solve_central(cat, rho, phi)


# ---------------------------------------------------------------------------
# current conservation at a vertex


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_current_vertex_su2(k):
    cat = bx.build_su2k(k)
    sol = solved(cat, 1, 2)
    rep = bx.verify_current_vertex(cat, 1, 2, sol, samples=10, seed=k)
    assert rep.passed and rep.max_residual < 1e-10


@pytest.mark.parametrize("M", [3, 4, 5, 6])
def test_current_vertex_ty(M):
    ty = bx.build_tambara_yamagami(M)
    sol = solved(ty, M, 1)
    rep = bx.verify_current_vertex(ty, M, 1, sol, samples=10, seed=M)
    assert rep.passed and rep.max_residual < 1e-10


def test_current_vertex_su2_spin1():
    cat = bx.build_su2k(4)
    sol = solved(cat, 2, 2)
    rep = bx.verify_current_vertex(cat, 2, 2, sol, samples=10, seed=1)
    assert rep.passed and rep.max_residual < 1e-10


def test_current_vertex_mutation_control():
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    bad = perturb_solution(sol, 2, 1e-3)
    rep = bx.verify_current_vertex(cat, 1, 2, bad, samples=10, seed=7)
    assert not rep.passed
    assert rep.max_residual > 1e-4


def test_current_vertex_needs_f():
    so5 = bx.build_family("so", n=5, k=2)
    sol = solved(so5, 3, 1)
    with pytest.raises(CapabilityError):
        bx.verify_current_vertex(so5, 3, 1, sol)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_checks_refuse_no_samples(samples):
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    with pytest.raises(DomainError):
        bx.verify_current_vertex(cat, 1, 2, sol, samples=samples)
    with pytest.raises(DomainError):
        bx.verify_ybe(cat, 1, sol, samples=samples)
    with pytest.raises(DomainError):
        bx.verify_commuting_transfer(cat, 1, sol, L=4, samples=samples)


def test_current_vertex_rejects_inconsistent():
    cat = bx.build_su2k(8)
    sol = solved(cat, 3, 4)
    with pytest.raises(DomainError):
        bx.verify_current_vertex(cat, 3, 4, sol)


# ---------------------------------------------------------------------------
# Yang-Baxter and transfer


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ybe_su2(k):
    cat = bx.build_su2k(k)
    sol = solved(cat, 1, 2)
    rep = bx.verify_ybe(cat, 1, sol, samples=25, seed=k)
    assert rep.passed and rep.max_residual < 1e-8


def test_ybe_ty4():
    ty = bx.build_tambara_yamagami(4)
    sol = solved(ty, 4, 1)
    rep = bx.verify_ybe(ty, 4, sol, samples=25, seed=4)
    assert rep.passed and rep.max_residual < 1e-8


def test_minimal_family_full_stack():
    for k in (2, 3):
        cat = bx.build_minimal_A(k)
        sol = solved(cat, 1, 2)
        assert bx.verify_ybe(cat, 1, sol, samples=10, seed=k).max_residual < 1e-10
        assert bx.verify_current_vertex(cat, 1, 2, sol, seed=k).max_residual < 1e-10
        assert bx.verify_commuting_transfer(cat, 1, sol, L=4, samples=3,
                                            seed=k).max_residual < 1e-10


def test_ybe_negative_control():
    cat = bx.build_su2k(3)
    fake = random_solution(cat, 1, 2, seed=13)
    rep = bx.verify_ybe(cat, 1, fake, samples=10, seed=13)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_commuting_transfer_su2():
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    for L in (4, 6):
        rep = bx.verify_commuting_transfer(cat, 1, sol, L=L, samples=4, seed=L)
        assert rep.passed and rep.max_residual < 1e-8
    cat2 = bx.build_su2k(2)
    sol2 = solved(cat2, 1, 2)
    rep = bx.verify_commuting_transfer(cat2, 1, sol2, L=6, samples=4, seed=2)
    assert rep.passed and rep.max_residual < 1e-8


def test_commuting_transfer_mutation_control():
    # needs three channels: every two-channel weight pair sits somewhere on
    # the Moebius solution curve, so TL transfer matrices commute regardless
    cat = bx.build_su2k(4)
    sol = perturb_solution(solved(cat, 2, 2), 4, 5e-2)
    rep = bx.verify_commuting_transfer(cat, 2, sol, L=4, samples=4, seed=9)
    assert not rep.passed
    assert rep.max_residual >= 1e-3


def test_commuting_transfer_tl_family_insensitive_to_scaling():
    # the same scaling that breaks the three-channel family stays inside the
    # two-channel one: document the geometry with a positive check
    cat = bx.build_su2k(3)
    sol = perturb_solution(solved(cat, 1, 2), 2, 5e-2)
    rep = bx.verify_commuting_transfer(cat, 1, sol, L=4, samples=4, seed=9)
    assert rep.passed


def test_transfer_cap():
    cat = bx.build_su2k(2)
    sol = solved(cat, 1, 2)
    with pytest.raises(DomainError):
        bx.verify_commuting_transfer(cat, 1, sol, L=9)


# ---------------------------------------------------------------------------
# braid limits and algebra suites


def test_braid_limits_su2_2():
    cat = bx.build_su2k(2)
    sol = solved(cat, 1, 2)
    rep = bx.verify_braid_limits(cat, 1, sol)
    assert rep.check("r_at_identity").residual < 1e-12
    assert rep.check("braid_limit_mu_large").passed
    assert rep.check("braid_limit_mu_small").passed
    senses = {rep.check("braid_limit_mu_large").details["matched_sense"],
              rep.check("braid_limit_mu_small").details["matched_sense"]}
    assert senses == {"over", "under"}


def test_braid_limits_records_sense_su2_3():
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    rep = bx.verify_braid_limits(cat, 1, sol)
    assert rep.check("braid_limit_mu_large").residual < 1e-6


def test_minimal_braid_is_su2_inverse():
    # q <-> 1/q exchanges the two crossings: the minimal-model overcrossing is
    # proportional to the su(2)_k undercrossing on the shared projector basis
    for k in (2, 3):
        su2 = bx.build_su2k(k)
        mini = bx.build_minimal_A(k)
        basis = bx.enumerate_trees(su2, 1, 4, "open_all")
        b_min = bx.braid_op(mini, 1, 2, "over", basis).matrix
        b_su2_under = bx.braid_op(su2, 1, 2, "under", basis).matrix
        coef = np.vdot(b_su2_under, b_min) / np.vdot(b_su2_under, b_su2_under)
        assert abs(abs(coef) - 1.0) < 1e-12
        assert np.linalg.norm(b_min - coef * b_su2_under) < 1e-9


def test_projector_algebra_suites():
    rep = bx.verify_projector_algebra(bx.build_su2k(4), 1, L=5)
    assert rep.passed and rep.max_residual < 1e-10
    rep = bx.verify_projector_algebra(bx.build_tambara_yamagami(3), 3, L=4)
    assert rep.passed
    assert rep.check("completeness").residual < 1e-10
    assert rep.check("orthogonality").residual < 1e-10


def test_projector_algebra_tl_loop_weight():
    rep = bx.verify_projector_algebra(bx.build_su2k(2), 1, L=4)
    tl = rep.check("tl_quadratic")
    assert tl.passed
    assert abs(tl.details["loop_weight"] - math.sqrt(2)) < 1e-12


def test_braid_relations_report():
    rep = bx.verify_braid_relations(bx.build_su2k(3), 1, L=5)
    assert rep.passed
    assert rep.check("reidemeister2").residual < 1e-9
    assert rep.check("reidemeister3").residual < 1e-9


# ---------------------------------------------------------------------------
# loop model closed forms


def test_loop_functional_seeded():
    q = cmath.exp(1j * cmath.pi / 5)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        u, u2 = rng.uniform(-1.2, 1.2, size=2) + 1j * rng.uniform(-2, 2, size=2)
        rep = bx.loop_functional_check(q, cmath.exp(u), cmath.exp(u2))
        assert rep.check("functional_equation").residual < 1e-10
        assert rep.check("trivial_aaa").residual == 0.0
        assert rep.check("trivial_cca").residual == 0.0


def test_loop_functional_at_u_zero():
    q = cmath.exp(1j * cmath.pi / 7)
    rep = bx.loop_functional_check(q, 1.0, 1.9 + 0.4j)
    assert rep.check("functional_equation").residual < 1e-14


def test_loop_functional_rejects_q_zero():
    with pytest.raises(DomainError):
        bx.loop_functional_check(0, 0.5, 2.0)


def test_loop_functional_mutation():
    q = cmath.exp(1j * cmath.pi / 5)
    rep = bx.loop_functional_check(q, 1.4, 0.8 + 0.3j, c_offset=1e-3)
    assert rep.check("functional_equation").residual > 1e-5


def test_cpl_1x1_hand_enumeration():
    # both resolutions of the single vertex give one winding loop, so
    # Z = (a1 + c) d; hand-checked by tracing the two strand pairings
    d, a1, c = 1.4 + 0.2j, 0.9, 0.31 - 0.7j
    z = cpl_enumerate(d, a1, c, 1, 1)
    assert abs(z - (a1 + c) * d) < 1e-14
    assert abs(cpl_transfer(d, a1, c, 1, 1) - z) < 1e-14


def test_cpl_all_a1_diagonal_loops():
    # with c = 0 only the uniform resolution survives; its strands run along
    # diagonals, giving gcd(Lx, Ly) loops on the torus
    d = 1.37
    for lx, ly in ((2, 2), (3, 2), (2, 4), (3, 3)):
        z = cpl_enumerate(d, 1.0, 0.0, lx, ly)
        assert abs(z - d ** math.gcd(lx, ly)) < 1e-12


def test_cpl_enumeration_vs_transfer():
    rng = np.random.default_rng(3)
    for lx, ly in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3)):
        d, a1, c = (rng.normal() + 1j * rng.normal() for _ in range(3))
        z1 = cpl_enumerate(d, a1, c, lx, ly)
        z2 = cpl_transfer(d, a1, c, lx, ly)
        assert abs(z1 - z2) < 1e-10 * max(1.0, abs(z1))


def test_loop_partition_paths_agree():
    q = cmath.exp(1j * cmath.pi / 5)
    z1 = bx.loop_partition_enumeration(q, 1.7, 2, 2)
    z2 = bx.loop_partition_transfer(q, 1.7, 2, 2)
    assert abs(z1 - z2) < 1e-10


def test_loop_partition_size_cap():
    with pytest.raises(DomainError):
        bx.loop_partition_enumeration(1j, 1.5, 5, 4)


# ---------------------------------------------------------------------------
# report plumbing


def test_reports_seed_reproducible():
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    r1 = bx.verify_ybe(cat, 1, sol, samples=5, seed=42)
    r2 = bx.verify_ybe(cat, 1, sol, samples=5, seed=42)
    assert r1.to_dict() == r2.to_dict()


def test_report_serialisable():
    import json
    rep = bx.verify_projector_algebra(bx.build_su2k(2), 1, L=3)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["verdict"] == "pass"
    assert {c["check"] for c in doc["checks"]} >= {"completeness", "orthogonality"}
