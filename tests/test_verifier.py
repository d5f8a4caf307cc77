"""Verification suites, including the negative controls that keep the
positive checks honest."""

import cmath
import math
import time

import numpy as np
import pytest

import baxcat as bx
import baxcat.verify as verify_mod
from baxcat.errors import CapabilityError, DomainError
from baxcat.report import fmt_complex
from baxcat.verify import (cpl_enumerate, cpl_transfer, mu_annulus,
                           perturb_solution, random_solution)


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
    # spin 3/2, phi = 2 at su(2)_8: every check of the weights refuses the pair alike
    cat = bx.build_su2k(8)
    sol = solved(cat, 3, 4)
    assert sol.verdict == "INCONSISTENT"
    for check in (lambda: bx.verify_current_vertex(cat, 3, 4, sol),
                  lambda: bx.verify_ybe(cat, 3, sol, samples=2),
                  lambda: bx.verify_commuting_transfer(cat, 3, sol, L=4, samples=2),
                  lambda: bx.verify_braid_limits(cat, 3, sol)):
        with pytest.raises(DomainError, match=r"^\(3/2, 2\) is INCONSISTENT: the checks "
                                              r"require a consistent solution$"):
            check()


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


def test_ybe_and_transfer_state_where_the_worst_residual_occurred(monkeypatch):
    seen = []
    real = verify_mod._worst_over_pairs

    def recording(residual, *args):
        def traced(mu1, mu2):
            seen.append((residual(mu1, mu2), mu1, mu2))
            return seen[-1][0]
        return real(traced, *args)
    monkeypatch.setattr(verify_mod, "_worst_over_pairs", recording)
    cat = bx.build_su2k(4)
    sol = perturb_solution(solved(cat, 2, 2), 4, 5e-2)
    for run in (lambda: bx.verify_ybe(cat, 2, sol, samples=6, seed=13),
                lambda: bx.verify_commuting_transfer(cat, 2, sol, L=4, samples=4, seed=9)):
        seen.clear()
        (check,) = run().checks
        res, mu1, mu2 = max(seen, key=lambda t: t[0])
        assert len(seen) == check.samples and res == check.residual > 1e-3
        assert len({r for r, _, _ in seen}) == len(seen)
        assert check.to_dict()["details"]["worst_at"] == [fmt_complex(mu1), fmt_complex(mu2)]


@pytest.mark.parametrize("k", [0, 1, 7])
def test_worst_over_pairs_redraws_a_pair_that_hits_a_pole(k):
    draws = []

    def residual(mu1, mu2):
        draws.append((mu1, mu2))
        if len(draws) <= k:
            raise bx.PoleError("forced", pole=mu1)
        return abs(mu1 - mu2)
    worst, at, skipped = verify_mod._worst_over_pairs(residual, 5, 17, [])
    assert skipped == k and len(draws) == k + 5
    kept = draws[k:]
    assert worst == max(abs(a - b) for a, b in kept)
    assert at == max(kept, key=lambda p: abs(p[0] - p[1]))


def test_worst_over_pairs_gives_up_after_50_redraws_per_sample():
    draws = []

    def residual(mu1, mu2):
        draws.append((mu1, mu2))
        raise bx.PoleError("forced", pole=mu1)
    with pytest.raises(bx.PoleError):
        verify_mod._worst_over_pairs(residual, 3, 17, [])
    assert len(draws) == 50 * 3 + 1


def test_transfer_size_guard():
    # the periodic basis is counted exactly and refused over the dense budget
    # before it is built: L = 10 has 246 states, L = 100 about 1.6e21
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    rep = bx.verify_commuting_transfer(cat, 1, sol, L=10, samples=2)
    assert rep.passed and rep.params["dim"] == 246
    t = time.perf_counter()
    with pytest.raises(DomainError, match="over 10\\^6 exceeds the dense-operator budget"):
        bx.verify_commuting_transfer(cat, 1, sol, L=100, samples=2)
    assert time.perf_counter() - t < 1


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


def test_braid_limits_are_exact_at_one_tolerance():
    # R(infinity) and R(0) are read from the leading and constant
    # coefficients, so the limits hold to rounding, like R(1), under the one
    # default tolerance 1e-12; a 1e-6 change of one amplitude shows on them
    cats = ([bx.build_su2k(k) for k in range(1, 11)] + [bx.build_minimal_A(k) for k in range(2, 8)]
            + [bx.build_tambara_yamagami(M) for M in range(2, 11)])
    limits = ("braid_limit_mu_large", "braid_limit_mu_small")
    n, relations = 0, {}
    for cat in cats:
        for row in bx.classify_pairs(cat):
            if row.verdict not in ("TREE_UNIQUE", "CYCLE_CONSISTENT"):
                continue
            sol, at = bx.solve_central(cat, row.rho, row.phi), (cat.name, row.rho, row.phi)
            rep = bx.verify_braid_limits(cat, row.rho, sol)
            assert rep.passed and {c.tolerance for c in rep.checks} == {1e-12}, at
            assert max(rep.check(name).residual for name in limits) < 1e-14, at
            bad = bx.verify_braid_limits(cat, row.rho,
                                         perturb_solution(sol, max(sol.channels), 1e-6))
            assert min(bad.check(name).residual for name in limits) > 1e-7, at
            if (cat.name, row.rho) not in relations:
                relations[cat.name, row.rho] = bx.verify_braid_relations(cat, row.rho, L=3,
                                                                         tol=1e-12)
            n += 1
    assert n == 126
    assert all(rep.passed for rep in relations.values())


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
# patch checks against the dense L-strand products they replace


def local_fnorm(m, heights, lo, hi):
    """Frobenius norm over one row of the L-strand matrix m per distinct
    heights h_lo..h_hi: each local configuration of the identity counted once."""
    rows = np.unique(heights[:, lo:hi + 1], axis=0, return_index=True)[1]
    return float(np.linalg.norm(m[rows]))


def dense_projector_residuals(cat, rho, L):
    """The projector-algebra residuals from dense operators on the L-strand
    open basis: the max over sites of the local Frobenius norm."""
    basis = bx.enumerate_trees(cat, rho, L, "open_all")
    H = basis.heights
    sites = range(1, L)
    eye = np.eye(basis.size)
    chans = bx.fusion_product(cat, rho, rho)
    P = {(c, j): bx.projector_op(cat, rho, c, j, basis).matrix for c in chans for j in sites}

    def site(m, j, width=1):
        return local_fnorm(m, H, j - 1, j + width)
    out = {
        "completeness": max(site(sum(P[c, j] for c in chans) - eye, j) for j in sites),
        "orthogonality": max(site(P[c1, j] @ P[c2, j] - (P[c1, j] if c1 == c2 else 0.0), j)
                             for j in sites for c1 in chans for c2 in chans),
    }
    if len(chans) == 2 and chans[0] == 0:
        d = cat.dims[rho]
        e = {j: d * P[0, j] for j in sites}
        out["tl_quadratic"] = max(site(e[j] @ e[j] - d * e[j], j) for j in sites)
        out["tl_cubic"] = max(max(site(e[j] @ e[j + 1] @ e[j] - e[j], j, 2),
                                  site(e[j + 1] @ e[j] @ e[j + 1] - e[j + 1], j, 2))
                              for j in sites[:-1])
    return out


def dense_braid_residuals(cat, rho, L, sol, seed, samples=2):
    """The braid-relation residuals (max over sites) and the YBE residual at
    j = 1 over the verifier's seeded mu pairs, from dense operators on the
    L-strand open basis, each a local Frobenius norm."""
    basis = bx.enumerate_trees(cat, rho, L, "open_all")
    H = basis.heights
    sites = range(1, L)
    eye = np.eye(basis.size)
    B = {j: bx.braid_op(cat, rho, j, "over", basis).matrix for j in sites}
    Bb = {j: bx.braid_op(cat, rho, j, "under", basis).matrix for j in sites}
    out = {
        "dim": basis.size,
        "reidemeister2": max(local_fnorm(B[j] @ Bb[j] - eye, H, j - 1, j + 1) for j in sites),
        "reidemeister3": max(local_fnorm(B[j] @ B[j + 1] @ B[j] - B[j + 1] @ B[j] @ B[j + 1],
                                         H, j - 1, j + 2) for j in sites[:-1]),
        "ybe_residual": 0.0,
    }
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        mu1, mu2 = mu_annulus(rng, 2, avoid=sol.poles())
        R = {(mu, j): bx.r_op(sol, mu, j, basis).matrix
             for mu in (mu1, mu2, mu1 * mu2) for j in (1, 2)}
        lhs = R[mu1, 1] @ R[mu1 * mu2, 2] @ R[mu2, 1]
        rhs = R[mu2, 2] @ R[mu1 * mu2, 1] @ R[mu1, 2]
        out["ybe_residual"] = max(out["ybe_residual"],
                                  local_fnorm(lhs - rhs, H, 0, 3) / local_fnorm(lhs, H, 0, 3))
    return out


def patch_residuals(cat, rho, L, sol, seed, samples=2, projectors=True):
    reps = [bx.verify_braid_relations(cat, rho, L),
            bx.verify_ybe(cat, rho, sol, L=L, samples=samples, seed=seed)]
    if projectors:
        reps.append(bx.verify_projector_algebra(cat, rho, L))
    dims = {rep.params["dim"] for rep in reps}
    assert len(dims) == 1
    return {"dim": dims.pop(), **{c.name: c.residual for rep in reps for c in rep.checks}}


def flip_one_nu(cat, rho):
    """The category with nu_0^{rho rho} negated: a braid whose Reidemeister III
    fails.  (Not every channel breaks it: flipping the spin-1 channel of
    su(2)_4 with rho = 1 leaves Reidemeister III at rounding noise.)"""
    nu = dict(cat.twists.nu)
    nu[0, rho, rho] = -nu[0, rho, rho]
    return cat.replace(twists=cat.twists.replace(nu=nu))


PATCH_CASES = ([("su2", {"k": k}, "1/2", "1", L) for k in (3, 4) for L in range(3, 9)]
               + [(family, params, rho, "1", L)
                  for family, params, rho in (("su2", {"k": 4}, "1"),
                                              ("minimal", {"k": 5}, "1"),
                                              ("ty", {"M": 4}, "X"))
                  for L in range(3, 7)])


@pytest.mark.parametrize("family, params, rho, phi, L", PATCH_CASES)
def test_patch_residuals_match_the_dense_products(family, params, rho, phi, L):
    cat = bx.build_family(family, **params)
    rho, phi = cat.label_id(rho), cat.label_id(phi)
    sol = solved(cat, rho, phi)
    seed = 100 + L
    dense = {**dense_projector_residuals(cat, rho, L),
             **dense_braid_residuals(cat, rho, L, sol, seed)}
    patch = patch_residuals(cat, rho, L, sol, seed)
    assert patch["dim"] == dense["dim"] == bx.enumerate_trees(cat, rho, L, "open_all").size
    assert set(patch) == set(dense)
    for name, want in dense.items():
        assert abs(patch[name] - want) <= 1e-13, (name, patch[name], want)

    # the same norms on broken data: one nu flipped breaks Reidemeister III,
    # random constant amplitudes break the YBE
    broken = flip_one_nu(cat, rho)
    fake = random_solution(cat, rho, phi, seed=seed)
    dense = dense_braid_residuals(broken, rho, L, fake, seed)
    patch = patch_residuals(broken, rho, L, fake, seed, projectors=False)
    for name in ("reidemeister3", "ybe_residual"):
        assert dense[name] > 1e-3
        assert abs(patch[name] - dense[name]) <= 1e-12 * dense[name], name


def test_patch_checks_build_no_basis_on_the_L_strands(monkeypatch):
    real, built = verify_mod.enumerate_trees, []

    def record(cat, rho, L, bc):
        built.append(L)
        return real(cat, rho, L, bc)
    monkeypatch.setattr(verify_mod, "enumerate_trees", record)
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    reps = [bx.verify_projector_algebra(cat, 1, L=20), bx.verify_braid_relations(cat, 1, L=20),
            bx.verify_ybe(cat, 1, sol, L=20, samples=2)]
    assert all(rep.passed and rep.params["dim"] == 57314 for rep in reps)
    assert max(built) <= 3


@pytest.mark.parametrize("check, strands", [
    (lambda cat, sol, L: bx.verify_projector_algebra(cat, 1, L), 2),
    (lambda cat, sol, L: bx.verify_braid_relations(cat, 1, L), 3),
    (lambda cat, sol, L: bx.verify_ybe(cat, 1, sol, L=L), 3),
], ids=["projectors", "braid", "ybe"])
def test_patch_checks_refuse_too_few_or_too_many_strands(check, strands):
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    with pytest.raises(DomainError, match=f"at least {strands} strands, got L = {strands - 1}"):
        check(cat, sol, strands - 1)
    # 1.6^2000 height states: the path counts do not fit in a float
    with pytest.raises(DomainError, match="L = 2000 strands of 1/2: more states than a float holds"):
        check(cat, sol, 2000)
    # the count is capped above the float range, so a huge L is refused at once
    start = time.perf_counter()
    with pytest.raises(DomainError, match="L = 1000000 strands of 1/2: more states than a float"):
        check(cat, sol, 10 ** 6)
    assert time.perf_counter() - start < 1


# each check's patch: the fewest strands on which it is reported
PATCH_STRANDS = {"completeness": 2, "orthogonality": 2, "tl_quadratic": 2, "tl_cubic": 3,
                 "reidemeister2": 3, "reidemeister3": 3, "ybe_residual": 3}


def test_patch_residuals_do_not_depend_on_L():
    # rounding noise on the patch, not on its copies: the same bits at every L
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    seen = {}
    for L in [*range(2, 13), 50, 100]:
        reps = [bx.verify_projector_algebra(cat, 1, L)]
        if L >= 3:
            reps += [bx.verify_braid_relations(cat, 1, L),
                     bx.verify_ybe(cat, 1, sol, L=L, samples=3, seed=5)]
        for rep in reps:
            assert rep.passed, (L, rep.to_dict())
            for c in rep.checks:
                if L >= PATCH_STRANDS[c.name]:
                    seen.setdefault(c.name, set()).add(c.residual)
    assert set(seen) == set(PATCH_STRANDS)
    assert all(len(values) == 1 for values in seen.values()), seen


def scale_one_f(cat, rho, factor=1.3 - 0.4j):
    """The category with one entry of a [F^{h rho rho}_{h'}] block scaled, in
    the identity channel's column: the projectors are built from a block
    that is no longer unitary."""
    blocks = dict(cat.f.blocks)
    key = next(key for key, (us, vs, m) in blocks.items()
               if key[1:3] == (rho, rho) and vs[0] == 0 and len(vs) > 1)
    us, vs, m = blocks[key]
    m = m.copy()
    m[0, 0] *= factor
    blocks[key] = (us, vs, m)
    return cat.replace(f=bx.FSymbolTable(blocks))


@pytest.mark.parametrize("family, params, rho", [
    ("su2", {"k": 3}, "1/2"), ("su2", {"k": 4}, "1"), ("ty", {"M": 4}, "X"),
    ("minimal", {"k": 5}, "1")], ids=["su2_3", "su2_4", "ty_4", "minimal_5"])
def test_every_local_check_fails_on_some_broken_input(family, params, rho):
    # a check that no broken input fails shows nothing about the data
    cat = bx.build_family(family, **params)
    rho = cat.label_id(rho)
    sol = solved(cat, rho, cat.label_id("1"))
    chi = next(c for c in sol.channels if c != sol.reference)

    def reports(cat, sol):
        return [bx.verify_projector_algebra(cat, rho, L=3), bx.verify_braid_relations(cat, rho, L=3),
                *([bx.verify_braid_limits(cat, rho, sol)] if sol else [])]
    clean = [c for rep in reports(cat, sol) for c in rep.checks]
    assert all(c.passed for c in clean)
    failed = {c.name for bad_cat, bad_sol in ((scale_one_f(cat, rho), sol),
                                              (flip_one_nu(cat, rho), None),
                                              (cat, perturb_solution(sol, chi, 1e-6)),
                                              (cat, random_solution(cat, rho, sol.phi, seed=3)))
              for rep in reports(bad_cat, bad_sol) for c in rep.checks if not c.passed}
    assert failed == {c.name for c in clean}


@pytest.mark.parametrize("L", [3, 8, 50, 100])
def test_broken_data_fails_the_patch_checks_at_every_L(L):
    cat = bx.build_su2k(3)
    sol = solved(cat, 1, 2)
    chi = next(c for c in sol.channels if c != sol.reference)
    r3 = bx.verify_braid_relations(flip_one_nu(cat, 1), 1, L).check("reidemeister3")
    assert not r3.passed and r3.residual > 1.0
    for bad, least in ((perturb_solution(sol, chi, 1e-6), 1e-7),
                       (random_solution(cat, 1, 2, seed=13), 1e-2)):
        ybe = bx.verify_ybe(cat, 1, bad, L=L, samples=3, seed=5).check("ybe_residual")
        assert not ybe.passed and ybe.residual > least


# ---------------------------------------------------------------------------
# loop model closed forms


def test_loop_functional_seeded():
    q = cmath.exp(1j * cmath.pi / 5)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        u, u2 = rng.uniform(-1.2, 1.2, size=2) + 1j * rng.uniform(-2, 2, size=2)
        rep = bx.loop_functional_check(q, cmath.exp(u), cmath.exp(u2))
        assert rep.check("functional_equation").residual < 1e-10


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
