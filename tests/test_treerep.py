"""Height bases and the dense operator layer."""

import cmath
import itertools
import sys

import numpy as np
import pytest

import baxcat as bx
from baxcat import treerep
from baxcat.errors import CapabilityError, DomainError, PoleError
from baxcat.treerep import (OPEN_ALL, PERIODIC, braid_op, enumerate_trees,
                            face_weights, open_count, periodic_count, projector_op,
                            r_op, transfer_matrix)


def states(basis):
    """The basis states as height tuples, in basis order."""
    return [tuple(row) for row in basis.heights.tolist()]


def state_index(basis):
    return {s: i for i, s in enumerate(states(basis))}


def literal_enumeration(cat, rho, L, bc):
    """Depth-first search over admissible steps, then a sort: the tuple
    enumeration the height array replaced."""
    n = cat.n_objects
    out = []
    for h0 in range(n):
        stack = [(h0,)]
        while stack:
            seq = stack.pop()
            if len(seq) == L + 1:
                if bc == PERIODIC and seq[-1] != seq[0]:
                    continue
                out.append(seq)
                continue
            for hp in reversed(range(n)):
                if cat.rules.N[rho, seq[-1], hp]:
                    stack.append(seq + (hp,))
    return sorted(out)


def adjacency_matrix(cat, rho):
    n = cat.n_objects
    return np.array([[cat.rules.N[rho, h, hp] for hp in range(n)]
                     for h in range(n)], dtype=float)


def test_enumerate_periodic_count_vs_trace():
    for cat, rho, L in ((bx.build_su2k(2), 1, 4), (bx.build_su2k(3), 1, 6),
                        (bx.build_tambara_yamagami(3), 3, 4)):
        basis = enumerate_trees(cat, rho, L, PERIODIC)
        adj = adjacency_matrix(cat, rho)
        expect = round(np.trace(np.linalg.matrix_power(adj, L)).real)
        assert basis.size == expect
        assert all(s[0] == s[-1] for s in states(basis))


def test_enumerate_open_all_ty():
    ty = bx.build_tambara_yamagami(3)
    basis = enumerate_trees(ty, 3, 2, OPEN_ALL)
    # (a, X, a') for a, a' in Z_3 plus the (X, a, X) boundary states
    assert {s for s in states(basis) if s[1] == 3} == {
        (a, 3, b) for a in range(3) for b in range(3)}
    assert {s for s in states(basis) if s[1] != 3} == {
        (3, a, 3) for a in range(3)}
    assert basis.size == 12


def test_enumerate_empty_periodic():
    ty = bx.build_tambara_yamagami(4)
    # heights alternate group/X, so odd periodic chains are empty
    assert enumerate_trees(ty, 4, 3, PERIODIC).size == 0


def test_enumerate_lexicographic_and_deterministic():
    cat = bx.build_su2k(3)
    b1 = enumerate_trees(cat, 1, 5, OPEN_ALL)
    b2 = enumerate_trees(cat, 1, 5, OPEN_ALL)
    assert states(b1) == sorted(states(b1))
    assert np.array_equal(b1.heights, b2.heights)
    assert not b1.heights.flags.writeable


@pytest.mark.parametrize("cat, rho", [
    (bx.build_su2k(3), 1), (bx.build_su2k(4), 2), (bx.build_minimal_A(5), 1),
    (bx.build_tambara_yamagami(3), 3)], ids=["su2_3", "su2_4-spin1", "minimal_5", "ty_3-X"])
def test_enumeration_matches_the_literal_search(cat, rho):
    empty = set()
    for L in range(7):
        for bc in (OPEN_ALL, PERIODIC):
            basis = enumerate_trees(cat, rho, L, bc)
            want = literal_enumeration(cat, rho, L, bc)
            assert basis.heights.shape == (len(want), L + 1)
            assert states(basis) == want                    # row order included
            if bc == PERIODIC:
                assert periodic_count(cat, rho, L) == len(want)
            if not want:
                empty.add((bc, L % 2))
    if not np.trace(adjacency_matrix(cat, rho)):
        assert (PERIODIC, 1) in empty           # a bipartite rho: odd periodic chains


@pytest.mark.parametrize("cat, rho", [
    (bx.build_su2k(3), 1), (bx.build_su2k(4), 2), (bx.build_minimal_A(5), 1),
    (bx.build_tambara_yamagami(3), 3)], ids=["su2_3", "su2_4-spin1", "minimal_5", "ty_3-X"])
def test_path_counts_count_the_open_basis(cat, rho):
    # the counts reached by L steps of the path vector, exact ints up to the cap
    step = adjacency_matrix(cat, rho).astype(int).astype(object)
    into = [np.ones(cat.n_objects, dtype=object)]
    for _ in range(2000):
        into.append(into[-1] @ step)
    for L in range(8):
        H = enumerate_trees(cat, rho, L, OPEN_ALL).heights
        assert open_count(cat, rho, L) == sum(into[L]) == len(H)
    # the cap lies past the float range: counts below it stay exact, counts above read as it
    assert treerep.COUNT_CAP > sys.float_info.max
    over = next(L for L, v in enumerate(into) if sum(v) > treerep.COUNT_CAP)
    for L in (over - 1, over, 2000):
        count = open_count(cat, rho, L)
        assert type(count) is int and count == min(sum(into[L]), treerep.COUNT_CAP)
    for L in range(12):
        want = np.linalg.matrix_power(step, L).trace()
        assert periodic_count(cat, rho, L) == want
    assert periodic_count(cat, rho, 10 ** 6) == treerep.COUNT_CAP


def test_periodic_enumeration_keeps_only_closable_prefixes():
    # 1.4e9 open sequences of 41 steps, none of them periodic: the basis is
    # built without holding them
    cat = bx.build_su2k(3)
    assert enumerate_trees(cat, 1, 41, PERIODIC).heights.shape == (0, 42)


def test_enumerate_requires_rules():
    so5 = bx.build_family("so", n=5, k=2)
    for count in (lambda: enumerate_trees(so5, 3, 4, OPEN_ALL),
                  lambda: open_count(so5, 3, 4), lambda: periodic_count(so5, 3, 4)):
        with pytest.raises(CapabilityError):
            count()


def test_projector_completeness_and_projalg():
    for cat, rho in ((bx.build_su2k(2), 1), (bx.build_su2k(4), 1),
                     (bx.build_tambara_yamagami(3), 3)):
        basis = enumerate_trees(cat, rho, 4, OPEN_ALL)
        chans = bx.fusion_product(cat, rho, rho)
        for j in basis.site_range():
            mats = [projector_op(cat, rho, c, j, basis).matrix for c in chans]
            assert np.max(np.abs(sum(mats) - np.eye(basis.size))) < 1e-12
            for m1, m2 in itertools.combinations(mats, 2):
                assert np.max(np.abs(m1 @ m2)) < 1e-12
            for m in mats:
                assert np.max(np.abs(m @ m - m)) < 1e-12
                assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_projector_matches_literal_f_product_self_dual():
    # in the self-dual gauge the unitary form equals the printed two-F product
    cat = bx.build_su2k(3)
    rho = 1
    basis = enumerate_trees(cat, rho, 4, OPEN_ALL)
    fb = cat.f.block_value
    index = state_index(basis)
    for chi in (0, 2):
        P = projector_op(cat, rho, chi, 2, basis).matrix
        Q = np.zeros_like(P)
        for s in index:
            hm, hj, hp = s[1], s[2], s[3]
            f1 = fb(hm, rho, rho, hp, hj, chi)
            if f1 is None:
                continue
            for hjp in cat.rules.fusion(hm, rho):
                f2 = fb(hp, hm, rho, rho, chi, hjp)   # F_{chi h'}[h- rho; h+ rho]
                if f2 is None:
                    continue
                s2 = s[:2] + (hjp,) + s[3:]
                if s2 in index:
                    Q[index[s2], index[s]] += f1 * f2
        assert np.max(np.abs(P - Q)) < 1e-12


def test_temperley_lieb():
    for k in (2, 3, 4):
        cat = bx.build_su2k(k)
        basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
        d = cat.dims[1]
        e = {j: d * projector_op(cat, 1, 0, j, basis).matrix
             for j in basis.site_range()}
        for j in e:
            assert np.max(np.abs(e[j] @ e[j] - d * e[j])) < 1e-12
        for j in list(e)[:-1]:
            assert np.max(np.abs(e[j] @ e[j + 1] @ e[j] - e[j])) < 1e-12
            assert np.max(np.abs(e[j + 1] @ e[j] @ e[j + 1] - e[j + 1])) < 1e-12


def test_projector_domain_errors():
    cat = bx.build_su2k(2)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    with pytest.raises(DomainError):
        projector_op(cat, 1, 1, 2, basis)      # 1/2 not a channel of 1/2 x 1/2
    with pytest.raises(DomainError):
        projector_op(cat, 1, 0, 4, basis)      # open basis: sites are 1..3


def test_braid_inverse_and_r3():
    cat = bx.build_su2k(3)
    basis = enumerate_trees(cat, 1, 5, OPEN_ALL)
    eye = np.eye(basis.size)
    B = {j: braid_op(cat, 1, j, "over", basis).matrix for j in basis.site_range()}
    Bb = {j: braid_op(cat, 1, j, "under", basis).matrix for j in basis.site_range()}
    for j in B:
        assert np.max(np.abs(B[j] @ Bb[j] - eye)) < 1e-12
    for j in (1, 2, 3):
        lhs = B[j] @ B[j + 1] @ B[j]
        rhs = B[j + 1] @ B[j] @ B[j + 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_braid_matches_loop_skein_up_to_phase():
    # one braid sense equals q^{-1/2} d P0 - q^{1/2} (P0 + P1) up to a phase
    for k in (2, 3, 4):
        cat = bx.build_su2k(k)
        basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
        q = cmath.exp(1j * cmath.pi / (k + 2))
        P0 = projector_op(cat, 1, 0, 2, basis).matrix
        P1 = projector_op(cat, 1, 2, 2, basis).matrix
        target = q ** -0.5 * cat.dims[1] * P0 - q ** 0.5 * (P0 + P1)
        matched = []
        for sense in ("over", "under"):
            Bm = braid_op(cat, 1, 2, sense, basis).matrix
            coef = np.vdot(target, Bm) / np.vdot(target, target)
            if np.linalg.norm(Bm - coef * target) < 1e-9:
                assert abs(abs(coef) - 1.0) < 1e-12
                matched.append(sense)
        assert matched, f"no braid sense matches the loop skein at k={k}"


def test_r_op_identity_at_mu_one():
    cat = bx.build_su2k(3)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    R = r_op(sol, 1.0, 2, basis).matrix
    assert np.max(np.abs(R - np.eye(basis.size))) < 1e-12


def test_r_op_is_amplitude_weighted_projector_sum():
    cat = bx.build_su2k(2)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    q2 = 1j                                   # q^2 at k=2
    mu = 2.0
    P0 = projector_op(cat, 1, 0, 2, basis).matrix
    P1 = projector_op(cat, 1, 2, 2, basis).matrix
    ratio = (1 - mu * q2) / (mu - q2)         # A_0/A_1
    R = r_op(sol, mu, 2, basis).matrix
    a1 = bx.amplitude_at(sol, 2, mu)
    assert np.max(np.abs(R - a1 * (ratio * P0 + P1))) < 1e-12


def test_r_op_limits_match_braid():
    cat = bx.build_su2k(3)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    senses = {}
    for mu, tag in ((1e8, "large"), (1e-8, "small")):
        R = r_op(sol, mu, 2, basis).matrix
        for sense in ("over", "under"):
            Bm = braid_op(cat, 1, 2, sense, basis).matrix
            coef = np.vdot(Bm, R) / np.vdot(Bm, Bm)
            if np.linalg.norm(R - coef * Bm) / np.linalg.norm(R) < 1e-6:
                senses[tag] = sense
    assert set(senses.values()) == {"over", "under"}


def test_r_op_pole():
    cat = bx.build_su2k(2)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 3, OPEN_ALL)
    pole = sol.funcs[2].poles()[0]
    with pytest.raises(PoleError):
        r_op(sol, pole, 1, basis)


def test_transfer_identity_and_commutation():
    cat = bx.build_su2k(3)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 4, PERIODIC)
    T1 = transfer_matrix(sol, 1.0, basis).matrix
    assert np.max(np.abs(T1 - np.eye(basis.size))) < 1e-12
    ta = transfer_matrix(sol, 1.3 + 0.4j, basis).matrix
    tb = transfer_matrix(sol, 0.6 - 0.9j, basis).matrix
    num = np.linalg.norm(ta @ tb - tb @ ta)
    assert num / (np.linalg.norm(ta) * np.linalg.norm(tb)) < 1e-8


def test_transfer_trace_vs_state_sum():
    # independent oracle at L=2: explicit sum over periodic height rows
    cat = bx.build_su2k(2)
    rho = 1
    sol = bx.solve_central(cat, rho, 2)
    basis = enumerate_trees(cat, rho, 2, PERIODIC)
    mu = 1.7 + 0.3j
    T = transfer_matrix(sol, mu, basis).matrix
    fb = cat.f.block_value
    amps = {c: bx.amplitude_at(sol, c, mu) for c in sol.channels}

    def diamond(lm, m, rp, mp):
        tot = 0j
        for c, a in amps.items():
            f1 = fb(lm, rho, rho, rp, m, c)
            f2 = fb(lm, rho, rho, rp, mp, c)
            if f1 is not None and f2 is not None:
                tot += a * f2 * np.conj(f1)
        return tot

    total = 0j
    n = cat.n_objects
    for h0, h1 in itertools.product(range(n), repeat=2):
        if not (cat.rules.N[rho, h0, h1] and cat.rules.N[rho, h1, h0]):
            continue
        # one helical row returning to the same configuration
        total += diamond(h1, h0, h1, h0) * diamond(h0, h1, h0, h1)
    assert abs(np.trace(T) - total) < 1e-12


def test_transfer_requires_periodic():
    cat = bx.build_su2k(2)
    sol = bx.solve_central(cat, 1, 2)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    with pytest.raises(DomainError):
        transfer_matrix(sol, 1.5, basis)


def test_operator_matrices_bit_identical_across_builds():
    def build():
        cat = bx.build_su2k(3)
        basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
        return projector_op(cat, 1, 0, 2, basis).matrix
    assert np.array_equal(build(), build())


def test_block_preservation_open_all():
    cat = bx.build_su2k(3)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    P = projector_op(cat, 1, 0, 2, basis).matrix
    for i1, s1 in enumerate(states(basis)):
        for i2, s2 in enumerate(states(basis)):
            if (s1[0], s1[-1]) != (s2[0], s2[-1]):
                assert P[i2, i1] == 0


# The literal state-by-state loops of the scalar operator layer, kept as
# oracles for the face-table gathers.


def literal_projector(cat, rho, chi, j, basis):
    """P[row, col] accumulated from scalar F lookups, one input state at a time."""
    n = basis.size
    P = np.zeros((n, n), dtype=complex)
    fb = cat.f.block_value
    seam = basis.bc == PERIODIC and j == basis.L
    index = state_index(basis)
    for s in index:
        hm, hj, hp = s[j - 1], s[j], s[1 if seam else j + 1]
        f1 = fb(hm, rho, rho, hp, hj, chi)
        if f1 is None:
            continue
        for hjp in cat.rules.fusion(hm, rho):
            f2 = fb(hm, rho, rho, hp, hjp, chi)
            if f2 is None:
                continue
            s2 = list(s)
            s2[j] = hjp
            if seam:
                s2[0] = hjp
            row = index.get(tuple(s2))
            if row is not None:
                P[row, index[s]] += f2 * np.conj(f1)
    return P


def literal_transfer(sol, mu, basis):
    """T[row, col] as the product of helical diamond weights, pair by pair."""
    cat, rho, L = sol.cat, sol.rho, basis.L
    fb = cat.f.block_value
    amps = [(chi, bx.amplitude_at(sol, chi, mu)) for chi in sol.channels]
    diamonds = {}

    def diamond(lm, m, rp, mp):
        if (lm, m, rp, mp) not in diamonds:
            val = 0j
            for chi, a in amps:
                f_in = fb(lm, rho, rho, rp, m, chi)
                f_out = fb(lm, rho, rho, rp, mp, chi)
                if f_in is not None and f_out is not None:
                    val += a * f_out * np.conj(f_in)
            diamonds[(lm, m, rp, mp)] = val
        return diamonds[(lm, m, rp, mp)]

    T = np.zeros((basis.size, basis.size), dtype=complex)
    for col, s in enumerate(states(basis)):
        h = s[:-1]
        for row, s2 in enumerate(states(basis)):
            hp = s2[:-1]
            w = 1.0 + 0j
            for j in range(L):
                w *= diamond(hp[j - 1], h[j], h[(j + 1) % L], hp[j])
            T[row, col] = w
    return T


@pytest.mark.parametrize("cat, rho, L", [
    (bx.build_su2k(3), 1, 6), (bx.build_su2k(4), 2, 4),
    (bx.build_tambara_yamagami(3), 3, 4), (bx.build_minimal_A(5), 1, 4)],
    ids=["su2_3", "su2_4-spin1", "ty_3-X", "minimal_5"])
def test_projector_matches_literal_loop_periodic(cat, rho, L):
    basis = enumerate_trees(cat, rho, L, PERIODIC)
    assert basis.size > 0 and L in basis.site_range()     # the seam is covered
    for j in basis.site_range():
        for chi in bx.fusion_product(cat, rho, rho):
            P = projector_op(cat, rho, chi, j, basis).matrix
            assert np.max(np.abs(P - literal_projector(cat, rho, chi, j, basis))) < 1e-13


@pytest.mark.parametrize("cat, rho, phi, L", [
    (bx.build_su2k(3), 1, 2, 4), (bx.build_su2k(3), 1, 2, 6), (bx.build_su2k(3), 1, 2, 8),
    (bx.build_minimal_A(5), 1, 2, 6), (bx.build_tambara_yamagami(4), 4, 1, 4)],
    ids=["su2_3-L4", "su2_3-L6", "su2_3-L8", "minimal_5-L6", "ty_4-X-L4"])
def test_transfer_matches_literal_loop(cat, rho, phi, L):
    sol = bx.solve_central(cat, rho, phi)
    basis = enumerate_trees(cat, rho, L, PERIODIC)
    assert basis.size > 0
    for mu in (1.3 + 0.4j, 0.6 - 0.9j):
        T = transfer_matrix(sol, mu, basis).matrix
        oracle = literal_transfer(sol, mu, basis)
        # entries reach 5e5 at L = 8, so the bound scales with the largest one
        assert np.max(np.abs(T - oracle)) < 1e-13 * max(1.0, np.max(np.abs(oracle)))


def test_r_and_braid_are_weighted_projector_sums_three_channels():
    cat = bx.build_su2k(4)
    rho = 2                                   # spin 1: channels 0, 1 and 2
    chans = bx.fusion_product(cat, rho, rho)
    assert len(chans) == 3
    sol = bx.solve_central(cat, rho, 2)
    basis = enumerate_trees(cat, rho, 4, OPEN_ALL)
    for j in basis.site_range():
        P = {c: projector_op(cat, rho, c, j, basis).matrix for c in chans}
        tw = {c: bx.twist_factor(cat, c, rho, rho) for c in chans}
        over = sum(tw[c] * P[c] for c in chans)
        under = sum(P[c] / tw[c] for c in chans)
        assert np.max(np.abs(braid_op(cat, rho, j, "over", basis).matrix - over)) < 1e-13
        assert np.max(np.abs(braid_op(cat, rho, j, "under", basis).matrix - under)) < 1e-13
        for mu in (2.0, 0.4 + 1.1j):
            R = sum(bx.amplitude_at(sol, c, mu) * P[c] for c in chans)
            assert np.max(np.abs(r_op(sol, mu, j, basis).matrix - R)) < 1e-13


def test_operators_refuse_a_foreign_strand():
    # the face table belongs to the basis strand; another rho would read wrong blocks
    cat = bx.build_su2k(4)
    basis = enumerate_trees(cat, 1, 4, OPEN_ALL)
    with pytest.raises(DomainError, match="differs from the basis strand"):
        projector_op(cat, 2, 0, 1, basis)
    with pytest.raises(DomainError, match="differs from the basis strand"):
        braid_op(cat, 2, 1, "over", basis)
    with pytest.raises(DomainError, match="differs from the basis strand"):
        r_op(bx.solve_central(cat, 2, 2), 2.0, 1, basis)


def test_site_op_gathers_the_face_weight_on_pairs_that_agree_off_the_site():
    cat = bx.build_su2k(5)
    rho = 2
    sol = bx.solve_central(cat, rho, 2)
    for basis, j in ((enumerate_trees(cat, rho, 4, OPEN_ALL), 2),
                     (enumerate_trees(cat, rho, 4, PERIODIC), 4)):
        got = r_op(sol, 1.3 + 0.2j, j, basis).matrix
        # the state pairs that agree off site j (and off h_0 = h_L at the seam)
        seam = basis.bc == PERIODIC and j == basis.L
        rest = np.delete(basis.heights, [0, j] if seam else [j], axis=1)
        cls = np.unique(rest, axis=0, return_inverse=True)[1].reshape(-1)
        r, c = np.nonzero(cls[:, None] == cls)
        amps = {chi: bx.amplitude_at(sol, chi, 1.3 + 0.2j) for chi in sol.channels}
        W = face_weights(basis, rho, amps)
        H = basis.heights
        want = np.zeros_like(got)
        want[r, c] = W[H[c, j - 1], H[c, 1 if seam else j + 1], H[r, j], H[c, j]]
        assert np.max(np.abs(got - want)) <= 1e-15


def test_dense_operators_refuse_a_basis_over_the_budget(monkeypatch):
    cat = bx.build_su2k(3)
    basis = enumerate_trees(cat, 1, 6, PERIODIC)
    sol = bx.solve_central(cat, 1, 2)
    monkeypatch.setattr(treerep, "MAX_DENSE_DIM", basis.size - 1)
    for build in (lambda: r_op(sol, 2.0, 1, basis), lambda: transfer_matrix(sol, 2.0, basis),
                  lambda: projector_op(cat, 1, 0, 1, basis)):
        with pytest.raises(DomainError, match=f"dimension {basis.size} exceeds .* {basis.size - 1}"):
            build()
    monkeypatch.setattr(treerep, "MAX_DENSE_DIM", basis.size)
    assert transfer_matrix(sol, 2.0, basis).matrix.shape[0] == basis.size
