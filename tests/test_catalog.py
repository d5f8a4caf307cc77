"""Built-in families: data values, F-symbol identities, mutation controls."""

import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import baxcat as bx
from baxcat.catalog import FAMILIES, _ty_fusion, ty_f_blocks
from baxcat.cli import main
from baxcat.errors import DomainError
from baxcat.sixj import _vertex_sign, racah_sixj, su2_admissible, su2_qdim, su2k_f_blocks
from frows import block_dict, table_of


def test_su2_2_data():
    cat = bx.build_su2k(2)
    assert cat.n_objects == 3
    assert [l.display for l in cat.labels] == ["0", "1/2", "1"]
    assert np.allclose(cat.dims.d, [1, math.sqrt(2), 1], atol=1e-14)
    assert cat.twists.Delta == (Fraction(0), Fraction(3, 16), Fraction(1, 2))


def test_su2_1_fusion():
    cat = bx.build_su2k(1)
    assert cat.n_objects == 2
    assert bx.fusion_product(cat, 1, 1) == [0]


def test_su2_4_d1():
    cat = bx.build_su2k(4)
    # d_1 = 1 + 2 cos(pi/3) = 2
    assert abs(cat.dims.d[2] - 2.0) < 1e-14


def test_su2_nu_values():
    cat = bx.build_su2k(3)
    # nu_a^{bc} = (-1)^{b+c-a}
    assert cat.twists.nu[(0, 1, 1)] == -1
    assert cat.twists.nu[(2, 1, 1)] == 1
    assert cat.twists.nu[(2, 2, 2)] == -1


def test_minimal_A_k2_spins():
    cat = bx.build_minimal_A(2)
    assert cat.twists.Delta[1] == Fraction(1, 16)      # Ising sigma weight
    assert cat.twists.Delta[2] == Fraction(1, 2)
    assert cat.twists.Delta[0] == 0
    assert all(s == 1 for s in cat.twists.nu.values())


def test_minimal_A_shares_fusion_and_dims():
    su2 = bx.build_su2k(3)
    mini = bx.build_minimal_A(3)
    assert np.array_equal(su2.rules.N, mini.rules.N)
    assert np.array_equal(su2.dims.d, mini.dims.d)
    assert block_dict(su2.f).keys() == block_dict(mini.f).keys()
    assert su2.twists.Delta != mini.twists.Delta


def literal_su2_admissible(a, b, c, k):
    """The su(2)_k fusion rule as the Clebsch-Gordan range, truncated at level k."""
    return c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)


@pytest.mark.parametrize("k", range(1, 17))
def test_su2_admissible_reads_alike_on_arrays_and_ints(k):
    A, B, C = np.ogrid[:k + 1, :k + 1, :k + 1]
    arr = su2_admissible(A, B, C, k)
    assert arr.dtype == bool and arr.shape == (k + 1,) * 3
    for a, b, c in itertools.product(range(k + 1), repeat=3):
        scalar = su2_admissible(a, b, c, k)
        assert type(scalar) is bool and scalar == arr[a, b, c] == literal_su2_admissible(a, b, c, k)


def literal_family_data(family, p):
    """(products, nu, dims) of a built-in family: su(2) from the n^3 scan of
    the fusion rule with the closed-form sign and the sine formula, TY from
    `_ty_fusion`."""
    n = p + 1
    labels = range(n)
    if family == "ty":
        fuse = lambda a, b: sorted(_ty_fusion(a, b, p))
        sign = lambda a, b, c: 1
        dims = (1.0,) * p + (math.sqrt(p),)
    else:
        fuse = lambda a, b: [c for c in labels if literal_su2_admissible(a, b, c, p)]
        sign = ((lambda a, b, c: 1) if family == "minimal"
                else (lambda a, b, c: (-1) ** ((b + c - a) // 2)))
        dims = tuple(math.sin((A + 1) * math.pi / (p + 2)) / math.sin(math.pi / (p + 2))
                     for A in labels)
    products = tuple(tuple(tuple(fuse(a, b)) for b in labels) for a in labels)
    nu = {(a, b, c): sign(a, b, c) for a, b, c in itertools.product(labels, repeat=3)
          if a in fuse(b, c)}
    return products, nu, dims


@pytest.mark.parametrize("family, p", [(f, k) for f in ("su2", "minimal") for k in range(1, 13)]
                         + [("ty", M) for M in range(2, 13)])
def test_built_rules_signs_and_dims_match_the_literal_data(family, p):
    cat = bx.build_family(family, **{"M" if family == "ty" else "k": p})
    products, nu, dims = literal_family_data(family, p)
    assert cat.rules.products == products
    assert cat.twists.nu == nu and all(type(s) is int for s in cat.twists.nu.values())
    # equal floats, bit for bit: the dims are exported with 17 digits
    assert [x.hex() for x in cat.dims.values] == [x.hex() for x in dims]


def test_cached_f_arrays_are_read_only():
    # the tables are cached per level and shared, so no caller may edit them
    for cat in (bx.build_su2k(4), bx.build_tambara_yamagami(5)):
        for arr in cat.f.flat:
            with pytest.raises(ValueError):
                arr[0] = 2
    assert bx.build_su2k(4).f is bx.build_minimal_A(4).f


def test_one_f_table_per_level(monkeypatch):
    # every build of a level shares its table, so only the first read
    # flattens the blocks; su(2)_k and A_{k+1} share theirs
    assert bx.build_su2k(6).f is bx.build_minimal_A(6).f is bx.build_su2k(6).f
    assert bx.build_tambara_yamagami(10).f is bx.build_tambara_yamagami(10).f
    assert bx.build_su2k(6).f is not bx.build_su2k(5).f
    for cat in (bx.build_su2k(6), bx.build_tambara_yamagami(10)):
        cat.f.flat
    calls = []
    real = bx.catalog._block_entries
    monkeypatch.setattr(bx.catalog, "_block_entries", lambda b: calls.append(b) or real(b))
    for cat in (bx.build_minimal_A(6), bx.build_su2k(6), bx.build_tambara_yamagami(10)):
        assert cat.f.block_value(0, 0, 0, 0, 0, 0) == 1
        cat.f.flat
    assert calls == []


def test_ty_2_data():
    ty = bx.build_tambara_yamagami(2)
    assert ty.twists.Delta[1] == Fraction(1, 2)
    assert abs(ty.dims.d[2] - math.sqrt(2)) < 1e-14


def test_ty_6_spins():
    ty = bx.build_tambara_yamagami(6)
    expect = (Fraction(0), Fraction(5, 6), Fraction(4, 3), Fraction(3, 2),
              Fraction(4, 3), Fraction(5, 6))
    assert ty.twists.Delta[:6] == expect


def test_ty_duality():
    ty = bx.build_tambara_yamagami(5)
    assert ty.rules.dual == (0, 4, 3, 2, 1, 5)


def test_lie_so5():
    so5 = bx.build_family("so", n=5, k=2)
    assert so5.twists.Delta[1] == Fraction(3, 5)       # Delta_A at n=5, k=2
    assert so5.twists.Delta[2] == Fraction(1)          # Delta_S
    assert so5.twists.nu == {(0, 3, 3): 1, (1, 3, 3): -1, (2, 3, 3): 1}
    assert not so5.representable and so5.baxterisable


def test_lie_sp4():
    sp4 = bx.build_family("sp", m=2, k=1)
    assert sp4.twists.Delta[1] == Fraction(1, 2)       # m/(m+k+1) = 2/4
    assert sp4.twists.Delta[2] == Fraction(3, 4)
    assert sp4.twists.nu[(0, 3, 3)] == -1


def test_lie_g2():
    g2 = bx.build_family("g2", k=1)
    assert g2.twists.Delta[3] == Fraction(14, 15)
    assert g2.rho_declared == 1                        # V is a channel
    assert g2.tp_adjacency == {2: ((0, 2), (2, 3), (3, 1))}


@pytest.mark.parametrize("family, kwargs", [
    ("su2", {"k": 0}), ("minimal", {"k": -1}), ("ty", {"M": 1}),
    ("so", {"n": 2, "k": 2}), ("sp", {"m": 1, "k": 2}), ("g2", {"k": 0}),
])
def test_param_validation(family, kwargs, capsys):
    with pytest.raises(DomainError):
        bx.build_family(family, **kwargs)
    # every registry parameter: its minimum builds, one below it is refused,
    # and leaving its flag off the command line exits 2 naming the flag
    params = FAMILIES[family].params
    least = {p.kwarg: p.minimum for p in params}
    bx.build_family(family, **least)
    for p in params:
        with pytest.raises(DomainError, match=f"parameter {p.kwarg} "):
            bx.build_family(family, **{**least, p.kwarg: p.minimum - 1})
        argv = ["classify", "--family", family]
        for other in params:
            if other is not p:
                argv += [other.flag, str(other.minimum)]
        assert main(argv) == 2
        assert p.flag in capsys.readouterr().err


def test_param_refuses_booleans():
    # bool is an int subclass: True would build level 1 under the name su2_kTrue
    for family, spec in FAMILIES.items():
        least = {p.kwarg: p.minimum for p in spec.params}
        for p, flag in itertools.product(spec.params, (True, False)):
            with pytest.raises(DomainError, match=f"parameter {p.kwarg} .* got {flag}$"):
                bx.build_family(family, **{**least, p.kwarg: flag})
    for build in (bx.build_su2k, bx.build_minimal_A, bx.build_tambara_yamagami):
        with pytest.raises(DomainError, match="got True$"):
            build(True)


def test_unknown_family():
    with pytest.raises(DomainError):
        bx.build_family("e8", k=1)
    with pytest.raises(DomainError, match="'M'"):
        bx.build_family("su2", k=2, M=3)


@pytest.mark.parametrize("build, arg", [
    (bx.build_su2k, 1), (bx.build_su2k, 2), (bx.build_su2k, 3), (bx.build_su2k, 4),
    (bx.build_su2k, 5), (bx.build_minimal_A, 2), (bx.build_minimal_A, 4),
    (bx.build_tambara_yamagami, 2), (bx.build_tambara_yamagami, 3),
    (bx.build_tambara_yamagami, 4), (bx.build_tambara_yamagami, 6),
])
def test_builtin_passes_all_checks(build, arg):
    cat = build(arg)
    assert bx.check_fusion_ring(cat.rules).passed
    dims = bx.compute_quantum_dims(cat.rules)
    assert np.max(np.abs(dims.d - cat.dims.d)) < 1e-10
    rep = bx.check_f_identities(cat, tol=1e-10)
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]


def test_f_identities_k3_residuals():
    rep = bx.check_f_identities(bx.build_su2k(3))
    for c in rep.checks:
        assert c.residual < 1e-10


def test_f_identities_ty4_residuals():
    rep = bx.check_f_identities(bx.build_tambara_yamagami(4))
    for c in rep.checks:
        assert c.residual < 1e-10


def test_f_identities_larger_tables():
    for k in (6, 8, 10):
        assert bx.check_f_identities(bx.build_su2k(k)).passed, k
    assert bx.check_f_identities(bx.build_tambara_yamagami(8)).passed


def literal_projector_symmetry(cat):
    """[([F^{hp hm r}_r]_{chi h}, [F^{hm r r}_{hp}]_{h chi})] for every
    (hm, hp, r, chi, h) where both entries exist; one F lookup per side."""
    fv = cat.f.block_value
    pairs = [(fv(hp, hm, r, r, chi, h), fv(hm, r, r, hp, h, chi))
             for hm, hp, r, chi, h in itertools.product(range(cat.n_objects), repeat=5)]
    return [(a, b) for a, b in pairs if a is not None and b is not None]


def literal_vertex_cancellation(cat):
    """[(sqrt(d_b) [F^{r f b}_r]_{r a}, sqrt(d_a) [F^{r a f}_r]_{r b})] for
    every (r, f, a, b) where both entries exist; one F lookup per side."""
    fv, d = cat.f.block_value, cat.dims.d
    pairs = [(b, a, fv(r, f, b, r, r, a), fv(r, a, f, r, r, b))
             for r, f, a, b in itertools.product(range(cat.n_objects), repeat=4)]
    return [(math.sqrt(d[b]) * x, math.sqrt(d[a]) * y)
            for b, a, x, y in pairs if x is not None and y is not None]


@pytest.mark.parametrize("build, arg", [(bx.build_su2k, k) for k in range(1, 9)]
                         + [(bx.build_tambara_yamagami, M) for M in range(2, 7)])
def test_f_gauge_conventions(build, arg):
    # two sign conventions the operator layer relies on that check_f_identities
    # does not test by name: projector symmetry and vertex cancellation
    cat = build(arg)
    for pairs in (literal_projector_symmetry(cat), literal_vertex_cancellation(cat)):
        assert pairs
        assert max(abs(a - b) for a, b in pairs) < 1e-12


@pytest.mark.parametrize("k", range(1, 9))
def test_su2_gauge_moves_only_signs(k):
    # the keys, us and vs are the admissible labels, and every entry is the
    # Racah-normalised value up to sign, bit for bit
    lab = range(k + 1)
    adm = lambda a, b, c: su2_admissible(a, b, c, k)
    blocks = block_dict(bx.build_su2k(k).f)
    expect = {}
    for x, y, z, w in itertools.product(lab, repeat=4):
        us = tuple(u for u in lab if adm(x, y, u) and adm(u, z, w))
        vs = tuple(v for v in lab if adm(y, z, v) and adm(x, v, w))
        if us and vs:
            expect[(x, y, z, w)] = (us, vs)
    assert {key: (us, vs) for key, (us, vs, _) in blocks.items()} == expect
    for (x, y, z, w), (us, vs, mat) in blocks.items():
        for (i, u), (j, v) in itertools.product(enumerate(us), enumerate(vs)):
            magnitude = math.sqrt(su2_qdim(u, k) * su2_qdim(v, k)) * abs(
                racah_sixj(x, y, u, z, w, v, k))
            assert abs(mat[i, j]) == magnitude and mat[i, j].imag == 0


def scalar_su2k_f_blocks(k):
    """The su(2)_k blocks one entry at a time, with one `racah_sixj` call each."""
    lab = range(k + 1)
    blocks = {}
    for x, y, z, w in itertools.product(lab, repeat=4):
        us = tuple(u for u in lab if su2_admissible(x, y, u, k) and su2_admissible(u, z, w, k))
        vs = tuple(v for v in lab if su2_admissible(y, z, v, k) and su2_admissible(x, v, w, k))
        if not us or not vs:
            continue
        mat = np.zeros((len(us), len(vs)), dtype=complex)
        sgn = (-1) ** ((x + y + z + w) // 2)
        twist = x % 2 & y % 2 & z % 2
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                val = sgn * math.sqrt(su2_qdim(u, k) * su2_qdim(v, k)) * racah_sixj(
                    x, y, u, z, w, v, k)
                flip = (twist + _vertex_sign(x, y, u) + _vertex_sign(u, z, w)
                        + _vertex_sign(y, z, v) + _vertex_sign(x, v, w)) % 2
                mat[i, j] = (-val if flip else val) + 0.0
        mat.setflags(write=False)
        blocks[(x, y, z, w)] = (us, vs, mat)
    return blocks


@pytest.mark.parametrize("k", range(1, 17))
def test_array_racah_table_pickles_as_the_scalar_one(k):
    # same keys, label tuples, order and bits: the pickles are byte-identical
    assert pickle.dumps(su2k_f_blocks(k)) == pickle.dumps(scalar_su2k_f_blocks(k))
    assert all(not mat.flags.writeable for _, _, mat in su2k_f_blocks(k).values())


def scalar_ty_f_blocks(M):
    """The Z_M Tambara-Yamagami blocks one entry at a time."""
    X = M
    omega = np.exp(2j * np.pi / M)
    lab = range(M + 1)
    blocks = {}
    for x, y, z in itertools.product(lab, repeat=3):
        ws = set()
        for u in _ty_fusion(x, y, M):
            ws.update(_ty_fusion(u, z, M))
        for w in sorted(ws):
            us = tuple(u for u in _ty_fusion(x, y, M) if w in _ty_fusion(u, z, M))
            vs = tuple(v for v in _ty_fusion(y, z, M) if w in _ty_fusion(x, v, M))
            if not us or not vs:
                continue
            mat = np.zeros((len(us), len(vs)), dtype=complex)
            for i, u in enumerate(us):
                for j, v in enumerate(vs):
                    if x == X and y == X and z == X:
                        mat[i, j] = omega ** (-u * v) / math.sqrt(M)
                    elif x != X and y == X and z != X:
                        mat[i, j] = omega ** (x * z)
                    elif x == X and y != X and z == X:
                        mat[i, j] = omega ** (y * w)
                    else:
                        mat[i, j] = 1.0
            mat.setflags(write=False)
            blocks[(x, y, z, w)] = (us, vs, mat)
    return blocks


@pytest.mark.parametrize("M", range(2, 13))
def test_array_ty_table_pickles_as_the_scalar_one(M):
    assert pickle.dumps(ty_f_blocks(M)) == pickle.dumps(scalar_ty_f_blocks(M))
    assert all(not mat.flags.writeable for _, _, mat in ty_f_blocks(M).values())


@pytest.mark.parametrize("build, arg", [(bx.build_su2k, k) for k in range(1, 11)]
                         + [(bx.build_tambara_yamagami, M) for M in range(2, 9)])
def test_f_tables_store_no_negative_zero(build, arg):
    # a signed zero prints as "-0" in the category export
    _, vals = build(arg).f.flat
    for part in (vals.real, vals.imag):
        assert not np.any(np.signbit(part) & (part == 0))


def test_f_mutation_breaks_pentagon():
    cat = bx.build_su2k(2)
    blocks = {k: (us, vs, m.copy()) for k, (us, vs, m) in block_dict(cat.f).items()}
    us, vs, m = blocks[(1, 1, 1, 1)]
    m[0, 0] = -m[0, 0]
    mutated = bx.CategoryData(cat.name, cat.labels, cat.twists, rules=cat.rules,
                              dims=cat.dims, f=table_of(blocks))
    rep = bx.check_f_identities(mutated)
    pent = rep.check("pentagon")
    assert pent.residual > 0.1
    assert "worst_tuple" in pent.details


def test_catalog_rows_cover_families():
    rows = bx.catalog_rows()
    assert [r["family"] for r in rows] == list(FAMILIES)
    assert set(FAMILIES) == {"su2", "minimal", "ty", "so", "sp", "g2"}
    so = next(r for r in rows if r["family"] == "so")
    assert so["params"] == "n>=3, k>=1" and not so["representable"]
