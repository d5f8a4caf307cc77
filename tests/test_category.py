"""Axioms, dimensions, twists and the JSON round trip."""

import cmath
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import baxcat as bx
from baxcat.category import (FusionRules, _f0_residual, _pentagon_residual, _phase,
                             _unitarity_residual, _usefulid_residual)
from baxcat.report import fmt_complex
from baxcat.errors import AxiomError, CapabilityError, DomainError
from frows import block_dict, table_of


def _rules(N, dual):
    """The fusion rules with N_{ab}^c = N[a, b, c] for a 0/1 array N."""
    return FusionRules.from_triples(len(N), np.argwhere(N).tolist(), dual)


def _single_object_rules():
    N = np.zeros((1, 1, 1), dtype=np.uint8)
    N[0, 0, 0] = 1
    return _rules(N, (0,))


def test_fusion_product_su2():
    cat = bx.build_su2k(2)
    assert bx.fusion_product(cat, 1, 1) == [0, 2]          # 1/2 x 1/2 = 0 + 1
    cat1 = bx.build_su2k(1)
    assert bx.fusion_product(cat1, 1, 1) == [0]            # k=1 truncation


def test_fusion_product_identity_and_ty():
    ty = bx.build_tambara_yamagami(3)
    for a in range(ty.n_objects):
        assert bx.fusion_product(ty, 0, a) == [a]
    assert bx.fusion_product(ty, 3, 3) == [0, 1, 2]        # X x X = sum of a
    assert bx.fusion_product(ty, 3, 1) == [3]              # X absorbs group labels


def test_fusion_product_invalid_label():
    cat = bx.build_su2k(2)
    with pytest.raises(DomainError):
        bx.fusion_product(cat, 0, 7)
    with pytest.raises(DomainError):
        bx.fusion_product(cat, -1, 0)


def test_quantum_dims_su2_2_against_sin_formula():
    cat = bx.build_su2k(2)
    dims = bx.compute_quantum_dims(cat.rules)
    # oracle: d_s = sin((2s+1)pi/(k+2)) / sin(pi/(k+2)) at k=2
    s0 = math.sin(math.pi / 4)
    expect = [math.sin((A + 1) * math.pi / 4) / s0 for A in range(3)]
    assert np.allclose(dims.d, expect, atol=1e-12)
    assert np.allclose(dims.d, [1.0, math.sqrt(2), 1.0], atol=1e-12)
    assert dims.d[0] == 1.0


@pytest.mark.parametrize("M", range(2, 9))
def test_quantum_dims_ty_perron_oracle(M):
    ty = bx.build_tambara_yamagami(M)
    dims = bx.compute_quantum_dims(ty.rules)
    # independent Perron oracle: shifted power iteration on the fusion matrix
    # of X (shift kills the bipartite +-lambda oscillation)
    mat = ty.rules.nhat(M) + np.eye(M + 1)
    v = np.ones(M + 1)
    for _ in range(200):
        v = mat @ v
        v /= np.linalg.norm(v)
    perron = float(v @ mat @ v) - 1.0
    assert abs(dims.d[M] - perron) < 1e-9
    assert abs(dims.d[M] - math.sqrt(M)) < 1e-10
    assert np.allclose(dims.d[:M], 1.0, atol=1e-12)


def test_quantum_dims_trivial_category():
    dims = bx.compute_quantum_dims(_single_object_rules())
    assert dims.d.tolist() == [1.0]


@pytest.mark.parametrize("build, arg", [
    (bx.build_su2k, 2), (bx.build_su2k, 5), (bx.build_minimal_A, 3),
    (bx.build_tambara_yamagami, 4), (bx.build_tambara_yamagami, 7),
])
def test_dabc_residual(build, arg):
    cat = build(arg)
    d = cat.dims.d
    N = cat.rules.N
    worst = 0.0
    for a, b in itertools.product(range(cat.n_objects), repeat=2):
        worst = max(worst, abs(d[a] * d[b] - sum(N[a, b, c] * d[c]
                                                 for c in range(cat.n_objects))))
    assert worst < 1e-10


def test_check_fusion_ring_su2_4():
    rep = bx.check_fusion_ring(bx.build_su2k(4).rules)
    assert rep.passed


def test_check_fusion_ring_single_object():
    assert bx.check_fusion_ring(_single_object_rules()).passed


def _first_nonassociative(N):
    """Reference: the first (a, b, c, d) in product order with
    sum_x N_ab^x N_xc^d != sum_y N_bc^y N_ay^d."""
    n = len(N)
    Ni = N.astype(np.int64)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if int(np.dot(Ni[a, b], Ni[:, c, d])) != int(np.dot(Ni[b, c], Ni[a, :, d])):
            return [a, b, c, d]
    return None


def _first_nonunital(N):
    """Reference: the first (a, b) with N_{a0}^b or N_{0a}^b != delta_ab."""
    for a, b in itertools.product(range(len(N)), repeat=2):
        if N[a, 0, b] != (1 if a == b else 0) or N[0, a, b] != (1 if a == b else 0):
            return [a, b]
    return None


def _first_noncommuting(N):
    """Reference: the first (a, b, c) with N_ab^c != N_ba^c."""
    for a, b, c in itertools.product(range(len(N)), repeat=3):
        if N[a, b, c] != N[b, a, c]:
            return [a, b, c]
    return None


def _first_nondual(N, dual):
    """Reference: the first (a, b) with N_ab^0 != delta_{b, abar}."""
    for a, b in itertools.product(range(len(N)), repeat=2):
        if N[a, b, 0] != (1 if b == dual[a] else 0):
            return [a, b]
    return None


def test_check_fusion_ring_mutated():
    cat = bx.build_su2k(2)
    N = cat.rules.N.copy()
    N[2, 2, 2] = 1                      # k=2 forbids 1 x 1 -> 1
    bad = _rules(N, cat.rules.dual)
    rep = bx.check_fusion_ring(bad)
    check = rep.check("associativity")
    assert not check.passed
    assert check.details["counterexample"] == _first_nonassociative(N)
    with pytest.raises(AxiomError):
        bx.compute_quantum_dims(bad)
    # the same first counterexample as the reference loop on seeded corruptions
    rules = bx.build_su2k(5).rules
    rng = np.random.default_rng(3)
    for _ in range(10):
        N = rules.N.copy()
        N[tuple(rng.integers(0, rules.n_objects, 3))] ^= 1
        check = bx.check_fusion_ring(_rules(N, rules.dual)).check(
            "associativity")
        assert check.details.get("counterexample") == _first_nonassociative(N)
    # corruptions aimed at each of the other axioms, against their reference loops
    n = rules.n_objects
    oracles = {"identity": _first_nonunital, "commutativity": _first_noncommuting,
               "duality": lambda N: _first_nondual(N, rules.dual),
               "associativity": _first_nonassociative}
    for target in ("identity", "commutativity", "duality"):
        for _ in range(6):
            N = rules.N.copy()
            a, b, c = (int(i) for i in rng.integers(0, n, 3))
            if target == "identity":
                N[a, 0, b] ^= 1
            elif target == "commutativity":
                N[a, (a + 1 + b % (n - 1)) % n, c] ^= 1     # a != second index
            else:
                N[a, b, 0] ^= 1
            rep = bx.check_fusion_ring(_rules(N, rules.dual))
            assert not rep.check(target).passed
            for name, oracle in oracles.items():
                assert rep.check(name).details.get("counterexample") == oracle(N), name


def test_twist_factor_su2_2():
    cat = bx.build_su2k(2)
    # Delta_{1/2} = 3/16, nu_0^{half half} = -1
    assert cat.twists.Delta[1] == Fraction(3, 16)
    got = bx.twist_factor(cat, 0, 1, 1)
    assert abs(got - (-cmath.exp(3j * cmath.pi / 8))) < 1e-14


def test_twist_factor_identity_triple():
    for cat in (bx.build_su2k(3), bx.build_tambara_yamagami(4)):
        for a in range(cat.n_objects):
            assert abs(bx.twist_factor(cat, a, a, 0) - 1.0) < 1e-14


def test_twist_factor_ty4():
    ty = bx.build_tambara_yamagami(4)
    # Omega_X^{X 1} with h_1 = 3/4, nu = 1
    got = bx.twist_factor(ty, 4, 4, 1)
    assert abs(got - cmath.exp(3j * cmath.pi / 4)) < 1e-14


def test_twist_factor_unimodular_everywhere():
    for cat in (bx.build_su2k(4), bx.build_minimal_A(3), bx.build_tambara_yamagami(5)):
        for (a, b, c) in cat.twists.nu:
            assert abs(abs(bx.twist_factor(cat, a, b, c)) - 1.0) < 1e-14


def test_twist_factor_inadmissible():
    cat = bx.build_su2k(2)
    with pytest.raises(DomainError):
        bx.twist_factor(cat, 1, 0, 0)   # 1/2 not in 0 x 0


def test_twist_edge_ratio_su2():
    for k in range(2, 7):
        cat = bx.build_su2k(k)
        q = cmath.exp(1j * cmath.pi / (k + 2))
        got = bx.twist_edge_ratio(cat, 1, 2, 0)    # rho=1/2, (a,b) = (1,0)
        assert abs(got - (-q ** -2)) < 1e-13


def test_twist_edge_ratio_equal_channels():
    cat = bx.build_su2k(4)
    assert bx.twist_edge_ratio(cat, 1, 2, 2) == 1.0


def test_twist_edge_ratio_so5():
    for k in (1, 2, 4):
        so5 = bx.build_family("so", n=5, k=k)
        q = cmath.exp(1j * cmath.pi / (k + 3))
        got = bx.twist_edge_ratio(so5, 3, 1, 0)    # rho=V, (a,b) = (A, 0)
        assert abs(got - (-q ** -3)) < 1e-13


def test_twist_edge_ratio_reciprocal():
    for cat, rho in ((bx.build_su2k(4), 2), (bx.build_tambara_yamagami(5), 5),
                     (bx.build_family("sp", m=2, k=3), 3)):
        chans = (bx.fusion_product(cat, rho, rho) if cat.rules is not None
                 else list(cat.channels))
        for a, b in itertools.product(chans, repeat=2):
            prod = (bx.twist_edge_ratio(cat, rho, a, b)
                    * bx.twist_edge_ratio(cat, rho, b, a))
            assert abs(prod - 1.0) < 1e-13


def test_twist_edge_ratio_missing_nu():
    so5 = bx.build_family("so", n=5, k=2)
    with pytest.raises(DomainError):
        bx.twist_edge_ratio(so5, 3, 3, 0)          # V is not a channel


def test_spin_not_declared():
    so5 = bx.build_family("so", n=5, k=2)
    with pytest.raises(CapabilityError):
        so5.twists.spin(3)


def test_phase_exactness():
    assert _phase(Fraction(1, 2)) == pytest.approx(1j)
    assert abs(_phase(Fraction(7, 2)) - -1j) < 1e-15
    assert _phase(Fraction(0)) == 1.0


def test_capability_flags():
    su2 = bx.build_su2k(2)
    assert su2.baxterisable and su2.representable
    so5 = bx.build_family("so", n=5, k=2)
    assert so5.baxterisable and not so5.representable


def test_check_f_identities_requires_f():
    so5 = bx.build_family("so", n=5, k=2)
    with pytest.raises(CapabilityError):
        bx.check_f_identities(so5)


@pytest.mark.parametrize("build, arg", [
    (bx.build_su2k, 1), (bx.build_su2k, 3), (bx.build_minimal_A, 2),
    (bx.build_tambara_yamagami, 2), (bx.build_tambara_yamagami, 4),
])
def test_json_round_trip(build, arg):
    cat = build(arg)
    text = bx.category_to_json(cat)
    cat2 = bx.category_from_json(text)
    assert [l.display for l in cat2.labels] == [l.display for l in cat.labels]
    assert cat2.twists.Delta == cat.twists.Delta          # exact rationals
    assert cat2.twists.nu == cat.twists.nu
    assert cat2.rules.dual == cat.rules.dual
    assert np.array_equal(cat2.rules.N, cat.rules.N)
    blocks2 = block_dict(cat2.f)
    for key, (us, vs, mat) in block_dict(cat.f).items():
        us2, vs2, mat2 = blocks2[key]
        assert us2 == tuple(us) and vs2 == tuple(vs)
        assert np.array_equal(mat2, mat)                  # bit-stable floats
    # second serialisation is byte-identical
    assert bx.category_to_json(cat2) == text


def test_json_round_trip_twist_only():
    so6 = bx.build_family("so", n=6, k=3)
    text = bx.category_to_json(so6)
    cat2 = bx.category_from_json(text)
    assert cat2.channels == so6.channels
    assert cat2.tp_adjacency == so6.tp_adjacency
    assert cat2.rho_declared == so6.rho_declared
    assert cat2.twists.Delta == so6.twists.Delta
    assert cat2.notes == so6.notes and so6.notes
    assert bx.category_to_json(cat2) == text


_WRITER_CASES = ([bx.build_family(family, **params) for family, params in (
    ("su2", {"k": 4}), ("minimal", {"k": 3}), ("ty", {"M": 5}), ("so", {"n": 5, "k": 2}),
    ("sp", {"m": 2, "k": 3}), ("g2", {"k": 2}))]
    + [bx.build_su2k(22).replace(f=None),        # F-less, as lib sessions read it
       bx.build_su2k(2).replace(notes=("a note", 'with "quotes" and \u00e9'))])


@pytest.mark.parametrize("cat", _WRITER_CASES, ids=lambda c: c.name)
def test_writer_is_json_dumps_with_indent_1(cat):
    # the F rows come from one row template; the document must read as
    # json.dumps(doc, indent=1) writes it, with fmt_complex's digits in each row
    for copy in (cat, bx.category_from_json(bx.category_to_json(cat))):
        text = bx.category_to_json(copy)
        doc = json.loads(text)
        assert json.dumps(doc, indent=1) == text
        if copy.f is not None:
            keys, vals = copy.f.flat
            assert doc["F"] == [[*row, fmt_complex(val)] for row, val in
                                zip(bx.category.f_labels(keys[:-1]).tolist(), vals[:-1].tolist())]


def test_writer_keeps_signed_zeros_and_extreme_values():
    f = table_of({(0, 0, 0, 0): ((0, 1), (0, 1), np.array(
        [[-0.0 - 0j, 1e-310 + 1e308j], [-2.5e-5 + 0.1j, complex(1 / 3, -0.0)]]))})
    cat = bx.build_su2k(1).replace(f=f)
    text = bx.category_to_json(cat)
    assert json.dumps(json.loads(text), indent=1) == text
    assert [row[6] for row in json.loads(text)["F"]] == [
        fmt_complex(z) for z in block_dict(f)[(0, 0, 0, 0)][2].ravel()]


def _edited(edit):
    doc = json.loads(bx.category_to_json(bx.build_su2k(2)))
    edit(doc)
    return json.dumps(doc)


def _set(key, i, val):
    def edit(doc):
        doc[key][i] = val
    return edit


@pytest.mark.parametrize("edit, where, error", [(*case, DomainError) for case in [
    (lambda doc: doc.pop("labels"), "'labels'"),
    (lambda doc: doc.pop("name"), "'name'"),
    (lambda doc: doc.pop("Delta"), "'Delta'"),
    (lambda doc: doc.pop("nu"), "'nu'"),
    (lambda doc: doc.pop("dual"), "'dual'"),
    (_set("labels", 1, 7), "labels[1]"),
    # a second "0" would leave label 1 without a name
    (_set("labels", 1, "0"), "labels[1] = '0': given twice (labels[0])"),
    (lambda doc: doc["Delta"].pop(), "'Delta'"),
    (_set("Delta", 2, "1/x"), "Delta[2]"),
    (_set("nu", 3, [1, 0]), "nu[3]"),
    (_set("nu", 3, [1, 0, 9, 1]), "nu[3]"),
    (_set("nu", 3, [1, 0, 1, 2]), "nu[3]"),
    (_set("N", 4, [0, 0, 9]), "N[4]"),
    (_set("N", 4, [0, -1, 1]), "N[4]"),
    (_set("N", 4, [0, 1]), "N[4]"),
    (_set("N", 4, 5), "N[4]"),
    (lambda doc: doc["dual"].pop(), "'dual'"),
    (_set("dual", 1, 3), "dual[1]"),
    (_set("d", 1, "root two"), "d[1]"),
    (_set("d", 1, "inf"), "d[1]"),
    (_set("d", 1, "-1.4142135623730951"), "d[1]"),
    (_set("d", 1, "0"), "d[1]"),
    (lambda doc: doc["d"].pop(), "'d'"),
    (_set("F", 5, [0, 1, 1, 0, 1, 0]), "F[5]"),
    (_set("F", 5, [0, 1, 1, 0, 1, 3, ["1", "0"]]), "F[5]"),
    (_set("F", 5, [0, 1, 1, 0, 1, 0, "1"]), "F[5]"),
    (_set("F", 5, [0, 1, 1, 2, 1, 2, ["nan", "0"]]), "F[5]"),
    (_set("F", 5, [0, 1, 1, 2, 1, 2, "10"]), "F[5]"),          # a string is not a pair
    (_set("F", 5, [0, 1, 1, 2, 1, 2, [True, "0"]]), "F[5]"),
    (_set("d", 1, True), "d[1]"),
    (lambda doc: doc.update(F={}), "'F'"),
    (lambda doc: doc.update(rho=5), "'rho'"),
    (lambda doc: doc.update(channels=[0, 7]), "channels[1]"),
    (lambda doc: doc.update(tp_adjacency={"1": [[0, 2], [2, 3]]}), "tp_adjacency['1'][1]"),
    (lambda doc: doc.update(tp_adjacency={"9": []}), "tp_adjacency['9']"),
    (lambda doc: doc.update(tp_adjacency={"\u00b2": []}), "tp_adjacency['\u00b2']"),
    # "01" would read as label 1 and replace the edges given under "1"
    (lambda doc: doc.update(tp_adjacency={"1": [[0, 2]], "01": []}), "tp_adjacency['01']"),
    (_set("Delta", 1, True), "Delta[1]"),
    (lambda doc: doc.update(notes=5), "'notes'"),
    (lambda doc: doc.update(notes=None), "'notes'"),
    (lambda doc: doc.update(notes="abc"), "'notes'"),
    (lambda doc: doc.update(notes=["a note", 5]), "notes[1]"),
    (lambda doc: doc["F"].insert(6, doc["F"][5]), "F[6]"),
    # the first row at fault, not the first key in sorted order
    (lambda doc: doc["F"].extend([doc["F"][30], doc["F"][2], doc["F"][2]]), "F[36] = [2, "),
]] + [
    # drop the two spin-1 (u = 2) entries of the 2x2 block [F^{1/2 1/2 1/2}_{1/2}]
    (lambda doc: doc.update(F=doc["F"][:18] + doc["F"][20:]), "F block (1, 1, 1, 1)",
     AxiomError),
    # N_{1/2 1/2}^{1/2} = 0, so no entry of [F^{1/2 1/2 1/2}_{1/2}] has u = 1/2
    (lambda doc: doc["F"].append([1, 1, 1, 1, 1, 1, ["1", "0"]]), "F[36]", AxiomError),
    (lambda doc: doc["F"].insert(3, [0, 1, 1, 0, 1, 2, ["0", "0"]]), "F[3]", AxiomError),
], ids=["no-labels", "no-name", "no-Delta", "no-nu", "no-dual", "label-not-str", "labels-twice",
        "short-Delta", "bad-Delta", "short-nu", "nu-label", "nu-sign", "N-label",
        "N-negative", "short-N", "N-not-list", "short-dual", "dual-label", "bad-d",
        "d-inf", "d-negative", "d-zero", "short-d", "short-F", "F-label", "F-value", "F-nan",
        "F-string-pair", "F-bool", "d-bool",
        "F-not-list", "rho-label", "channels-label", "tp-edge-label", "tp-phi-label",
        "tp-phi-superscript", "tp-phi-leading-zero", "Delta-bool", "notes-number", "notes-null",
        "notes-string", "notes-entry", "F-twice",
        "F-twice-late", "F-not-square", "F-outside-fusion", "F-outside-fusion-v"])
def test_from_json_rejects_malformed(edit, where, error):
    with pytest.raises(error, match=re.escape(where)):
        bx.category_from_json(_edited(edit))


def test_f_outside_the_fusion_rules_names_the_first_row_and_vertex():
    with pytest.raises(AxiomError) as err:
        bx.category_from_json(_edited(lambda doc: doc["F"].append([1, 1, 1, 1, 1, 1, ["1", "0"]])))
    assert str(err.value) == ("category JSON F[36] = [1, 1, 1, 1, 1, 1, ['1', '0']]: entry "
                              "(1, 1, 1, 1, 1, 1) breaks the fusion rules, N[1, 1, 1] = 0")


def test_f_rows_read_alike_in_any_order_and_number_form():
    doc = json.loads(bx.category_to_json(bx.build_su2k(3)))
    want = bx.category_from_json(json.dumps(doc)).f.flat
    for row in doc["F"]:                         # numbers instead of strings
        row[6] = [float(row[6][0]), float(row[6][1])]
    doc["F"] = doc["F"][::-1]                    # rows in any order
    got = bx.category_from_json(json.dumps(doc)).f.flat
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_imported_blocks_are_read_only_and_padded():
    doc = json.loads(bx.category_to_json(bx.build_su2k(2)))
    doc["F"] = [row for row in doc["F"] if row[:6] != [1, 1, 1, 1, 0, 2]]
    f = bx.category_from_json(json.dumps(doc)).f
    us, vs, mat = block_dict(f)[(1, 1, 1, 1)]
    assert us == (0, 2) and vs == (0, 2) and mat[0, 1] == 0
    assert not mat.flags.writeable
    assert f.block_value(1, 1, 1, 1, 0, 2) == 0


def _no_blocks(labels, vals):
    raise AssertionError("a block dict was built")


@pytest.mark.parametrize("build, arg", [(bx.build_su2k, k) for k in range(1, 9)]
                         + [(bx.build_minimal_A, k) for k in range(1, 8)]
                         + [(bx.build_tambara_yamagami, M) for M in range(2, 11)])
def test_import_indexes_the_rows_without_a_block_dict(build, arg, monkeypatch):
    cat = build(arg)
    text = bx.category_to_json(cat)
    monkeypatch.setattr(bx.category, "f_blocks", _no_blocks)
    back = bx.category_from_json(text)
    assert bx.category_to_json(back) == text
    assert bx.check_f_identities(back).passed
    for got, want in zip(back.f.flat, cat.f.flat):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("drop, missing", [("d", "quantum dimensions"), ("N", "fusion rules")])
def test_check_f_identities_names_the_missing_datum(drop, missing):
    doc = json.loads(bx.category_to_json(bx.build_su2k(2)))
    del doc[drop]
    cat = bx.category_from_json(json.dumps(doc))
    with pytest.raises(CapabilityError, match=f"su2_k2 has F-symbols but no {missing}"):
        bx.check_f_identities(cat)


def test_labels_past_the_flat_index_raise_on_every_read():
    n = 1 << 10
    doc = {"schema": "baxcat-category-v1", "name": "wide", "labels": [str(a) for a in range(n + 1)],
           "Delta": [None] * (n + 1), "nu": [], "F": [[0, 0, n, n, 0, n, ["1", "0"]]]}
    cat = bx.category_from_json(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(CapabilityError, match=f"F table labels reach {n}"):
            bx.category_to_json(cat)


@pytest.mark.parametrize("text", ["{", "[]", '{"schema": "other"}'])
def test_from_json_rejects_non_documents(text):
    with pytest.raises(DomainError):
        bx.category_from_json(text)


def literal_pentagon(cat):
    """{(a, b, c, d, e, f, g, l, k): |pentagon defect|} in loop order, one
    F lookup per term."""
    rules, fv = cat.rules, cat.f.block_value
    rng = range(cat.n_objects)
    out = {}
    for a, b in itertools.product(rng, repeat=2):
        for fa in rules.fusion(a, b):
            for c in rng:
                for g in rules.fusion(fa, c):
                    for d in rng:
                        for e in rules.fusion(g, d):
                            for l in rules.fusion(c, d):
                                for k in rules.fusion(b, l):
                                    if not rules.N[a, k, e]:
                                        continue
                                    lhs = (fv(fa, c, d, e, g, l) or 0j) * (fv(a, b, l, e, fa, k) or 0j)
                                    rhs = 0j
                                    for h in rules.fusion(b, c):
                                        t1 = fv(a, b, c, g, fa, h)
                                        t2 = fv(a, h, d, e, g, k)
                                        t3 = fv(b, c, d, k, h, l)
                                        if None not in (t1, t2, t3):
                                            rhs += t1 * t2 * t3
                                    out[(a, b, c, d, e, fa, g, l, k)] = abs(lhs - rhs)
    return out


def literal_rotation(cat):
    """{(a, b, c, G, A, B): rotation-identity residual} in loop order."""
    rules, d = cat.rules, cat.dims

    def fv(r, s, a, b, t, tp):
        """F_{tt'}[r s; a b] = [F^{a r s}_b]_{t t'}; zero when inadmissible."""
        v = cat.f.block_value(a, r, s, b, t, tp)
        return 0j if v is None else v

    selfdual = [x for x in range(cat.n_objects) if rules.dual[x] == x]
    out = {}
    for a, b, c in itertools.product(selfdual, repeat=3):
        if not rules.N[a, b, c]:
            continue
        for G, A in itertools.product(selfdual, repeat=2):
            if not rules.N[G, A, b]:
                continue
            for B in rules.fusion(a, G):
                if rules.dual[B] != B or not rules.N[B, A, c]:
                    continue
                e1 = math.sqrt(d[A] * d[G] / d[b]) * fv(G, A, a, c, B, b)
                e2 = math.sqrt(d[A] * d[B] / d[c]) * fv(a, b, B, A, G, c)
                e3 = math.sqrt(d[G] * d[B] / d[a]) * fv(b, c, G, B, A, a)
                out[(a, b, c, G, A, B)] = max(abs(e1 - e2), abs(e1 - e3))
    return out


def literal_special_values(cat):
    """{tag: special-value residual} in loop order: per (a, r), the blocks
    [F^{a r 0}_b] (1 for an absent one), then the s0 entries [F^{a r r}_a]_{b 0};
    then the 0s entries [F^{r r r}_r]_{0 s}."""
    rules, d = cat.rules, cat.dims.d
    selfdual = [rules.dual[x] == x for x in range(cat.n_objects)]

    def fv(*labels):
        v = cat.f.block_value(*labels)
        return 0j if v is None else v

    blocks = block_dict(cat.f)
    out = {}
    for a, r in itertools.product(range(cat.n_objects), repeat=2):
        for b in rules.fusion(a, r):
            block = blocks.get((a, r, 0, b))
            if block is None:
                out[(a, r, b, "missing")] = 1.0
                continue
            us, vs, mat = block
            out[(a, r, b)] = max(abs(complex(mat[i, j]) - (u == b and v == r))
                                 for i, u in enumerate(us) for j, v in enumerate(vs))
        for b in rules.fusion(a, r):
            out[(a, r, b, "s0")] = (abs(fv(a, r, r, a, b, 0) - math.sqrt(d[b] / (d[a] * d[r])))
                                    if selfdual[r] else 0.0)
    for r in range(cat.n_objects):
        if selfdual[r]:
            for s in rules.fusion(r, r):
                out[(r, s, "0s")] = abs(fv(r, r, r, r, 0, s) - math.sqrt(d[s] / (d[r] * d[r])))
    return out


def _first_worst(residuals):
    worst, where = 0.0, None
    for tup, r in residuals.items():
        if r > worst:
            worst, where = r, tup
    return worst, where


_ORACLE_CASES = ([bx.build_su2k(k) for k in range(2, 7)]
                 + [bx.build_minimal_A(k) for k in (4, 6)]
                 + [bx.build_tambara_yamagami(M) for M in range(2, 11)])


@pytest.mark.parametrize("cat", _ORACLE_CASES, ids=lambda c: c.name)
def test_identity_checks_match_the_literal_loops(cat):
    for literal, fast in ((literal_pentagon, _pentagon_residual),
                          (literal_special_values, _f0_residual),
                          (literal_rotation, _usefulid_residual)):
        residuals = literal(cat)
        worst, where = fast(cat, cat.f)
        top = max(residuals.values(), default=0.0)
        assert abs(worst - top) < 1e-14
        if where is not None:
            assert residuals[where] > top - 1e-15


def _with_block(cat, key, edit):
    """cat with F block `key` replaced by edit(us, vs, mat copy), or dropped
    when edit is None."""
    blocks = block_dict(cat.f)
    us, vs, mat = blocks.pop(key)
    if edit is not None:
        blocks[key] = edit(us, vs, mat.copy())
    return cat.replace(f=table_of(blocks))


def _scaled(u, v):
    def edit(us, vs, mat):
        mat[us.index(u), vs.index(v)] *= 1.5 + 0.25j
        return us, vs, mat
    return edit


def _special_value_corruptions():
    """One corruption per worst-tuple tag: the block key, its edit and the tuple."""
    ty, X = bx.build_tambara_yamagami(5), 5               # the self-dual X of ty_5
    for cat, r, b, s in ((bx.build_su2k(4), 1, 2, 2), (bx.build_minimal_A(4), 1, 2, 2),
                         (ty, X, 2, 2)):
        for tag, key, edit, where in (
                ("entry", (r, r, 0, b), _scaled(b, r), (r, r, b)),   # an [F^{a r 0}_b] entry
                ("missing", (r, r, 0, b), None, (r, r, b, "missing")),
                ("s0", (r, r, r, r), _scaled(b, 0), (r, r, b, "s0")),  # [F^{a r r}_a]_{b 0}
                ("0s", (r, r, r, r), _scaled(0, s), (r, s, "0s"))):    # [F^{r r r}_r]_{0 s}
            yield pytest.param(cat, key, edit, where, id=f"{cat.name}-{tag}")


@pytest.mark.parametrize("cat, key, edit, where", _special_value_corruptions())
def test_special_values_find_the_literal_worst_tuple_of_a_corruption(cat, key, edit, where):
    bad = _with_block(cat, key, edit)
    want = _first_worst(literal_special_values(bad))
    assert want[1] == where and want[0] > 0.1
    got, got_where = _f0_residual(bad, bad.f)
    assert got_where == where and abs(got - want[0]) < 1e-12


def test_an_empty_f_table_round_trips_and_fails_every_identity():
    doc = json.loads(bx.category_to_json(bx.build_su2k(2)))
    doc["F"] = []
    text = json.dumps(doc, indent=1)
    cat = bx.category_from_json(text)
    assert bx.category_to_json(cat) == text
    assert bx.category_to_json(bx.category_from_json(bx.category_to_json(cat))) == text
    checks = {c.name: c for c in bx.check_f_identities(cat).checks}
    assert [name for name, c in checks.items() if c.passed] == []
    assert checks["special_values"].details == {"worst_tuple": [0, 0, 0, "missing"]}
    for name in ("pentagon", "rotation", "unitarity"):
        # nothing was read, so nothing passes
        assert (checks[name].samples, checks[name].details) == (0, {"detail": "no F entries"})
        assert checks[name].residual >= checks[name].tolerance
    # one entry back makes the three read it again
    doc["F"] = json.loads(bx.category_to_json(bx.build_su2k(2)))["F"][:1]
    checks = {c.name: c for c in bx.check_f_identities(
        bx.category_from_json(json.dumps(doc))).checks}
    assert all(c.samples == 1 and "detail" not in c.details for c in checks.values())


def _corrupted(cat, seed, count):
    """`count` copies of cat, each with one F entry scaled by 1.5 + 0.25j."""
    blocks = block_dict(cat.f)
    keys = sorted(blocks)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        key = keys[rng.integers(len(keys))]
        us, vs, mat = blocks[key]
        mat = mat.copy()
        mat[rng.integers(len(us)), rng.integers(len(vs))] *= 1.5 + 0.25j
        yield cat.replace(f=table_of({**blocks, key: (us, vs, mat)}))


@pytest.mark.parametrize("build, arg", [(bx.build_su2k, 4), (bx.build_tambara_yamagami, 5)])
def test_identity_checks_find_the_literal_worst_tuple_of_a_corruption(build, arg):
    for bad in _corrupted(build(arg), 11, 5):
        for literal, fast in ((literal_pentagon, _pentagon_residual),
                              (literal_rotation, _usefulid_residual)):
            worst, where = _first_worst(literal(bad))
            got, got_where = fast(bad, bad.f)
            assert got_where == where
            assert abs(got - worst) < 1e-12


@pytest.mark.parametrize("build, arg", [(bx.build_su2k, 4), (bx.build_minimal_A, 3),
                                        (bx.build_tambara_yamagami, 5)])
def test_pentagon_batches_split_inside_one_label_and_match_the_literal_loop(
        build, arg, monkeypatch):
    cat = build(arg)
    rng = np.random.default_rng(5)
    blocks = block_dict(cat.f)
    key = sorted(blocks)[rng.integers(len(blocks))]
    us, vs, mat = blocks[key]
    bad = cat.replace(f=table_of({**blocks, key: (us, vs, mat * (1.25 - 0.5j))}))
    for table in (cat, bad):
        want = _first_worst(literal_pentagon(table))
        for terms in (3, 40, 1 << 12):
            monkeypatch.setattr(bx.category, "_PENTAGON_TERMS", terms)
            assert _pentagon_residual(table, table.f) == want


def literal_unitarity(f):
    """(max |U U^dagger - 1|, its block) with one product per block, in key
    order; a NaN counts as infinite and the first non-square block as 1."""
    blocks = block_dict(f)
    keys = sorted(blocks)
    res = []
    for key in keys:
        us, vs, mat = blocks[key]
        if len(us) != len(vs):
            return 1.0, key
        res.append(np.max(np.abs(mat @ mat.conj().T - np.eye(len(us)))) if len(us) else 0.0)
    if not res:
        return 0.0, None
    m = int(np.argmax(res))                     # the first NaN, if there is one
    worst = math.inf if math.isnan(res[m]) else float(res[m])
    return (worst, keys[m]) if worst > 0 else (0.0, None)


def _unitarity_cases():
    for cat in _ORACLE_CASES:
        yield pytest.param(cat.f, id=cat.name)
    for cat in (bx.build_su2k(4), bx.build_tambara_yamagami(5), bx.build_minimal_A(6)):
        for j, bad in enumerate(_corrupted(cat, 3, 3)):
            yield pytest.param(bad.f, id=f"{cat.name}-corrupt{j}")
    for build, arg in ((bx.build_su2k, 2), (bx.build_tambara_yamagami, 3)):
        blocks = block_dict(build(arg).f)
        key = sorted(blocks)[5]
        us, vs, mat = blocks[key]
        mat = mat.copy()
        mat[-1, 0] = math.nan
        yield pytest.param(table_of({**blocks, key: (us, vs, mat)}), id=f"{key}-nan")
        key = min(k for k, (us, vs, _) in blocks.items() if len(vs) > 1)
        us, vs, mat = blocks[key]
        yield pytest.param(table_of({**blocks, key: (us[:1], vs, mat[:1])}),
                           id=f"{key}-non-square")
    yield pytest.param(table_of({}), id="empty")


@pytest.mark.parametrize("f", _unitarity_cases())
def test_unitarity_matches_the_literal_loop_bit_for_bit(f):
    want = literal_unitarity(f)
    assert _unitarity_residual(f) == want


def test_unitarity_counts_a_non_square_block_as_1():
    blocks = block_dict(bx.build_su2k(4).f)
    key = min(k for k, (us, vs, _) in blocks.items() if len(vs) > 1)
    us, vs, mat = blocks[key]
    f = table_of({**blocks, key: (us[:1], vs, mat[:1])})
    assert _unitarity_residual(f) == (1.0, key)


def test_f_lookups_read_absent_entries_as_missing_or_zero():
    f = bx.build_su2k(2).f
    blocks = block_dict(f)
    us, vs, mat = blocks[(1, 1, 1, 1)]
    assert f.block_value(1, 1, 1, 1, us[1], vs[0]) == complex(mat[1, 0])
    assert f.block_value(1, 1, 1, 1, 1, 0) is None          # u = 1/2 not in 1/2 x 1/2
    assert f.block_value(1, 1, 1, 2, 0, 0) is None          # no such block
    for labels in ((8191, 1023, 1023, 1023, 1023, 1023), (8191,) * 6):
        with pytest.raises(DomainError):                    # at and past the sentinel key
            f.block_value(*labels)
    got = f.gather([1, 1, 1], 1, 1, [1, 1, 2], [us[1], 1, 0], [vs[0], 0, 0])
    assert got.tolist() == [complex(mat[1, 0]), 0j, 0j]
    keys, vals = f.flat
    assert not keys.flags.writeable and not vals.flags.writeable
    assert np.all(keys[1:] > keys[:-1])
    # an unsorted table indexes the same entries
    shuffled = table_of(dict(reversed(list(blocks.items()))))
    assert np.array_equal(shuffled.flat[0], keys) and np.array_equal(shuffled.flat[1], vals)


@pytest.mark.parametrize("bad", [1024, -1, 2 ** 70])
def test_f_lookups_refuse_a_label_outside_the_key_range(bad):
    # a label of 1024 carried into the next label's bits: (1, 1, 1024, 1, 1, 2)
    # had the key of [F^{1 2 0}_1]_{1 2} and read 0.9999999999999998
    f = bx.build_su2k(3).f
    with pytest.raises(DomainError, match="outside 0..1023"):
        f.block_value(1, 1, bad, 1, 1, 2)
    with pytest.raises(DomainError, match="outside 0..1023"):
        f.gather([1, 1], 1, [1, bad], 1, 1, 2)


def test_a_nan_in_f_fails_the_identity_checks():
    cat = bx.build_su2k(2)
    # the sixth entry in key order, [F^{0 1/2 1/2}_1]_{1/2 1}
    blocks = block_dict(cat.f)
    (key, u, v), = [(key, u, v) for key, (us, vs, _) in sorted(blocks.items())
                    for u in us for v in vs][5:6]
    us, vs, mat = blocks[key]
    mat = mat.copy()
    mat[us.index(u), vs.index(v)] = math.nan
    bad = bx.CategoryData(cat.name, cat.labels, cat.twists, rules=cat.rules, dims=cat.dims,
                          f=table_of({**blocks, key: (us, vs, mat)}))
    rep = bx.check_f_identities(bad)
    for name in ("pentagon", "rotation"):
        check = rep.check(name)
        assert check.residual == math.inf and not check.passed
        assert check.details["worst_tuple"]
    check = rep.check("unitarity")
    assert check.residual == math.inf and not check.passed
    assert check.details["worst_block"] == list(key)
