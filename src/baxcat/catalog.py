"""Built-in category families.

Representable families (full F-symbol tables): su(2)_k, the minimal-model
twist variant A_{k+1}, and the Z_M Tambara-Yamagami clock categories.
Twist-only families (spins, signs and declared tensor-product adjacency,
no fusion tensor): so(n)_k, sp(2m)_k, (G_2)_k.

F tables are built on the first F read (`CategoryData.f.flat`, its lookups or
`.blocks`): solving and classifying use twist data only, so they never pay
for one, nor for numpy, which only the F builders import.

Each fusion rule is stated once.  su(2)_k and A_{k+1} share one builder,
`_su2_category`, whose one scan of `sixj.su2_admissible` gives the fusion
rules and the sign table; `su2k_f_blocks` calls the same predicate on label
arrays.  `_ty_rules` is the TY fusion table that the build, its signs and
`ty_f_blocks` all read.

`FAMILIES` is the one registry of them: `build_family`, `catalog list` and the
command-line family flags and their bounds are all read from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .category import (CategoryData, FSymbolTable, FusionRules, ObjectLabel,
                       QuantumDims, TwistData, f_blocks, f_rows)
from .errors import DomainError
from .sixj import su2_admissible, su2_qdim, su2k_f_blocks


@dataclass(frozen=True)
class Param:
    """One integer family parameter: its `build_family` keyword, its
    command-line flag and its least allowed value."""

    kwarg: str
    flag: str
    minimum: int

    def check(self, value) -> None:
        if isinstance(value, bool) or not isinstance(value, int) or value < self.minimum:
            raise DomainError(f"parameter {self.kwarg} ({self.flag}) must be an "
                              f"integer >= {self.minimum}, got {value!r}")


LEVEL = Param("k", "--level", 1)
TY_ORDER = Param("M", "--M", 2)


def spin_display(A: int) -> str:
    return str(A // 2) if A % 2 == 0 else f"{A}/2"


def _su2_category(name: str, k: int, Delta, sign) -> CategoryData:
    """su(2)_k fusion, dimensions and F with the spins Delta(A) and the signs
    nu_a^{bc} = sign(a, b, c), read off one scan of the admissible triples;
    `name` is formatted with k and the label count n once k is checked."""
    LEVEL.check(k)
    n = k + 1
    triples = [t for t in itertools.product(range(n), repeat=3) if su2_admissible(*t, k)]
    return CategoryData(
        name=name.format(k=k, n=n),
        labels=tuple(ObjectLabel(A, spin_display(A)) for A in range(n)),
        # the rule is symmetric, so N_{bc}^a != 0 on exactly these (a, b, c)
        twists=TwistData(tuple(map(Delta, range(n))), {t: sign(*t) for t in triples}),
        rules=FusionRules.from_triples(n, triples, range(n)),
        dims=QuantumDims(tuple(su2_qdim(A, k) for A in range(n))),
        f=FSymbolTable(lambda: su2k_f_blocks(k)),
    )


def build_su2k(k: int) -> CategoryData:
    """su(2)_k: spins 0..k/2, truncated fusion, Delta_a = a(a+1)/(k+2),
    nu_a^{bc} = (-1)^{(b+c-a)/2}."""
    return _su2_category("su2_k{k}", k, lambda A: Fraction(A * (A + 2), 4 * (k + 2)),
                         lambda a, b, c: -1 if ((b + c - a) // 2) % 2 else 1)


def build_minimal_A(k: int) -> CategoryData:
    """A_{k+1}: same fusion/dims/F as su(2)_k, minimal-model spins, all nu=+1."""
    return _su2_category("minimalA_{n}", k,
                         lambda A: Fraction(A * A, 4) - Fraction(A * (A + 2), 4 * (k + 2)),
                         lambda a, b, c: 1)


# ---------------------------------------------------------------------------
# Tambara-Yamagami


def _ty_fusion(a, b, M):
    X = M
    if a == X and b == X:
        return list(range(M))
    if a == X or b == X:
        return [X]
    return [(a + b) % M]


def _ty_rules(M: int) -> FusionRules:
    """The TY_M fusion rules of `_ty_fusion`; X (label M) is self-dual."""
    n = M + 1
    return FusionRules.from_triples(n, ((a, b, c) for a, b in itertools.product(range(n), repeat=2)
                                        for c in _ty_fusion(a, b, M)),
                                    tuple((M - a) % M for a in range(M)) + (M,))


@lru_cache(maxsize=None)
def ty_f_blocks(M: int) -> dict:
    """Z_M Tambara-Yamagami F blocks, bicharacter omega^{ab}, FS indicator +1.

    Nontrivial values sit on the (a,X,c), (X,b,X) and (X,X,X) block patterns;
    the placement below passes the pentagon for every M.  All entries are
    computed at once, as arrays, each by the scalar operations of the entry
    formula.  The matrices are read-only.
    """
    import numpy as np
    X = M
    omega = np.exp(2j * np.pi / M)
    rows = f_rows(_ty_rules(M).N != 0)
    x, y, z, w, u, v = rows.T
    xxx = (x == X) & (y == X) & (z == X)
    vals = np.ones(len(rows), dtype=complex)
    vals[xxx] = omega ** (-u * v)[xxx] / math.sqrt(M)
    for on, power in (((x != X) & (y == X) & (z != X), x * z),
                      ((x == X) & (y != X) & (z == X), y * w)):
        vals[on] = omega ** power[on]
    return f_blocks(rows, vals)             # cached, so shared by every build


def build_tambara_yamagami(M: int) -> CategoryData:
    """TY_M: objects 0..M-1 and X; h_a = a(M-a)/M, all nu = +1.

    Delta_X is a stored placeholder (1/16): only the clock-label spins enter
    the solver and the verifiers, and in braid generators it contributes a
    global phase that cancels in every relation.  The placeholder is flagged
    in the export notes.
    """
    TY_ORDER.check(M)
    rules = _ty_rules(M)
    Delta = tuple(Fraction(a * (M - a), M) for a in range(M)) + (Fraction(1, 16),)
    nu = {(a, b, c): 1 for b, row in enumerate(rules.products) for c, cs in enumerate(row)
          for a in cs}
    return CategoryData(
        name=f"ty_{M}",
        labels=tuple(ObjectLabel(a, str(a)) for a in range(M)) + (ObjectLabel(M, "X"),),
        twists=TwistData(Delta, nu),
        rules=rules,
        dims=QuantumDims((1.0,) * M + (math.sqrt(M),)),
        f=FSymbolTable(lambda: ty_f_blocks(M)),
        notes=("Delta_X is a placeholder unused by the solver; braid phases "
               "involving it are global and cancel in every relation",),
    )


# ---------------------------------------------------------------------------
# twist-only Lie families


@dataclass(frozen=True)
class LieTable:
    """Twist-only data of one Lie family, copied verbatim from its source table:
    channels 0, 1, ... of rho x rho with their signs nu, `spins(**params)` giving
    (name, Casimir per channel, denominator of Delta = C / denominator), and the
    declared per-phi tensor-product `adjacency` in place of a fusion tensor."""

    label_names: tuple
    rho: int
    signs: tuple
    adjacency: dict
    spins: Callable

    def __call__(self, **params) -> CategoryData:
        return build_lie_twist_data(self, **params)


def build_lie_twist_data(table: LieTable, **params) -> CategoryData:
    """so(n)_k, sp(2m)_k or (G_2)_k from its `LieTable`; parameters are
    checked by `build_family`."""
    name, casimirs, denom = table.spins(**params)
    channels = tuple(range(len(casimirs)))
    Delta = tuple(Fraction(casimirs[i]) / denom if i in channels else None
                  for i in range(len(table.label_names)))
    notes = ()
    if None in Delta:
        notes = ("spins outside the channel list are not declared by the "
                 "source tables",)
    return CategoryData(
        name=name,
        labels=tuple(ObjectLabel(i, s) for i, s in enumerate(table.label_names)),
        twists=TwistData(Delta, {(ch, table.rho, table.rho): table.signs[ch]
                                 for ch in channels}),
        channels=channels,
        rho_declared=table.rho,
        tp_adjacency=dict(table.adjacency),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One built-in family: what `build_family`, `catalog list` and the
    command line know of it."""

    params: tuple           # Param per parameter, in `catalog list` order
    build: Callable         # called with the parameters as keywords
    objects: str            # `catalog list` description of the objects
    representable: bool     # carries an F-symbol table


_SO_SP_ADJACENCY = {1: ((0, 1), (1, 2)), 2: ((0, 2), (2, 1))}

FAMILIES = {
    "su2": Family((LEVEL,), build_su2k, "spins 0..k/2", True),
    "minimal": Family((LEVEL,), build_minimal_A, "spins 0..k/2 (A_{k+1} twists)", True),
    "ty": Family((TY_ORDER,), build_tambara_yamagami, "Z_M clock labels and X", True),
    # channel order 0, A (antisymmetric), S (symmetric); rho is the vector V
    "so": Family((Param("n", "--n", 3), LEVEL), LieTable(
        ("0", "A", "S", "V"), 3, (1, -1, 1), _SO_SP_ADJACENCY,
        lambda n, k: (f"so{n}_k{k}", (0, n - 2, n), n + k - 2)),
        "channels 0, A, S of V x V", False),
    "sp": Family((Param("m", "--m", 2), LEVEL), LieTable(
        ("0", "A", "S", "V"), 3, (-1, -1, 1), _SO_SP_ADJACENCY,
        lambda m, k: (f"sp{2 * m}_k{k}", (0, m, m + 1), m + k + 1)),
        "channels 0, A, S of V x V", False),
    # for G_2 the vector V is itself a channel
    "g2": Family((LEVEL,), LieTable(
        ("0", "V", "A", "S"), 1, (1, -1, -1, 1), {2: ((0, 2), (2, 3), (3, 1))},
        lambda k: (f"g2_k{k}", (0, 2, 4, Fraction(14, 3)), k + 4)),
        "channels 0, V, A, S of V x V", False),
}


def build_family(family: str, **params) -> CategoryData:
    """Build a registered family; an unknown keyword or a parameter that is
    missing, None or below its minimum raises DomainError naming it."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise DomainError(f"unknown family {family!r}; know {tuple(FAMILIES)}")
    unknown = sorted(set(params) - {p.kwarg for p in fam.params})
    if unknown:
        flags = {p.kwarg: f" ({p.flag})" for f in FAMILIES.values() for p in f.params}
        raise DomainError(f"family {family!r} takes no parameter {unknown[0]!r}"
                          f"{flags.get(unknown[0], '')}")
    for p in fam.params:
        p.check(params.get(p.kwarg))
    return fam.build(**params)


def catalog_rows():
    """One descriptor per family for `catalog list`."""
    return [{"family": name, "params": ", ".join(f"{p.kwarg}>={p.minimum}" for p in fam.params),
             "objects": fam.objects, "baxterisable": True, "representable": fam.representable}
            for name, fam in FAMILIES.items()]
