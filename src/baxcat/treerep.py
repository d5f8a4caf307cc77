"""Fusion-tree (height-model) bases, their path counts and the dense operators
on them: projectors, braid generators, spectral R-matrices, transfer matrices.

A basis state is a height sequence (h_0, ..., h_L) with every step admissible
under fusion with rho, stored as one row of the basis's int array `heights`;
periodic bases carry h_L = h_0 explicitly.  Operators are dense complex
matrices (column index is the input state) gathered from one face weight
sum_chi c_chi U[h', chi] conj(U[h, chi]) over the blocks
U = [F^{h- rho rho}_{h+}]: c is a unit vector for a projector, the twists
for a braid and A(mu) for R(mu) and the transfer matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .baxterize import AmplitudeSolution, amplitude_at
from .category import CategoryData, fusion_product, twist_factor
from .errors import CapabilityError, DomainError
from .record import record

OPEN_ALL = "open_all"
PERIODIC = "periodic"
# largest basis a dense operator may act on: 256 MB per n x n complex matrix
MAX_DENSE_DIM = 4096
# basis sizes are counted exactly up to this, the first integer past the float range
COUNT_CAP = 2 ** 1024


class FusionTreeBasis:
    """Lexicographically ordered admissible height sequences, the rows of the
    read-only dim x (L+1) int array `heights`.

    Immutable after construction; the read-only face tensor is built from the
    F-symbols when the first operator on the basis needs it.
    """

    def __init__(self, cat: CategoryData, rho, L, bc):
        step = _adjacency(cat, rho, L)
        rho = cat.check_label(rho)
        if bc not in (OPEN_ALL, PERIODIC):
            raise DomainError(f"unknown boundary condition {bc!r}")
        self.cat = cat
        self.rho = rho
        self.L = L
        self.bc = bc
        # grow the sequences one step at a time; np.nonzero keeps the rows
        # in lexicographic order.  A periodic basis keeps only the prefixes
        # that can still return to h_0, so no step holds more rows than the
        # basis (an odd L on a bipartite rho has none)
        reach = _reach(step) if bc == PERIODIC else None
        H = np.arange(cat.n_objects)[:, None]
        for m in range(1, L + 1):
            rows, nxt = np.nonzero(step[H[:, -1]])
            H = np.column_stack((H[rows], nxt))
            if reach:
                H = H[reach(L - m)[H[:, -1], H[:, 0]]]
        H.setflags(write=False)
        self.heights = H

    @property
    def size(self) -> int:
        return len(self.heights)

    def site_range(self):
        return range(1, self.L + 1) if self.bc == PERIODIC else range(1, self.L)

    @functools.cached_property
    def face(self) -> np.ndarray:
        """U[h-, h+, h, chi] = [F^{h- rho rho}_{h+}]_{h chi}, zero off the blocks."""
        cat = self.cat
        if not cat.representable:
            raise CapabilityError(f"{cat.name} has no F-symbols; operators unavailable")
        hm, hp, h, chi = np.indices((cat.n_objects,) * 4, sparse=True)
        U = cat.f.gather(hm, self.rho, self.rho, hp, h, chi)
        U.setflags(write=False)
        return U


@record(frozen=True)
class LinearOp:
    basis: FusionTreeBasis
    matrix: np.ndarray


def check_dense(size):
    """Refuse a basis of `size` states, too large for dense n x n operators."""
    if size > MAX_DENSE_DIM:
        what = (f"{size} exceeds the dense-operator budget of {MAX_DENSE_DIM} states "
                f"({size ** 2 * 16 / 1e9:.1f} GB per complex matrix)" if size < 10 ** 6 else
                f"over 10^6 exceeds the dense-operator budget of {MAX_DENSE_DIM} states")
        raise DomainError(f"basis dimension {what}; use a smaller L or strand")


def enumerate_trees(cat: CategoryData, rho, L, bc) -> FusionTreeBasis:
    """Complete, duplicate-free, lexicographically ordered height basis."""
    return FusionTreeBasis(cat, rho, L, bc)


def _adjacency(cat: CategoryData, rho, L):
    """rho's fusion adjacency, which heights may follow which, as booleans;
    refuses a category without fusion rules and L < 0 strands."""
    if cat.rules is None:
        raise CapabilityError(f"{cat.name} carries no fusion tensor")
    if L < 0:
        raise DomainError("strand count must be >= 0")
    return cat.rules.N[cat.check_label(rho)] != 0


def _reach(step):
    """r -> which heights reach which in exactly r steps.  The boolean powers
    of `step` repeat from some power on; those up to the first repeat are made."""
    powers = [np.eye(len(step), dtype=bool)]
    keys = [powers[0].tobytes()]
    while (R := powers[-1] @ step.astype(int) > 0).tobytes() not in keys:
        powers.append(R)
        keys.append(R.tobytes())
    start = keys.index(R.tobytes())
    return lambda r: powers[r if r < start else start + (r - start) % (len(powers) - start)]


def _power(step, L):
    """The L-th power of the 0/1 matrix `step` by repeated squaring, each
    entry min(exact int, COUNT_CAP): the entries are path counts, which no
    product or sum lowers, so a capped entry stays capped and the others
    stay exact."""
    power, step = np.eye(len(step), dtype=object), step.astype(object)
    while L:
        if L & 1:
            power = np.minimum(power @ step, COUNT_CAP)
        L >>= 1
        step = np.minimum(step @ step, COUNT_CAP) if L else step
    return power


def open_count(cat: CategoryData, rho, L) -> int:
    """Size of the open basis of L steps, min(exact count, COUNT_CAP): the
    height paths, the sum of the entries of the L-th power of rho's fusion
    adjacency."""
    return min(int(_power(_adjacency(cat, rho, L), L).sum()), COUNT_CAP)


def periodic_count(cat: CategoryData, rho, L) -> int:
    """Size of the periodic basis of L steps, min(exact count, COUNT_CAP):
    the closed height paths, the trace of the L-th power of rho's fusion
    adjacency."""
    return min(int(_power(_adjacency(cat, rho, L), L).trace()), COUNT_CAP)


def face_weights(basis: FusionTreeBasis, rho, coeffs) -> np.ndarray:
    """W[h-, h+, h', h] = sum_chi c_chi U[h-, h+, h', chi] conj(U[h-, h+, h, chi])
    for coefficients {chi: c_chi}, i.e. U diag(c) U^dagger on every face."""
    if rho != basis.rho:
        raise DomainError(f"operator strand {basis.cat.display(rho)} differs from the "
                          f"basis strand {basis.cat.display(basis.rho)}")
    c = np.array([coeffs.get(x, 0) for x in range(basis.cat.n_objects)], dtype=complex)
    U = basis.face
    return (U * c) @ U.conj().swapaxes(-1, -2)


def _site_op(basis: FusionTreeBasis, rho, coeffs, j) -> LinearOp:
    """M[r, c] = W[h_{j-1}(c), h_{j+1}(c), h_j(r), h_j(c)] wherever states r and
    c agree off site j (and off h_0 = h_L at the periodic seam j = L)."""
    if j not in basis.site_range():
        raise DomainError(f"site {j} outside {list(basis.site_range())} for bc={basis.bc}")
    check_dense(basis.size)
    W = face_weights(basis, rho, coeffs)
    H = basis.heights
    seam = basis.bc == PERIODIC and j == basis.L
    rest = np.delete(H, [0, j] if seam else [j], axis=1)
    cls = np.unique(rest, axis=0, return_inverse=True)[1].reshape(-1)
    r, c = np.nonzero(cls[:, None] == cls)
    M = np.zeros((basis.size, basis.size), dtype=complex)
    M[r, c] = W[H[c, j - 1], H[c, 1 if seam else j + 1], H[r, j], H[c, j]]
    return LinearOp(basis, M)


def projector_op(cat: CategoryData, rho, chi, j, basis: FusionTreeBasis) -> LinearOp:
    """Two-strand fusion-channel projector P_j^{(chi)}.

    Matrix elements come from the unitary F-block U = [F^{h- rho rho}_{h+}]:
    P_{h' h} = U_{h' chi} conj(U_{h chi}).  In the self-dual gauge this equals
    the product of the two F-moves performed on the tree.
    """
    rho, chi = cat.check_label(rho), cat.check_label(chi)
    if chi not in fusion_product(cat, rho, rho):
        raise DomainError(f"{cat.display(chi)} is not a channel of "
                          f"{cat.display(rho)} x {cat.display(rho)}")
    return _site_op(basis, rho, {chi: 1.0}, j)


def braid_op(cat: CategoryData, rho, j, sense, basis: FusionTreeBasis) -> LinearOp:
    """Braid generator: the channel twists (inverted for `under`) as face weights."""
    if sense not in ("over", "under"):
        raise DomainError(f"braid sense must be 'over' or 'under', got {sense!r}")
    rho = cat.check_label(rho)
    power = -1 if sense == "under" else 1
    twists = {chi: twist_factor(cat, chi, rho, rho) ** power
              for chi in fusion_product(cat, rho, rho)}
    return _site_op(basis, rho, twists, j)


def r_op(solution: AmplitudeSolution, mu, j, basis: FusionTreeBasis) -> LinearOp:
    """R_j(mu) = sum_chi A_chi(mu) P_j^{(chi)}."""
    if basis.cat.name != solution.cat.name:
        raise DomainError("basis and solution belong to different categories")
    amps = {chi: amplitude_at(solution, chi, mu) for chi in solution.channels}
    return _site_op(basis, solution.rho, amps, j)


def transfer_matrix(solution: AmplitudeSolution, mu, basis: FusionTreeBasis) -> LinearOp:
    """T(mu) = R_L R_{L-1} ... R_1 on a periodic basis, read helically.

    The sweep tiles one 45-degree row of diamonds: the weight at site j uses
    the already-updated height on its left, and the seam diamond (j = L,
    wrapping onto h_0) closes the helix with the new h_{L-1} and new h_1 as
    neighbours.  A naive composition of the R_j operators cannot thread the
    new h_0 back into the j = 1 factor, and the resulting torn-seam product
    does not commute at distinct mu; the helical matrix elements do.
    Entry [out, in] = prod_j W[h_{j-1}(out), h_{j+1}(in), h_j(out), h_j(in)].
    """
    if basis.bc != PERIODIC:
        raise DomainError("transfer matrix needs a periodic basis")
    check_dense(basis.size)
    n, L = basis.size, basis.L
    if L == 0:
        return LinearOp(basis, np.eye(n, dtype=complex))
    amps = {chi: amplitude_at(solution, chi, mu) for chi in solution.channels}
    T = np.ones((n, n), dtype=complex)
    if n:               # an empty basis reads no F
        W = face_weights(basis, solution.rho, amps)
        H = basis.heights[:, :L]
        for j in range(L):
            T *= W[H[:, j - 1, None], H[:, (j + 1) % L], H[:, j, None], H[:, j]]
    return LinearOp(basis, T)
