"""Distinguished test elements of the quantized matrix algebras.

These are exercise fixtures, not core engine API.
"""

from __future__ import annotations

from itertools import permutations
from math import isqrt

from .errors import InvalidSpec
from .pbw import Polynomial, gen_index
from .qfield import QRat
from .straighten import CommutationSystem, scalar_mul


def _inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def quantum_determinant(sys: CommutationSystem) -> Polynomial:
    """Sum over permutations of (-q)^inv(sigma) z[1,sigma(1)] ... z[n,sigma(n)]
    in the M_q(n) system sys, n the square root of its generator count.

    Central in M_q(n); each row-ordered product is straightened into the
    descending basis before the signed powers of q, at the system's q,
    are attached.
    """
    n = isqrt(sys.ngens)
    if n < 2 or n * n != sys.ngens:
        raise InvalidSpec(f"system has {sys.ngens} generators, not n^2 for an n >= 2")
    total = Polynomial.zero(sys.ngens)
    for perm in permutations(range(1, n + 1)):
        word = Polynomial.one(sys.ngens)
        for row, col in enumerate(perm, start=1):
            word = sys.poly_mul(word, sys.gen_poly(gen_index(row, col, n)))
        k = _inversions(perm)
        coeff = QRat.q_power(k).specialize(sys.qmode)
        if k % 2:
            coeff = -coeff
        total = total + scalar_mul(coeff, word)
    return total
