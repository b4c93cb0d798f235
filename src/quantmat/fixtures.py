"""Distinguished test elements of the quantized matrix algebras.

These are exercise fixtures, not core engine API.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional

from .errors import InvalidSpec
from .mq import MqSpec, build_mq
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


def quantum_determinant(
    spec: MqSpec, sys: Optional[CommutationSystem] = None
) -> Polynomial:
    """Sum over permutations of (-q)^inv(sigma) z[1,sigma(1)] ... z[n,sigma(n)].

    Central in M_q(n); each row-ordered product is straightened into the
    descending basis before the signed powers of q are attached.  Pass a
    prebuilt system to reuse its straightening cache.
    """
    if sys is None:
        sys = build_mq(spec)
    n = spec.n
    if sys.ngens != n * n:
        raise InvalidSpec(f"system has {sys.ngens} generators, expected {n * n}")
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
