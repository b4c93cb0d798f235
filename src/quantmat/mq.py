"""The standard quantized matrix algebra on n^2 generators: its presentation
and its quantum determinant.

Generators z[i,j] carry the linear index (i-1)n + (j-1), which
``gen_index`` gives; a larger index means a larger generator.  Every
ordered pair falls under exactly one of four commutation patterns:

  R1  same row, columns increase      ->  lam = q,  no tail
  R2  same column, rows increase      ->  lam = q,  no tail
  R3  rows increase, columns decrease ->  lam = 1,  no tail
  R4  rows and columns both increase  ->  lam = 1,  tail (q - 1/q) z[s,j] z[i,t]

The R4 tail is stored as a descending basis word (the crossing pattern R3
makes its two letters commute).  Every power of q, here and in the
determinant, is built in the system's field by `QMode.q_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import isqrt

from .errors import InvalidSpec
from .pbw import Monomial, Polynomial, gen_index, mono_sum
from .qfield import ONE, QMode, SYMBOLIC
from .straighten import DEFAULT_MAX_DEGREE, CommutationSystem, scalar_mul


# M_q(n) has n^2 (n^2 - 1) / 2 relations, and building a system builds
# and checks every one: the bound keeps that to 32,640 pairs
MAX_DIMENSION = 16


@dataclass(frozen=True)
class MqSpec:
    n: int
    qmode: QMode = SYMBOLIC

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSpec(f"matrix dimension must be >= 2, got {self.n}")
        if self.n > MAX_DIMENSION:
            raise InvalidSpec(f"matrix dimension must be <= {MAX_DIMENSION}, got {self.n}")


def classify_pair(big: tuple[int, int], small: tuple[int, int]) -> str:
    """Pattern R1..R4 of an ordered generator pair, given as (row, col)."""
    i, j = small
    s, t = big
    if (i, j) >= (s, t):
        raise InvalidSpec(f"pair {small}, {big} is not ascending")
    if i == s:
        return "R1"
    if j == t:
        return "R2"
    return "R3" if t < j else "R4"


def build_mq(spec: MqSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> CommutationSystem:
    """Commutation system of M_q(n), validated under the shipped ordering."""
    n = spec.n
    ngens = n * n
    q = spec.qmode.q_power(1)
    hook = q - q.inv()
    zero_poly = Polynomial.zero(ngens)

    # (row, col) of each generator, inverting gen_index
    entries = [(k // n + 1, k % n + 1) for k in range(ngens)]
    table = {}
    for big in range(1, ngens):
        s, t = entries[big]
        for small in range(big):
            i, j = entries[small]
            pattern = classify_pair((s, t), (i, j))
            if pattern in ("R1", "R2"):
                table[(big, small)] = (q, zero_poly)
            elif pattern == "R3":
                table[(big, small)] = (ONE, zero_poly)
            else:
                cross = mono_sum(
                    Monomial.gen(gen_index(s, j, n), ngens),
                    Monomial.gen(gen_index(i, t, n), ngens),
                )
                # q = +-1 has no hook, and the tail is zero
                table[(big, small)] = (ONE, Polynomial.from_mono(cross, hook))

    names = tuple(f"z[{i},{j}]" for i, j in entries)
    return CommutationSystem(
        ngens,
        table,
        spec.qmode,
        gen_names=names,
        max_degree=max_degree,
        name=f"M_q({n})",
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
        k = sum(a > b for a, b in combinations(perm, 2))  # inversions
        coeff = sys.qmode.q_power(k)
        total = total + scalar_mul(-coeff if k % 2 else coeff, word)
    return total
