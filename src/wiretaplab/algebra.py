"""Exact residue matrices over Z_d, primality, and MDS generators over F_q.

Everything here is integer residue arithmetic: no floating point is used
anywhere in this module.  Determinants are computed with fraction-free
(Bareiss) elimination over the integers and reduced by the modulus at the
end, so they are exact over any Z_d, prime or not.  Ranks are taken over
F_p only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import BudgetError


# Miller-Rabin to the first thirteen prime bases decides every n below
# this bound exactly; the bound itself, 1287836182261 * 2575672364521,
# passes all thirteen.  Twelve bases (2..37) would not do: they pass
# 399165290221 * 798330580441 = 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises BudgetError for n >= _PRIME_TEST_BOUND, where its bases no
    longer decide.
    """
    if n >= _PRIME_TEST_BOUND:
        raise BudgetError(f"{n} is beyond the exact primality test, which "
                          f"decides n < {_PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    # n - 1 = t * 2^s with t odd
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _PRIME_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Matrix:
    """Row-major matrix of canonical residues sharing one modulus."""

    rows: int
    cols: int
    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}")
        object.__setattr__(
            self, "entries", tuple(e % self.modulus for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int) -> "Matrix":
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(v for row in rows for v in row)
        return cls(len(rows), len(rows[0]) if rows else 0, modulus, flat)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column_submatrix(self, col_indices: Sequence[int]) -> "Matrix":
        """Columns selected by an injective index sequence, in the given order."""
        if len(set(col_indices)) != len(col_indices):
            raise ValueError("column selection must be injective")
        flat = tuple(self.entry(i, j) for i in range(self.rows) for j in col_indices)
        return Matrix(self.rows, len(col_indices), self.modulus, flat)

    def determinant(self) -> int:
        """Determinant as a canonical residue mod the modulus.

        Bareiss fraction-free elimination over the integers; all divisions
        are exact, so the result is the true integer determinant reduced
        mod d.  Works over Z_d with zero divisors.
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return _int_det([list(self.row(i)) for i in range(self.rows)]) % self.modulus

    def rank(self) -> int:
        """Rank over the field F_p, p the modulus, by Gaussian elimination.

        Requires a prime modulus: over Z_d with zero divisors, rank is not
        a well-defined notion.
        """
        p = self.modulus
        if not is_prime(p):
            raise ValueError(f"rank needs a prime modulus, got {p}")
        rows = [list(self.row(i)) for i in range(self.rows)]
        rank = 0
        for col in range(self.cols):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            top = [v * inv % p for v in rows[rank]]
            for i in range(rank + 1, len(rows)):
                f = rows[i][col]
                if f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
            rank += 1
        return rank

    def mat_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Row-vector times matrix: returns vec . self (length = cols)."""
        if len(vec) != self.rows:
            raise ValueError("vector length must equal row count")
        return tuple(
            sum(vec[i] * self.entry(i, j) for i in range(self.rows)) % self.modulus
            for j in range(self.cols))

    def to_text(self) -> str:
        """First line "rows cols modulus", then row-major integers."""
        lines = [f"{self.rows} {self.cols} {self.modulus}"]
        for i in range(self.rows):
            lines.append(" ".join(str(v) for v in self.row(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        tokens = text.split()
        if len(tokens) < 3:
            raise ValueError("matrix text needs a 'rows cols modulus' header")
        rows, cols, modulus = int(tokens[0]), int(tokens[1]), int(tokens[2])
        body = [int(t) for t in tokens[3:]]
        if len(body) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries after header, got {len(body)}")
        return cls(rows, cols, modulus, tuple(body))


def _int_det(m: list[list[int]]) -> int:
    """Exact integer determinant via Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# About 0.6 us and 60 bytes per entry (2-vCPU VM, Python 3.11), so the
# largest generator takes about 1.3 s and 120 MB.
_MDS_ENTRY_CAP = 1 << 21


def build_mds_generator(k: int, r: int, q: int) -> Matrix:
    """Systematic r x k generator whose every r x r column selection is invertible.

    Layout is [I_r | C] over F_q, where C is an r x (k-r) Cauchy block
    C[i][j] = (x_i - y_j)^-1 built on k distinct field points (hence the
    q >= k requirement).  Every square submatrix of a Cauchy matrix is
    nonsingular, which makes the whole generator MDS.  Raises
    BudgetError, before any entry is built, above _MDS_ENTRY_CAP entries.
    """
    if r < 1 or k <= r:
        raise ValueError(f"need k > r >= 1, got k={k}, r={r}")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q < k:
        raise ValueError(f"need q >= k distinct field points, got q={q}, k={k}")
    if r * k > _MDS_ENTRY_CAP:
        raise BudgetError(f"an r x k = {r} x {k} generator has {r * k} entries, "
                          f"over the cap of {_MDS_ENTRY_CAP}")
    xs = list(range(r))
    ys = list(range(r, k))
    rows = []
    for i in range(r):
        ident = [1 if j == i else 0 for j in range(r)]
        cauchy = [pow((xs[i] - y) % q, -1, q) for y in ys]
        rows.append(ident + cauchy)
    return Matrix.from_rows(rows, q)


# One determinant per column selection: about 23 us at 4 rows and 114 us
# at 10 rows (2-vCPU VM, Python 3.11), so the cap is at most about half a
# minute of work.
_MDS_SELECTION_CAP = 1 << 18


def verify_mds(m: Matrix) -> bool:
    """True iff every rows x rows column-selection submatrix is invertible.

    Exhaustive over all C(cols, rows) selections; requires a prime modulus
    since invertibility over Z_d with zero divisors is not a rank notion.
    Raises BudgetError, before any determinant, when there are more than
    _MDS_SELECTION_CAP selections.
    """
    if not is_prime(m.modulus):
        raise ValueError(f"verify_mds needs a prime modulus, got {m.modulus}")
    if m.rows > m.cols:
        raise ValueError("need rows <= cols")
    selections = comb(m.cols, m.rows)
    if selections > _MDS_SELECTION_CAP:
        raise BudgetError(f"C({m.cols}, {m.rows}) = {selections} column selections "
                          f"exceed the cap of {_MDS_SELECTION_CAP}")
    for selection in combinations(range(m.cols), m.rows):
        if m.column_submatrix(selection).determinant() == 0:
            return False
    return True
