"""Arithmetic over Z_d and Z_d**n: qudit systems, digit labels, and index maps."""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass

import numpy as np

ORACLE_DIM_CAP = 4096  # largest d**n for which a dense d**n x d**n oracle is built
LABEL_CAP = 2**20  # largest d**n for which every basis label is built


def require_index(name: str, value: int, bound: int) -> int:
    """value as an int; ValueError unless an integer (numpy's too) in [0, bound)."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if not 0 <= index < bound:
        raise ValueError(f"{name} {value} outside [0, {bound})")
    return index


@dataclass(frozen=True)
class QuditSystem:
    """An n-qudit register with d levels per qudit; the group Z_d**n."""

    n: int
    d: int

    def __post_init__(self) -> None:
        # stored as Python ints, so d**n cannot wrap as numpy integers do
        for name in ("n", "d"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} {value!r} is not an integer") from None
        if self.n < 1:
            raise ValueError(f"need at least one qudit, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"need at least two levels per qudit, got d={self.d}")
        # d >= 2 overflows once n reaches maxsize's bit length: skip the power
        if self.n >= sys.maxsize.bit_length() or self.d**self.n > sys.maxsize:
            raise ValueError(
                f"dimension {self.d}**{self.n} exceeds the platform index range"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    def require_oracle_dim(self) -> None:
        """Refuse dense-oracle work above ORACLE_DIM_CAP."""
        if self.dim > ORACLE_DIM_CAP:
            raise ValueError(
                f"oracle dimension {self.dim} exceeds the cap {ORACLE_DIM_CAP}"
            )


@dataclass(frozen=True)
class DigitLabel:
    """Length-n tuple of digits in [0, d).

    The same type labels computational basis states and linear functionals;
    which role a label plays is decided by the operation consuming it.
    """

    digits: tuple[int, ...]
    system: QuditSystem

    def __post_init__(self) -> None:
        digits = tuple(self.digits)
        if len(digits) != self.system.n:
            raise ValueError(f"expected {self.system.n} digits, got {len(digits)}")
        d = self.system.d
        object.__setattr__(
            self, "digits", tuple(require_index("digit", x, d) for x in digits)
        )

    def ket(self) -> str:
        """Digit string in ket order, e.g. '12' for digits (1, 2).

        Digits are comma-separated when d > 10 since single characters no
        longer suffice.
        """
        sep = "" if self.system.d <= 10 else ","
        return sep.join(str(x) for x in self.digits)


def _require_same_system(a: DigitLabel, b: DigitLabel) -> None:
    if a.system != b.system:
        raise ValueError(f"label systems differ: {a.system} vs {b.system}")


def add_mod(a: DigitLabel, b: DigitLabel) -> DigitLabel:
    """Digit-wise addition modulo d."""
    _require_same_system(a, b)
    d = a.system.d
    return DigitLabel(
        tuple((x + y) % d for x, y in zip(a.digits, b.digits)), a.system
    )


def dot_mod(k: DigitLabel, q: DigitLabel) -> int:
    """Modular dot product (sum of k_j * q_j) mod d."""
    _require_same_system(k, q)
    return sum(x * y for x, y in zip(k.digits, q.digits)) % k.system.d


def product_table(d: int) -> np.ndarray:
    """q*k mod d for q, k in [0, d), in the smallest unsigned dtype that holds d - 1."""
    # the products, below d**2, need a wider type only until they are reduced
    r = np.arange(d, dtype=np.min_scalar_type((d - 1) ** 2))
    table = np.multiply.outer(r, r)
    table %= d
    return table.astype(np.min_scalar_type(d - 1), copy=False)


def functional_rows(digits: np.ndarray, d: int) -> np.ndarray:
    """k.q mod d for each row k of a (K, n) digit array and every basis label q.

    Shape (K, d**n), each row in index order, in the smallest unsigned dtype
    that holds 2(d - 1): one byte per entry for d <= 128. Row k is the
    Kronecker sum of k's rows of product_table(d), computed here for k's
    digits only, and is reduced mod d after each digit, so that a sum of two
    residues always fits, as min(t, t - d): t - d wraps above t when t < d.
    The wires are added from the last, the least significant, so that each
    broadcast add runs along the table built so far, not along a new axis.
    """
    multiples = digits[:, :, None] * np.arange(d)
    multiples %= d
    multiples = multiples.astype(np.min_scalar_type(2 * (d - 1)))
    table = multiples[:, -1]
    for j in range(digits.shape[1] - 2, -1, -1):
        table = multiples[:, j, :, None] + table[:, None, :]
        np.minimum(table, table - table.dtype.type(d), out=table)
        table = table.reshape(len(digits), -1)
    return table


def functional_values(k: DigitLabel) -> np.ndarray:
    """functional_rows' row for k: k.q mod d for every basis label q, in index order."""
    return functional_rows(np.array([k.digits]), k.system.d)[0]


def label_to_index(q: DigitLabel) -> int:
    """Flat index of a label; the first digit is the most significant.

    Big-endian so that printed labels read left to right like the index
    written in base d.
    """
    i = 0
    for x in q.digits:
        i = i * q.system.d + x
    return i


def index_to_label(i: int, system: QuditSystem) -> DigitLabel:
    """Inverse of label_to_index."""
    i = require_index("index", i, system.dim)
    digits = []
    for _ in range(system.n):
        i, r = divmod(i, system.d)
        digits.append(r)
    return DigitLabel(tuple(reversed(digits)), system)


def enumerate_labels(system: QuditSystem) -> list[DigitLabel]:
    """All d**n labels in index order, which is itertools.product's order.

    Raises ValueError, before building any label, when d**n > LABEL_CAP.
    """
    if system.dim > LABEL_CAP:
        raise ValueError(f"label count {system.dim} exceeds the cap {LABEL_CAP}")
    digits = itertools.product(range(system.d), repeat=system.n)
    return [DigitLabel(q, system) for q in digits]


def is_prime(d: int) -> bool:
    """Trial-division primality test; reporting only, nothing is gated on it."""
    if d < 2:
        raise ValueError(f"primality is asked only for d >= 2, got {d}")
    if d < 4:
        return True
    if d % 2 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True
