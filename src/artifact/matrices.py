"""Dense matrices over p-bit floats or exact rationals.

A matrix carries its evaluation mode: ``pbit`` entries are
:class:`~artifact.floats.FpNumber` at one shared precision, ``exact``
entries are :class:`fractions.Fraction`.  Multiplication in pbit mode
computes each entry as one exact sum of exact products with a single final
rounding (``iter_add`` over ``fp_mul`` terms); exact mode is ordinary
rational arithmetic, which makes it the reference semantics the pbit mode
is compared against.

``mamba run`` prints a matrix as the JSON object ``{"mode": "pbit" |
"exact", "p": P (null in exact mode), "rows": R, "cols": C, "entries": [[..],
..]}`` (``artifact.cli._matrix_json``).  Entries are nested row by row: a
pbit entry is the integer pair ``[m, e]`` and an exact entry is the string
``str(Fraction)``, ``"n/d"`` or ``"n"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from artifact.floats import FpNumber, fp_mul, iter_add, round_p

__all__ = [
    "FpMatrix",
    "ShapeMismatch",
    "hadamard",
    "matmul",
    "max_rel_gap",
]


class ShapeMismatch(ValueError):
    """Operand dimensions (or modes) do not line up."""


Entry = FpNumber | Fraction


@dataclass(frozen=True, slots=True)
class FpMatrix:
    """Immutable dense matrix in one of the two evaluation modes."""

    rows: int
    cols: int
    mode: str  # "pbit" | "exact"
    p: int | None
    data: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        if self.mode not in ("pbit", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "pbit" and (self.p is None or self.p < 1):
            raise ValueError("pbit mode requires a positive precision")
        if self.mode == "exact" and self.p is not None:
            raise ValueError("exact mode carries no precision")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ShapeMismatch("data does not match declared shape")
        for row in self.data:
            for x in row:
                if self.mode == "pbit":
                    if not isinstance(x, FpNumber) or x.p != self.p:
                        raise ValueError("pbit entries must be FpNumber at the matrix precision")
                elif not isinstance(x, Fraction):
                    raise ValueError("exact entries must be Fraction")

    # ---------------------------------------------------------------- build
    @classmethod
    def pbit(cls, entries: Sequence[Sequence[FpNumber]], p: int) -> "FpMatrix":
        data = tuple(tuple(row) for row in entries)
        return cls(len(data), len(data[0]) if data else 0, "pbit", p, data)

    @classmethod
    def exact(cls, entries: Sequence[Sequence[Fraction | int]]) -> "FpMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in entries)
        return cls(len(data), len(data[0]) if data else 0, "exact", None, data)

    @classmethod
    def from_fractions(
        cls, entries: Sequence[Sequence[Fraction | int]], mode: str, p: int | None = None
    ) -> "FpMatrix":
        """Build in either mode from exact values (pbit entries are rounded)."""
        if mode == "exact":
            return cls.exact(entries)
        assert p is not None
        return cls.pbit([[round_p(Fraction(x), p) for x in row] for row in entries], p)

    # ---------------------------------------------------------------- views
    def entry(self, i: int, j: int) -> Entry:
        return self.data[i][j]

    def to_fractions(self) -> list[list[Fraction]]:
        """Exact values of all entries, row-major nested lists."""
        if self.mode == "exact":
            return [list(row) for row in self.data]
        return [[x.to_fraction() for x in row] for row in self.data]


def _check_modes(a: FpMatrix, b: FpMatrix) -> None:
    if a.mode != b.mode or a.p != b.p:
        raise ShapeMismatch("operands must share mode and precision")


def matmul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Matrix product; each pbit entry is one iter_add of fp_mul products."""
    _check_modes(a, b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dimensions differ: {a.cols} vs {b.rows}")
    if a.cols == 0:
        raise ShapeMismatch("empty inner dimension")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            if a.mode == "pbit":
                row.append(iter_add([fp_mul(a.data[i][k], b.data[k][j]) for k in range(a.cols)]))
            else:
                row.append(sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), Fraction(0)))
        out.append(row)
    return FpMatrix(a.rows, b.cols, a.mode, a.p, tuple(tuple(r) for r in out))


def hadamard(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Entrywise product."""
    _check_modes(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("entrywise product requires equal shapes")
    out = []
    for i in range(a.rows):
        if a.mode == "pbit":
            out.append(tuple(fp_mul(x, y) for x, y in zip(a.data[i], b.data[i])))
        else:
            out.append(tuple(x * y for x, y in zip(a.data[i], b.data[i])))
    return FpMatrix(a.rows, a.cols, a.mode, a.p, tuple(out))


def max_rel_gap(a: FpMatrix, b: FpMatrix) -> Fraction:
    """Largest entrywise relative gap ``|x-y| / max(|x|, |y|)`` (0 if both 0)."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("gap requires equal shapes")
    worst = Fraction(0)
    fa, fb = a.to_fractions(), b.to_fractions()
    for i in range(a.rows):
        for j in range(a.cols):
            x, y = fa[i][j], fb[i][j]
            scale = max(abs(x), abs(y))
            if scale == 0:
                continue
            worst = max(worst, abs(x - y) / scale)
    return worst
