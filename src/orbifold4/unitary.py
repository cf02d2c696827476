"""2x2 unitary matrices with exact cyclotomic entries."""

from __future__ import annotations

from .cyclotomic import CyclotomicScalar


class NotUnitaryError(ValueError):
    pass


class UMat2:
    """A 2x2 matrix with exact cyclotomic entries, verified unitary."""

    __slots__ = ("entries",)

    def __init__(self, entries, check: bool = True) -> None:
        e = [[_scalar(entries[i][j]) for j in range(2)] for i in range(2)]
        self.entries = e
        if check and not self._is_unitary():
            raise NotUnitaryError("matrix is not exactly unitary")

    @staticmethod
    def identity(conductor: int = 1) -> "UMat2":
        one = CyclotomicScalar.one(conductor)
        zero = CyclotomicScalar.zero(conductor)
        return UMat2([[one, zero], [zero, one]], check=False)

    @staticmethod
    def diagonal(a: CyclotomicScalar, b: CyclotomicScalar) -> "UMat2":
        zero = CyclotomicScalar.zero()
        return UMat2([[a, zero], [zero, b]])

    def _is_unitary(self) -> bool:
        h = self.conj_transpose()
        return (h @ self) == UMat2.identity()

    def conj_transpose(self) -> "UMat2":
        e = self.entries
        return UMat2(
            [[e[0][0].conjugate(), e[1][0].conjugate()],
             [e[0][1].conjugate(), e[1][1].conjugate()]],
            check=False,
        )

    def __matmul__(self, other: "UMat2") -> "UMat2":
        a, b = self.entries, other.entries
        return UMat2(
            [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)],
            check=False,
        )

    def inverse(self) -> "UMat2":
        return self.conj_transpose()

    def det(self) -> CyclotomicScalar:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def trace(self) -> CyclotomicScalar:
        return self.entries[0][0] + self.entries[1][1]

    def to_conductor(self, n: int) -> "UMat2":
        return UMat2(
            [[self.entries[i][j].to_conductor(n) for j in range(2)] for i in range(2)],
            check=False,
        )

    def canonical_key(self, conductor: int | None = None):
        m = self if conductor is None else self.to_conductor(conductor)
        return tuple(c for row in m.entries for e in row for c in (*e.num, e.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UMat2):
            return NotImplemented
        return all(self.entries[i][j] == other.entries[i][j] for i in range(2) for j in range(2))

    def __repr__(self) -> str:
        return f"UMat2({self.entries!r})"

    def to_json(self) -> list:
        return [[self.entries[i][j].to_json() for j in range(2)] for i in range(2)]

    @staticmethod
    def from_json(obj) -> "UMat2":
        return UMat2([[CyclotomicScalar.from_json(obj[i][j]) for j in range(2)] for i in range(2)])


def _scalar(x) -> CyclotomicScalar:
    if isinstance(x, CyclotomicScalar):
        return x
    return CyclotomicScalar.from_rational(x)

