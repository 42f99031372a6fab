"""Fixtures shared by several test modules."""

import pytest

from midgb import f4


@pytest.fixture
def split_checked(monkeypatch):
    """Make every F4 round check its split elimination against the full one.

    Each round's ``MacaulayMatrix.reduce`` result must equal the full RREF of
    the same rows (the matrix built with no lookup) with the rows whose
    leading monomial a basis leading monomial divides left out, and its
    zero-row count must equal the full one. The basis is the lookup's
    member list, read here by a plain scan. Yields the set of field sizes q
    that had a round with both known pivots and a nonempty block, so a
    caller can show that the check was not vacuous.
    """
    full_matrix = f4.MacaulayMatrix
    split = set()

    class Checked(full_matrix):
        def __init__(self, rows, ring, first):
            super().__init__(rows, ring, first)
            self.basis_exponents = [ring.exponents(g.lm()) for g in first.members]

        def reducible(self, p):
            e = self.ring.exponents(p.lm())
            return any(all(a <= b for a, b in zip(d, e)) for d in self.basis_exponents)

        def reduce(self):
            polys, zero_rows = super().reduce()
            full, full_zero = full_matrix(self.rows, self.ring).reduce()
            assert polys == [p for p in full if not self.reducible(p)]
            assert zero_rows == full_zero
            known, block = self.split()
            if known and block:
                split.add(self.ring.q)
            return polys, zero_rows

    monkeypatch.setattr(f4, "MacaulayMatrix", Checked)
    yield split
