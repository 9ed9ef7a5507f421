"""The Lie algebra of a closure in the coordinates of its basis vectors.

A coordinate vector is a dict {basis index: c mod p} with no zero entries,
naming Σ c·vectors[index][1] of a ``GradedBasis``; the basis vectors are
independent, so it names the element exactly.  Its weights are those of its
basis vectors.  ``StructureConstants`` brackets coordinate vectors through
the brackets [v_i, v_j] of the basis vectors and takes p-th powers by
Jacobson's formula (Jacobson, Trans. AMS 50 (1941); Strade–Farnsteiner,
*Modular Lie Algebras and Their Representations* (1988), §2.1)

    (a + b)^{[p]} = a^{[p]} + b^{[p]} + Σ_{i=1}^{p−1} s_i(a, b),

where i·s_i(a, b) is the coefficient of λ^{i−1} in ad(λa + b)^{p−1}(a), so
that only the brackets and the p-th powers v_k^{[p]} of the basis vectors
are ever taken on derivations.

Each basis vector is the closure's echelon row at its least key, so reducing
a derivation against the closure's own rows subtracts c times the row of
vector k exactly when its coordinate k is c.
"""

from __future__ import annotations

from . import closure


class StructureConstants:
    """Brackets and p-th powers of coordinate vectors over one closure.

    The constants [v_i, v_j] and v_k^{[p]} are taken when first needed,
    on ``basis.vectors``, by ``closure.bracket`` and ``closure.p_power``
    (looked up at each call, so a replaced function is the one used), and
    kept for the life of the object as tuples of (index, c) pairs.  They are
    converted to coordinates by ``basis.reduce`` over the rows of their
    multidegree, which are the vectors as ``restricted_closure`` appended
    them; the multiple of each row subtracted is the coordinate of the
    vector with its lead.  A constant outside the span of the basis vectors
    of its multidegree, md_i + md_j or p·md_k, raises RuntimeError; so does
    a constant of the wrong weight.  The basis itself is only read.
    """

    __slots__ = ("basis", "p", "weights", "_index", "_brackets", "_powers")

    def __init__(self, basis: closure.GradedBasis):
        self.basis = basis
        self.p = basis.ctx.p
        self.weights = [sum(md) for md, _D in basis.vectors]
        self._index = {min(D.terms): k for k, (_md, D) in enumerate(basis.vectors)}  # lead -> k
        self._brackets: dict[int, dict[int, tuple]] = {}  # [v_i, v_j] at [i][j], i < j
        self._powers: list[tuple | None] = [None] * len(basis.vectors)

    def coordinates(self, terms: dict, md: tuple[int, int, int], what: str = "a derivation"):
        """The coordinates of derivation terms of multidegree md, as a dict;
        RuntimeError, naming them ``what``, unless they lie in the span of
        the basis vectors of md."""
        rest, used = self.basis.reduce(md, terms)
        if rest:
            raise RuntimeError(
                f"{what} does not lie in the span of the basis vectors of "
                f"multidegree {md}, weight {sum(md)}"
            )
        return {self._index[lead]: c for lead, c in used.items()}

    def _constant(self, D, md: tuple[int, int, int], what: str) -> tuple:
        return tuple(self.coordinates(D.terms, md, what).items()) if D.terms else ()

    def _bracket(self, i: int, j: int) -> tuple:
        """[v_i, v_j] for i < j, taken and stored on first use."""
        (mdi, Di), (mdj, Dj) = self.basis.vectors[i], self.basis.vectors[j]
        md = (mdi[0] + mdj[0], mdi[1] + mdj[1], mdi[2] + mdj[2])
        coords = self._constant(
            closure.bracket(Di, Dj), md, f"the bracket of basis vectors {i} and {j}"
        )
        self._brackets.setdefault(i, {})[j] = coords
        return coords

    def _power(self, k: int) -> tuple:
        coords = self._powers[k]
        if coords is None:
            md, D = self.basis.vectors[k]
            coords = self._powers[k] = self._constant(
                closure.p_power(D),
                (self.p * md[0], self.p * md[1], self.p * md[2]),
                f"the p-th power of basis vector {k}",
            )
        return coords

    def weight_range(self, x: dict[int, int]) -> tuple[int, int] | None:
        """The least and largest weight of x; None when x is zero."""
        if not x:
            return None
        ws = [self.weights[k] for k in x]
        return min(ws), max(ws)

    def bracket(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """[x, y] = Σ x_i·y_j·[v_i, v_j], by antisymmetry from i < j only."""
        memo = self._brackets
        out: dict[int, int] = {}
        for i, a in x.items():
            row = memo.get(i, _NO_ROW)
            for j, b in y.items():
                if i < j:
                    coords = row.get(j)
                    if coords is None:
                        coords = self._bracket(i, j)
                    s = a * b
                elif i > j:
                    coords = memo.get(j, _NO_ROW).get(i)
                    if coords is None:
                        coords = self._bracket(j, i)
                    s = -a * b
                else:
                    continue
                for k, c in coords:
                    out[k] = out.get(k, 0) + s * c
        return _mod(out, self.p)

    def p_power(self, x: dict[int, int]) -> dict[int, int]:
        """x^{[p]}, with the basis vectors of x folded in one at a time.

        In Jacobson's formula a is the part of x already folded and
        b = c·v_k, so b^{[p]} = c^p·v_k^{[p]} = c·v_k^{[p]}.  ``poly[d]``
        is the coefficient of λ^d in ad(λa + b)^m(a) after m steps; its
        degree stays below m because [a, a] = 0.
        """
        p = self.p
        out: dict[int, int] = {}
        a: dict[int, int] = {}
        for k, c in x.items():
            _add(out, c, self._power(k))
            if a:
                b = {k: c}
                poly = [self.bracket(b, a)]
                for _ in range(p - 2):
                    nxt = [self.bracket(b, y) for y in poly] + [{}]
                    for d, y in enumerate(poly):
                        nxt[d + 1] = _mod(_add(nxt[d + 1], 1, self.bracket(a, y).items()), p)
                    poly = nxt
                for i, y in enumerate(poly, 1):
                    _add(out, pow(i, -1, p), y.items())
            a[k] = c
        return _mod(out, p)


_NO_ROW: dict = {}  # the memo row of an index with no bracket yet; never written


def _add(out: dict, s: int, pairs) -> dict:
    """out += s·Σ c·v_k over the (k, c) pairs, coefficients not reduced;
    returns out."""
    for k, c in pairs:
        out[k] = out.get(k, 0) + s * c
    return out


def _mod(x: dict, p: int) -> dict:
    """x with its coefficients reduced mod p and the zeros dropped."""
    return {k: r for k, c in x.items() if (r := c % p)}
