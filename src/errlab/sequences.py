"""Sieves and constructors for arithmetical sequences.

Covers the Moebius and Euler-totient sieves, real Dirichlet characters
realized by the Kronecker symbol on fundamental discriminants, character
twists, the Dirichlet convolution b(n) = sum_{d|n} a(d) * (n/d), exact
summatory sums with the right-continuous convention, and float estimates of
the series constants A2 = sum a(n)/n^2 and A1 = sum a(n)/n with certified
error bounds.

Only the sieves store numpy arrays: the Moebius and totient sieves and their
twists.  Every other sequence holds a list of exact values (Python ints,
Fractions or ConstLinear scalars), a numpy array handed to ArithSequence
included.  A complex value is a ConstLinear scalar; summatory and the floor
sums return a GaussianRational.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import lfunc
from .errors import (CapacityError, DomainError, FormatError, PrecisionError,
                     UncertifiableSeriesError)
from .exactnum import ConstLinear, GaussianRational
from .report import write_csv_rows

__all__ = [
    "ArithSequence",
    "CharacterSpec",
    "MAX_SIEVE",
    "mobius_sieve",
    "totient_sieve",
    "kronecker_symbol",
    "is_fundamental_discriminant",
    "kronecker_character",
    "twist",
    "convolve_id",
    "summatory",
    "summatory_via_floor_identity",
    "floor_sum",
    "numeric_constants",
    "mobius_constants",
    "read_sequence_csv",
    "write_sequence_csv",
    "read_character_csv",
    "write_character_csv",
]

#: Memory budget guard: sieves refuse ranges beyond this.
MAX_SIEVE = 1 << 24

Value = Union[int, Fraction, ConstLinear]


class ArithSequence:
    """Exact values a(1..N) with metadata.

    ``magnitude_bound`` is a rational B with |a(n)| <= B for every n, used for
    series tail bounds.  ``known_A1`` declares the exact value of
    sum_{n>=1} a(n)/n when that sum is known; for the Moebius function it is 0.
    ``values`` lists a(1..N); a numpy array holds a(0..N), with index 0
    ignored, and must have an integer dtype.  Either way the sequence keeps
    a list of the values as Python objects; only _sieved keeps an array.
    A GaussianRational value is stored as a ConstLinear scalar.
    """

    def __init__(self, name: str, values, magnitude_bound: Optional[Fraction] = None,
                 known_A1: Optional[GaussianRational] = None):
        if isinstance(values, np.ndarray):
            if not np.issubdtype(values.dtype, np.integer):
                raise TypeError(f"sequence {name!r}: numpy values need an integer "
                                f"dtype, not {values.dtype}")
            values = values[1:].tolist()
        self.name = name
        self._arr = None
        self._list = [0] + [ConstLinear(v) if isinstance(v, GaussianRational) else v
                            for v in values]
        self.N = len(self._list) - 1
        self.magnitude_bound = None if magnitude_bound is None else Fraction(magnitude_bound)
        self.known_A1 = known_A1
        self._prefix = None

    @classmethod
    def _sieved(cls, name: str, arr: np.ndarray, magnitude_bound=None,
                known_A1=None) -> "ArithSequence":
        """A sequence backed by a sieve's array arr, a(0..N) with index 0
        padding: mobius_sieve's int8 values in {-1, 0, 1}, totient_sieve's
        int64 values in [0, N], or a twist of either, which keeps its dtype
        and stays within [-N, N].  N <= MAX_SIEVE = 2**24, so every value is
        within _a2_bins' limits."""
        seq = cls(name, [], magnitude_bound, known_A1)
        seq._arr, seq._list, seq.N = arr, None, len(arr) - 1
        return seq

    def value(self, n: int) -> Value:
        if not 1 <= n <= self.N:
            raise DomainError(f"index {n} outside 1..{self.N}")
        if self._arr is not None:
            return int(self._arr[n])
        return self._list[n]

    def int_array(self) -> Optional[np.ndarray]:
        """The sieve's array (index 0 padding) for a sieve or its twist, else None."""
        return self._arr

    def prefix_sum(self, k: int) -> Value:
        """sum_{n<=k} a(n), exact; k = 0 gives 0."""
        if not 0 <= k <= self.N:
            raise DomainError(f"index {k} outside 0..{self.N}")
        if self._prefix is None:
            vals = self._list[1:] if self._arr is None else self._arr[1:].tolist()
            self._prefix = [0] + list(accumulate(vals))
        return self._prefix[k]

    def __repr__(self):
        return f"ArithSequence({self.name!r}, N={self.N})"


@dataclass(frozen=True)
class CharacterSpec:
    """A real Dirichlet character mod q as a period table chi(0..q-1)."""

    q: int
    table: tuple

    def chi(self, n: int) -> int:
        return self.table[n % self.q]

    def validate(self) -> None:
        """Raise ValueError unless the table is a non-principal real character."""
        q, t = self.q, self.table
        if q < 3:
            raise ValueError("modulus must be at least 3")
        if len(t) != q:
            raise ValueError("table length must equal the modulus")
        if any(v not in (-1, 0, 1) for v in t):
            raise ValueError("values must lie in {-1, 0, +1}")
        for n in range(q):
            if (t[n] == 0) != (math.gcd(n, q) > 1):
                raise ValueError(f"chi({n}) must vanish exactly on gcd(n, q) > 1")
        # The zero pattern settles products with a non-unit.  A unit g outside
        # the subgroup `sub` where t is multiplicative extends it to the cosets
        # h g^j, 0 <= j < m, g^m in sub: at least doubling, O(q) products.
        if t[1] != 1:
            raise ValueError("multiplicativity fails at (1, 1)")
        sub, inside = [1], bytearray(q)
        inside[1] = 1
        for g in range(2, q):
            if inside[g] or not t[g]:
                continue
            new, prev, p, tp = [], 1, g, t[g]      # p = g^j mod q, tp = t(g)^j
            while not inside[p]:
                for h in sub:                      # h = 1 first: t(g^j) = t(g)^j
                    r = h * p % q
                    if t[r] != t[h] * tp:
                        raise ValueError("multiplicativity fails at "
                                         f"{(h, p) if h != 1 else (g, prev)}")
                    inside[r] = 1
                    new.append(r)
                prev, p, tp = p, p * g % q, tp * t[g]
            if t[p] != tp:
                raise ValueError(f"multiplicativity fails at {(g, prev)}")
            sub += new
        if sum(t) != 0:
            raise ValueError("character is principal (table does not sum to 0)")


def _check_capacity(n: int) -> None:
    if n > MAX_SIEVE:
        raise CapacityError(f"range {n} exceeds the sieve budget {MAX_SIEVE}")
    if n < 1:
        raise ValueError("range must be positive")


def _prime_mask(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return mask


_SIEVE_BLOCK = 1 << 18
_WHEEL = 2 * 2 * 3 * 3 * 5 * 5 * 7 * 7


def _mobius_blocks(n: int):
    """(lo, mu(lo..lo+size-1) as int8) for blocks of _SIEVE_BLOCK entries
    from lo = 1 on, the last one cut at n.

    A block holds, for each m, the product of the sieved primes dividing m,
    negated once per prime and zeroed by each p^2 dividing m.  It starts as
    the wheel, the int32 pattern of period _WHEEL that holds this product
    for the primes 2, 3, 5 and 7 at r = m mod _WHEEL, copied in slices, and
    then sieves the primes 11 <= p <= sqrt(n).  Every prime of m up to
    sqrt(n) is sieved, so at most one is missing and the product divides m,
    fitting int32; a squarefree m whose product is short of m takes one
    more sign flip.

    Every block is written into the same buffers, so a yielded block is
    valid only until the next one is requested.
    """
    # n < _WHEEL sieves one block of m <= n, which never wraps the pattern
    wheel = np.ones(min(_WHEEL, n + 1), dtype=np.int32)
    for p in (2, 3, 5, 7):
        wheel[::p] *= -p
        wheel[::p * p] = 0
    # the primes up to sqrt(n) after 2, 3, 5 and 7
    primes = np.flatnonzero(_prime_mask(math.isqrt(n))).tolist()[4:]
    prod = np.empty(min(_SIEVE_BLOCK, n), dtype=np.int32)
    m = np.arange(1, prod.size + 1, dtype=np.int32)
    signs = np.empty(prod.size, dtype=np.int8)
    full = np.empty(prod.size, dtype=bool)
    for lo in range(1, n + 1, _SIEVE_BLOCK):
        size = min(_SIEVE_BLOCK, n + 1 - lo)
        pos, r = 0, lo % _WHEEL
        while pos < size:
            k = min(wheel.size - r, size - pos)
            prod[pos:pos + k] = wheel[r:r + k]
            pos, r = pos + k, 0
        part = prod[:size]
        for p in primes:
            part[-lo % p::p] *= -p
            first = -lo % (p * p)
            if first < size:
                part[first::p * p] = 0
        block = signs[:size]
        np.sign(part, out=block, casting="unsafe")
        np.abs(part, out=part)
        flip = np.equal(part, m[:size], out=full[:size]).view(np.int8)
        flip *= 2
        flip -= 1
        block *= flip
        yield lo, block
        m += _SIEVE_BLOCK


def mobius_sieve(n: int) -> ArithSequence:
    """mu(1..n); squarefree sign by parity of prime factors, 0 otherwise."""
    _check_capacity(n)
    mu = np.zeros(n + 1, dtype=np.int8)
    for lo, block in _mobius_blocks(n):
        mu[lo:lo + block.size] = block
    return ArithSequence._sieved("mu", mu, magnitude_bound=Fraction(1),
                                 known_A1=GaussianRational(0))


def totient_sieve(n: int) -> ArithSequence:
    """phi(1..n), the count of residues coprime to n."""
    _check_capacity(n)
    phi = np.arange(n + 1, dtype=np.int64)
    primes = np.nonzero(_prime_mask(n))[0]
    for p in primes:
        phi[p::p] -= phi[p::p] // p
    phi[0] = 0
    return ArithSequence._sieved("phi", phi)


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a|n) for arbitrary integers a and n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1 if v % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def is_fundamental_discriminant(d: int) -> bool:
    if d in (0, 1) or abs(d) < 3:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def kronecker_character(d: int) -> CharacterSpec:
    """The real non-principal character mod |d| attached to a fundamental
    discriminant d, as its period table.  The Kronecker symbol is a character
    by construction, so the table skips CharacterSpec.validate."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant with |d| >= 3")
    q = abs(d)
    return CharacterSpec(q, tuple(kronecker_symbol(d, r) for r in range(q)))


def _twisted_blocks(blocks, chi: CharacterSpec):
    """Each (lo, block) of blocks, block[i] multiplied in place by chi(lo + i)
    in the block's own dtype.  The period table, tiled to cover the longest
    block so far plus q entries, is cut at r = lo mod q."""
    table = np.empty(0, dtype=np.int8)
    for lo, block in blocks:
        r = lo % chi.q
        if r + block.size > table.size:
            table = np.tile(np.asarray(chi.table, dtype=np.int8), block.size // chi.q + 2)
        block *= table[r:r + block.size]
        yield lo, block


def twist(a: ArithSequence, chi: CharacterSpec) -> ArithSequence:
    """Pointwise product a(n) * chi(n mod q); the magnitude bound survives.

    A sieve's array is copied and twisted _SIEVE_BLOCK entries at a time in
    its own dtype, which holds every -a(n); other values are multiplied as
    they are.
    """
    name = f"{a.name}*chi({chi.q})"
    arr = a.int_array()
    if arr is not None:
        out = arr.copy()
        for _ in _twisted_blocks(((lo, out[lo:lo + _SIEVE_BLOCK])
                                  for lo in range(0, out.size, _SIEVE_BLOCK)), chi):
            pass
        return ArithSequence._sieved(name, out, magnitude_bound=a.magnitude_bound)
    vals = [a.value(n) * chi.chi(n) for n in range(1, a.N + 1)]
    return ArithSequence(name, vals, magnitude_bound=a.magnitude_bound)


def _divisor_pass(a: ArithSequence, w: list):
    """out[m] = sum_{d|m} a(d) * w[m/d] for 1 <= m < len(w); index 0 is padding.

    w is a list of weights indexed by the cofactor m/d (w[0] is unused):
    the cofactors themselves give convolve_id, ones give the unit sum.
    """
    upto = len(w) - 1
    out = [0] * (upto + 1)
    for d in range(1, upto + 1):
        v = a.value(d)
        if not v:
            continue
        for q, m in enumerate(range(d, upto + 1, d), start=1):
            out[m] = out[m] + v * w[q]
    return out


def convolve_id(a: ArithSequence) -> ArithSequence:
    """b(n) = sum_{d|n} a(d) * (n/d) for n <= a.N, by divisor passes."""
    return ArithSequence(f"({a.name})*Id", _divisor_pass(a, list(range(a.N + 1)))[1:])


def _gaussian(value: Value) -> GaussianRational:
    """A sequence value or sum as a GaussianRational."""
    return ConstLinear(value).c1


def summatory(b: ArithSequence, x) -> GaussianRational:
    """Exact sum_{n<=x} b(n), right-continuous: integer x includes the term n=x."""
    x = Fraction(x)
    if x < 0 or x > b.N:
        raise DomainError(f"summatory point {x} outside 0..{b.N}")
    return _gaussian(b.prefix_sum(math.floor(x)))


def _floor_weighted(a: ArithSequence, x, weight) -> GaussianRational:
    """sum_{d<=x} a(d) * weight(floor(x/d)), exact.

    With k = floor(x), floor(x/d) = floor(k/d) takes one value m on each block
    of d in [lo, k // (k // lo)], so there are O(sqrt(x)) blocks, each summed
    as a prefix-sum difference of a.
    """
    x = Fraction(x)
    if x < 0 or x > a.N:
        raise DomainError(f"evaluation point {x} outside 0..{a.N}")
    k = math.floor(x)
    total = below = 0
    lo = 1
    while lo <= k:
        m = k // lo
        hi = k // m
        upto = a.prefix_sum(hi)
        total = total + (upto - below) * weight(m)
        below, lo = upto, hi + 1
    return _gaussian(total)


def summatory_via_floor_identity(a: ArithSequence, x) -> GaussianRational:
    """sum_{d<=x} a(d) * floor(x/d) * (floor(x/d)+1) / 2, exact.

    Equals summatory(convolve_id(a), x) by exchanging the order of summation.
    """
    return _floor_weighted(a, x, lambda m: m * (m + 1) // 2)


def floor_sum(a: ArithSequence, x) -> GaussianRational:
    """sum_{d<=x} a(d) * floor(x/d), exact."""
    return _floor_weighted(a, x, lambda m: m)


_A2_CHUNK = 1 << 13
_A2_HALF = 39


def _a2_bins(blocks) -> float:
    """math.fsum of the floats int(v) / (n*n) over every entry v = block[i],
    n = start + i, of the (start, block) pairs in blocks: their exact sum,
    correctly rounded, found without a Python float per term.

    Each n must lie below 2**26 and each |v| at most 2**24.  Then n*n and v
    are exact in float64, and the numpy quotient t is the correctly rounded
    one that Python's int / int gives.  The terms go in chunks of at most
    _A2_CHUNK whose n share one interval [2**j, 2**(j + 1)).  With r the
    float 1/(n*n) of the chunk's last n and k = 53 - frexp(r)[1], every
    nonzero t of the chunk is at least r in magnitude, so t * 2**k is an
    integer, of magnitude at most 2**(54 + 24).  It splits as
    hi * 2**_A2_HALF + lo with |hi| <= 2**39 and 0 <= lo < 2**_A2_HALF,
    and each half is summed in float64: every partial sum is an integer
    below 2**53, so the sums are exact in any order.  The chunk sums are
    joined as Python ints and divided once.
    """
    offsets = np.arange(_A2_CHUNK, dtype=np.float64)
    scaled = []
    for start, block in blocks:
        j = 0
        while j < block.size:
            n0 = start + j
            part = block[j:j + min(_A2_CHUNK, (1 << n0.bit_length()) - n0)]
            j += part.size
            n = n0 + part.size - 1
            k = 53 - math.frexp(1 / (n * n))[1]
            t = offsets[:part.size] + n0
            t *= t
            np.divide(part, t, out=t)
            t *= 2.0 ** (k - _A2_HALF)
            hi = np.floor(t)
            t -= hi
            scaled.append(((int(hi.sum()) << _A2_HALF) + int(t.sum() * 2.0 ** _A2_HALF), k))
    shift = max((k for _, k in scaled), default=0)
    return sum(s << (shift - k) for s, k in scaled) / (1 << shift)


def _partial_a2(a: ArithSequence) -> complex:
    """Float partial sum of a(n)/n^2 over the stored range, ascending n.

    math.fsum is correctly rounded, so a sieve's array may sum its terms
    in any order and grouping that is exact, as _a2_bins does.  An int value
    is divided directly: int / int rounds correctly, as the float of the
    Fraction quotient of any other value does.
    """
    arr = a.int_array()
    if arr is not None:
        return complex(_a2_bins([(1, arr[1:])]))
    re = []
    im = []
    for n in range(1, a.N + 1):
        v = a.value(n)
        nn = n * n
        if isinstance(v, ConstLinear):
            z = v.c1
            re.append(z.re / nn)
            im.append(z.im / nn)
        else:
            re.append(v / nn)
    return complex(math.fsum(re), math.fsum(im))


def _certified(n: int, bound, known_A1, chi, precision_target: float, partial_a2):
    """(a2, a1, (a2_bound, a1_bound)) for a sequence on 1..n with magnitude
    bound ``bound`` and declared ``known_A1``; partial_a2() sums a2 once its
    tail bound is known to meet the target."""
    if precision_target <= 0:
        raise ValueError("precision target must be positive")
    if bound is None:
        raise UncertifiableSeriesError(
            "no magnitude bound is declared; the a2 tail cannot be certified")
    a2_bound = float(bound) / n
    if a2_bound > precision_target:
        raise PrecisionError(
            f"a2 tail bound {a2_bound:.3g} exceeds the target {precision_target:.3g}; "
            f"extend the sieve range (currently {n})")
    a2 = partial_a2()

    if known_A1 is not None:
        return a2, complex(known_A1), (a2_bound, 0.0)
    if chi is not None:
        lval, lerr = lfunc.dirichlet_l(1.0, chi)
        if abs(lval) <= lerr:
            raise PrecisionError("L(1, chi) evaluation is not separated from zero")
        a1 = 1.0 / lval
        a1_bound = lerr / (abs(lval) * (abs(lval) - lerr))
        if a1_bound > precision_target:
            raise PrecisionError(
                f"a1 bound {a1_bound:.3g} exceeds the target {precision_target:.3g}")
        return a2, complex(a1), (a2_bound, a1_bound)
    raise UncertifiableSeriesError(
        "a1 requested but the sequence declares no known value and has no "
        "character structure (conditional convergence not certifiable)")


def numeric_constants(a: ArithSequence, chi: Optional[CharacterSpec] = None,
                      precision_target: float = 1e-6):
    """Float values (a2, a1, (a2_bound, a1_bound)) for the series constants.

    a2 is the partial sum of a(n)/n^2 over the stored range with the tail
    bound B/N, where B is the declared ``magnitude_bound`` (no bound raises;
    a character does not bound the values).  a1 comes from ``known_A1`` when declared,
    else from 1/L(1, chi) for a Moebius twist by ``chi``; a bare sequence has
    no certificate of conditional convergence and raises.
    """
    return _certified(a.N, a.magnitude_bound, a.known_A1, chi, precision_target,
                      lambda: _partial_a2(a))


def mobius_constants(n: int, chi: Optional[CharacterSpec] = None,
                     precision_target: float = 1e-6):
    """numeric_constants of mobius_sieve(n), or with ``chi`` of its twist by
    chi, without either array: the sieve, the twist and the a2 sum run one
    block of _SIEVE_BLOCK entries at a time."""
    _check_capacity(n)
    blocks = _mobius_blocks(n) if chi is None else _twisted_blocks(_mobius_blocks(n), chi)
    known_A1 = GaussianRational(0) if chi is None else None
    # n <= MAX_SIEVE < 2**26 and |mu(m) chi(m)| <= 1, within _a2_bins' limits
    return _certified(n, Fraction(1), known_A1, chi, precision_target,
                      lambda: complex(_a2_bins(blocks)))


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------

def _parse_value(text: str) -> Value:
    g = GaussianRational.from_text(text)
    if g.im:
        return g
    f = g.re
    return int(f) if f.denominator == 1 else f


def _read_table(path: Path, layouts, first: int, parse, order: str):
    """(header, rows) of the CSV table at path: the stripped header, one of
    layouts, and each row's fields after the index, read by parse.

    Every row must have the header's field count, and the indices, read by
    int(), must run first, first + 1, .. in order (else ``order``).  A
    malformed row raises a FormatError that names the file and the row.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header not in layouts:
            raise FormatError(f"{path}: header must be "
                              + " or ".join(f"'{','.join(h)}'" for h in layouts))
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise FormatError(f"{path}: row {i} has {len(row)} fields")
            try:
                index, fields = int(row[0]), [parse(v) for v in row[1:]]
            except ValueError as exc:
                raise FormatError(f"{path}: row {i}: {exc}") from exc
            if index != first + i - 1:
                raise FormatError(f"{path}: {order} (row {i})")
            rows.append(fields)
    return header, rows


def read_sequence_csv(path):
    """Load a sequence from CSV.

    Header ``n,value`` yields (a, None); header ``n,a,b`` yields the pair
    (a, b) with b taken as supplied (verification will exercise it).
    Indices must be contiguous from 1.
    """
    path = Path(path)
    header, rows = _read_table(path, (["n", "value"], ["n", "a", "b"]), 1, _parse_value,
                               "indices must be contiguous from 1")
    if not rows:
        raise FormatError(f"{path}: no data rows")
    a = ArithSequence(path.stem, [r[0] for r in rows])
    b = ArithSequence(path.stem + ".b", [r[1] for r in rows]) if len(header) == 3 else None
    return a, b


def write_sequence_csv(target, a: ArithSequence) -> None:
    """``n,value`` rows; target is a path or an open text stream."""
    write_csv_rows(target, ["n", "value"],
               ([n, _gaussian(a.value(n)).to_text()] for n in range(1, a.N + 1)))


def read_character_csv(path) -> CharacterSpec:
    """Load a character table from CSV ``residue,value`` and validate it."""
    path = Path(path)
    _, rows = _read_table(path, (["residue", "value"],), 0, int,
                          "residues must run 0..q-1 in order")
    chi = CharacterSpec(len(rows), tuple(r[0] for r in rows))
    try:
        chi.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return chi


def write_character_csv(target, chi: CharacterSpec) -> None:
    """``residue,value`` rows; target is a path or an open text stream."""
    write_csv_rows(target, ["residue", "value"], enumerate(chi.table))
