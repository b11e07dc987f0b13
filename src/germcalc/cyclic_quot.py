"""Hirzebruch-Jung chains, cyclic quotient types, and class-T recognition.

A chain [a_1, ..., a_r] (all a_i >= 2) contracts to the cyclic quotient
singularity 1/n(1, q) where n/q is the alternating continued fraction
a_1 - 1/(a_2 - 1/(...)), read left to right.  Reversing the chain produces
the inverse residue q' with q q' = 1 mod n.

Class T is the family of cyclic quotients admitting one-parameter smoothings
with terminal total space.  Its members are recognised here in two
independent ways and the witnesses are cross-checked:

* arithmetically: n = d m^2 and q = d m a - 1 with gcd(a, m) = 1, and
* recursively: the chains generated from the bases [4] and [3, 2, ..., 2, 3]
  by the two moves [b_1, ..., b_r] -> [2, b_1, ..., b_r + 1] and
  [b_1 + 1, ..., b_r, 2].

Du Val chains (all entries 2) are never class T under either criterion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd, isqrt


@dataclass(frozen=True)
class HJChain:
    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("chain must be nonempty")
        if any(a < 2 for a in self.entries):
            raise ValueError("chain entries must all be >= 2")


@dataclass(frozen=True)
class CycQuot:
    """The cyclic quotient type 1/n(1, q), with 0 < q < n and gcd(n, q) = 1."""

    n: int
    q: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("order n must be >= 2")
        if not 0 < self.q < self.n:
            raise ValueError("need 0 < q < n")
        if gcd(self.n, self.q) != 1:
            raise ValueError("need gcd(n, q) = 1")

    def __str__(self) -> str:
        return f"1/{self.n}(1,{self.q})"


@dataclass(frozen=True)
class TCertificate:
    """Result of class-T recognition.

    When ``verdict`` is true both witnesses are present: ``base``/``steps``
    replay to the chain through the two growth moves ("L" prepends 2 and bumps
    the last entry, "R" bumps the first entry and appends 2), and (d, m, a)
    satisfies n = d m^2, q = d m a - 1, gcd(a, m) = 1.
    """

    verdict: bool
    chain: HJChain
    base: tuple[int, ...] | None = None
    steps: tuple[str, ...] | None = None
    d: int | None = None
    m: int | None = None
    a: int | None = None

    def replay(self) -> tuple[int, ...]:
        if not self.verdict:
            raise ValueError("no derivation on a negative certificate")
        cur = deque(self.base or ())
        for step in self.steps or ():
            if step == "L":
                cur[-1] += 1
                cur.appendleft(2)
            elif step == "R":
                cur[0] += 1
                cur.append(2)
            else:
                raise ValueError(f"unknown derivation step {step!r}")
        return tuple(cur)


def chain_to_quot(c: HJChain) -> CycQuot:
    """Evaluate the continued fraction of the chain as a reduced type.

    From the right, p/q becomes a - q/p = (a p - q)/p; consecutive
    continuants are coprime, so n/q needs no reduction.
    """
    n, q = c.entries[-1], 1
    for a in reversed(c.entries[:-1]):
        n, q = a * n - q, n
    return CycQuot(n, q)


def quot_to_chain(s: CycQuot) -> HJChain:
    """Expand 1/n(1, q) into its chain by repeated round-up division."""
    n, q = s.n, s.q
    entries = []
    while q > 0:
        a = -(-n // q)  # ceil(n / q)
        entries.append(a)
        n, q = q, a * q - n
    return HJChain(tuple(entries))


def du_val_A(c: HJChain) -> int | None:
    """The r of an A_r chain (all entries 2), or None."""
    if all(a == 2 for a in c.entries):
        return len(c.entries)
    return None


def _is_base(entries: tuple[int, ...]) -> bool:
    if entries == (4,):
        return True
    return (
        len(entries) >= 2
        and entries[0] == 3
        and entries[-1] == 3
        and all(a == 2 for a in entries[1:-1])
    )


def _find_derivation(entries: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
    """Run the growth moves backwards until a base chain appears.

    Each move leaves a 2 at one end and an entry >= 3 at the other, and
    neither base has a 2 at an end, so at most one inverse move applies at
    any point: the walk is forced and takes O(r) steps.  A chain with a 2 at
    both ends is never reached by a move.  The current chain is
    ``(left, entries[lo+1:hi], right)``, or ``(left,)`` once ``lo == hi``.
    """
    lo, hi = 0, len(entries) - 1
    left, right = entries[0], entries[-1]
    undone = []
    while lo < hi:
        if left == 2 and right >= 3:  # undo "L": drop the leading 2, lower the last entry
            lo += 1
            right -= 1
            left = entries[lo] if lo < hi else right
            undone.append("L")
        elif right == 2 and left >= 3:  # undo "R": drop the trailing 2, lower the first entry
            hi -= 1
            left -= 1
            right = entries[hi] if lo < hi else left
            undone.append("R")
        else:
            break
    base = (left,) if lo == hi else (left, *entries[lo + 1:hi], right)
    if not _is_base(base):
        return None
    undone.reverse()
    return base, tuple(undone)


def _arithmetic_witness(s: CycQuot) -> tuple[int, int, int] | None:
    hits = []
    for m in range(2, isqrt(s.n) + 1):
        if s.n % (m * m):
            continue
        d = s.n // (m * m)
        if (s.q + 1) % (d * m):
            continue
        a = (s.q + 1) // (d * m)
        if 1 <= a < m and gcd(a, m) == 1:
            hits.append((d, m, a))
    if not hits:
        return None
    if len(hits) > 1:
        raise AssertionError(f"ambiguous class-T data for {s}: {hits}")
    return hits[0]


def classify_T(s: CycQuot) -> TCertificate:
    """Recognise class T, returning both witnesses or a negative verdict.

    The two recognitions are computed independently; disagreement would be an
    implementation bug and raises instead of returning.
    """
    c = quot_to_chain(s)
    derivation = _find_derivation(c.entries)
    arithmetic = _arithmetic_witness(s)
    if (derivation is None) != (arithmetic is None):
        raise AssertionError(f"class-T witnesses disagree for {s}")
    if derivation is None or arithmetic is None:
        return TCertificate(False, c)
    base, steps = derivation
    d, m, a = arithmetic
    cert = TCertificate(True, c, base, steps, d, m, a)
    if cert.replay() != c.entries:
        raise AssertionError(f"derivation replay failed for {s}")
    return cert
