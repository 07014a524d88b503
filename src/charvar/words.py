"""Orbifold surface group presentations, free-word arithmetic and Fox calculus.

Everything in this module is exact: words are tuples of signed generator
letters, group-ring elements are integer dictionaries, and every identity
check is a literal free-reduction comparison.  No floating point.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from typing import Iterable, Optional

Letter = tuple[str, int]


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence with a stack; idempotent."""
    out: list[Letter] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


@functools.cache
def _inverse_letter(letter: Letter) -> Letter:
    """x -> x^-1, one tuple per letter that every inverse word shares.  Every
    signature names its generators a1, b1, ..., c1, ..., so the cache holds
    two letters per generator of the largest signature inverted."""
    return letter[0], -letter[1]


class FreeWord:
    """A freely reduced word in abstract generators.  Immutable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, *a):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def generator(cls, name: str, exp: int = 1) -> "FreeWord":
        return cls(((name, 1),) * exp if exp >= 0 else ((name, -1),) * (-exp))

    @classmethod
    def _reduced(cls, letters: tuple[Letter, ...]) -> "FreeWord":
        """The word of ``letters``, which must be freely reduced already."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        # both factors are reduced, so letters cancel only at the junction
        a, b = self.letters, other.letters
        n, k = len(a), 0
        while k < min(n, len(b)) and a[n - 1 - k][0] == b[k][0] and a[n - 1 - k][1] == -b[k][1]:
            k += 1
        return FreeWord._reduced(a[:n - k] + b[k:])

    def inverse(self) -> "FreeWord":
        # the inverse of a reduced word is reduced
        return FreeWord._reduced(tuple(map(_inverse_letter, reversed(self.letters))))

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        w = FreeWord()
        for _ in range(n):
            w = w * self
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self})"


class Signature:
    """Orbifold signature (g; e_1..e_m; n cusps) with the standard presentation

        a_1 b_1 a_1^-1 b_1^-1 ... a_g b_g a_g^-1 b_g^-1 c_1 ... c_{m+n} = 1.

    ``orders`` is the order of each marked generator c_1..c_{m+n}, in
    generator order (``None`` = cusp), so elliptic and parabolic generators
    may interleave, as they do for monodromy representations ordered by lasso
    angle.  Two signatures are equal when their genus and orders are.
    """

    def __init__(self, g: int, orders: tuple[Optional[int], ...] = ()):
        self.g, self.orders = g, tuple(orders)
        if g < 0:
            raise ValueError("genus must be non-negative")
        for e in self.orders:
            if e is not None and (not isinstance(e, int) or e < 2):
                raise ValueError(f"elliptic order must be an integer >= 2, got {e}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and (self.g, self.orders) == (other.g, other.orders)

    def __hash__(self) -> int:
        return hash((self.g, self.orders))

    @property
    def elliptic_orders(self) -> tuple[int, ...]:
        return tuple(o for o in self.orders if o is not None)

    @property
    def cusps(self) -> int:
        return self.orders.count(None)

    @property
    def num_marked(self) -> int:
        return len(self.orders)

    @property
    def dimension(self) -> int:
        return 3 * self.g - 3 + self.num_marked

    @functools.cached_property
    def marked_generators(self) -> tuple[str, ...]:
        """c1, ..., c(m+n), the generators that follow the 2g handle ones,
        built once per signature."""
        return tuple(f"c{i}" for i in range(1, self.num_marked + 1))

    @functools.cached_property
    def generators(self) -> tuple[str, ...]:
        """a1, b1, ..., ag, bg, c1, ..., c(m+n), built once per signature."""
        handles = (x for k in range(1, self.g + 1) for x in (f"a{k}", f"b{k}"))
        return (*handles, *self.marked_generators)

    def gen(self, name: str) -> FreeWord:
        if name not in self.generators:
            raise ValueError(f"unknown generator {name!r} for signature {self}")
        return FreeWord.generator(name)

    def __str__(self) -> str:
        return f"(g={self.g}; elliptic={list(self.elliptic_orders)}, cusps={self.cusps})"


#: one letter of a word as text; ``parse_word`` compiles it (``re`` caches
#: the result), so that importing the package compiles no pattern
_TOKEN = r"\s*([abc]\d+)\s*(?:\^\s*(-?\d+))?\s*\*?"


#: the most letters a word given as text may have (``parse_word``), counted
#: from its exponents before any is multiplied out: the Fox derivative of
#: a1^n has n terms of up to n letters, and at this length `charvar fox`
#: answers in 0.7 s with 180 MB (a 2-core x86-64 host, Python 3.11)
MAX_WORD_LETTERS = 2000

#: the most letters the relator of a signature read as input may have, 4g +
#: m + n (``serialize.signature_in``): `charvar identities` at this length
#: (g = 2048) answers in 56 s with 442 MB, and `charvar fox --word R` in
#: 0.4 s (a 2-core x86-64 host, Python 3.11)
MAX_RELATOR_LETTERS = 8192


def parse_word(text: str, sig: Signature) -> FreeWord:
    """Parse expressions like ``"a1 b1^-1 c2^3"`` into a reduced FreeWord of
    at most MAX_WORD_LETTERS letters before reduction."""
    gens, token = set(sig.generators), re.compile(_TOKEN)
    pos = 0
    tokens: list[tuple[str, int]] = []
    text = text.strip()
    if text in ("", "1"):
        return FreeWord()
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            raise ValueError(f"malformed word near {text[pos:pos + 12]!r}")
        name, exp_s = m.group(1), m.group(2)
        if name not in gens:
            raise ValueError(f"unknown generator {name!r} for signature {sig}")
        tokens.append((name, 1 if exp_s is None else int(exp_s)))
        pos = m.end()
    size = sum(abs(exp) for _, exp in tokens)
    if size > MAX_WORD_LETTERS:
        raise ValueError(f"word of {size} letters is above the maximum {MAX_WORD_LETTERS}")
    return FreeWord((name, 1 if exp >= 0 else -1) for name, exp in tokens for _ in range(abs(exp)))


class GroupRingElement:
    """Finite integer combination of freely reduced words (an element of Z[F])."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[FreeWord, int]] = None):
        clean = {w: c for w, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def from_word(cls, w: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return cls({w: coeff})

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({FreeWord(): 1})

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[FreeWord, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def anti_involution(self) -> "GroupRingElement":
        """The natural anti-involution #: sum n_j g_j -> sum n_j g_j^-1."""
        out: dict[FreeWord, int] = {}
        for w, c in self.terms.items():
            wi = w.inverse()
            out[wi] = out.get(wi, 0) + c
        return GroupRingElement(out)

    def sorted_terms(self, sig: Optional[Signature] = None) -> list[tuple[FreeWord, int]]:
        """Deterministic term order: by word length, then letters in the global
        generator order a1 < b1 < ... < c1 < ..."""
        if sig is not None:
            rank = {name: i for i, name in enumerate(sig.generators)}
            key = lambda w: (len(w.letters), [(rank[g], -e) for g, e in w.letters])
        else:
            key = lambda w: (len(w.letters), [(g, -e) for g, e in w.letters])
        return sorted(self.terms.items(), key=lambda it: key(it[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            s = str(w)
            parts.append(f"{'+' if c > 0 else '-'} {abs(c) if abs(c) != 1 else ''}{s}".strip())
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self) -> str:
        return f"GroupRingElement({self})"


def fox_derivative(w: FreeWord, gen: str) -> GroupRingElement:
    """Fox free derivative d(w)/d(gen).

    Base rules d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(y)/dx = 0, extended by the
    product rule d(uv)/dx = du/dx + u dv/dx.
    """
    terms: dict[FreeWord, int] = {}
    letters = w.letters  # reduced, so each prefix is a slice, reduced too
    for i, (name, exp) in enumerate(letters):
        if name == gen:
            # the prefix before x, or through x^-1: none repeats without an adjacent x^-1 x
            terms[FreeWord._reduced(letters[:i] if exp == 1 else letters[:i + 1])] = exp
    return GroupRingElement(terms)


def commutator(x: FreeWord, y: FreeWord) -> FreeWord:
    return x * y * x.inverse() * y.inverse()


def prefix_products(sig: Signature) -> list[FreeWord]:
    """R_0 = 1, R_k = prod_{i<=k} [a_i, b_i], R_{g+i} = R_g c_1...c_i."""
    out = [FreeWord()]
    for k in range(1, sig.g + 1):
        out.append(out[-1] * commutator(sig.gen(f"a{k}"), sig.gen(f"b{k}")))
    for c in sig.marked_generators:
        out.append(out[-1] * sig.gen(c))
    return out


def relator(sig: Signature) -> FreeWord:
    return prefix_products(sig)[-1]


#: Weil dual generators from the canonical fundamental domain's edge
#: pairing, tuples of words: alpha_k = R_{k-1} b_k^-1 R_k^-1, beta_k = R_k
#: a_k^-1 R_{k-1}^-1 and gamma_i = R_{g+i-1} c_i^-1 R_{g+i-1}^-1
DualGenerators = namedtuple("DualGenerators", "alphas betas gammas")


def dual_generators(sig: Signature) -> DualGenerators:
    R = prefix_products(sig)
    alphas = tuple(
        R[k - 1] * sig.gen(f"b{k}").inverse() * R[k].inverse() for k in range(1, sig.g + 1)
    )
    betas = tuple(
        R[k] * sig.gen(f"a{k}").inverse() * R[k - 1].inverse() for k in range(1, sig.g + 1)
    )
    gammas = tuple(
        R[sig.g + i - 1] * sig.gen(f"c{i}").inverse() * R[sig.g + i - 1].inverse()
        for i in range(1, sig.num_marked + 1)
    )
    return DualGenerators(alphas, betas, gammas)


#: one identity of the suite, whether it holds, and a witness string
IdentityCheck = namedtuple("IdentityCheck", "identity status witness", defaults=("",))


class PresentationReport(namedtuple("PresentationReport",
                                    "signature checks alpha_convention beta_sign")):
    """Outcome of the exact word-identity suite for one signature: the
    ``IdentityCheck``s in order.

    ``alpha_convention`` records which alpha definition makes
    #dR/da_k = R_{k-1}^-1 (1 - alpha_k) exact; ``beta_sign`` records the sign
    s with #dR/db_k = s * R_k^-1 (1 - beta_k).  Both are determined by free
    reduction, not assumed.
    """
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.status for c in self.checks)


def _ring_one_minus(w: FreeWord) -> GroupRingElement:
    return GroupRingElement({FreeWord(): 1, w: -1})


def verify_presentation_identities(sig: Signature) -> PresentationReport:
    """Exact checks of the canonical-domain word identities.

    Verifies [alpha_k, beta_k] = R_{k-1} R_k^-1, the telescoped products
    calR_k = R_k^-1 and calR_g gamma_1...gamma_{m+n} = R^-1, and resolves the
    sharp/Fox identities #dR/da_k, #dR/db_k against both candidate alpha
    definitions and both signs, recording what actually reduces to zero.
    """
    checks: list[IdentityCheck] = []
    alpha_convention: Optional[str] = None
    beta_sign: Optional[int] = None
    R = prefix_products(sig)
    duals = dual_generators(sig)
    Rword = R[-1]

    calR = FreeWord()
    for k in range(1, sig.g + 1):
        a_k, b_k = duals.alphas[k - 1], duals.betas[k - 1]
        lhs = commutator(a_k, b_k)
        rhs = R[k - 1] * R[k].inverse()
        ok = lhs == rhs
        checks.append(IdentityCheck(
            f"[alpha_{k},beta_{k}] == R_{k - 1} R_{k}^-1", ok,
            "" if ok else str(lhs * rhs.inverse())))
        calR = calR * lhs
        ok = calR == R[k].inverse()
        checks.append(IdentityCheck(
            f"calR_{k} == R_{k}^-1", ok, "" if ok else str(calR * R[k])))

    total = calR
    for gamma in duals.gammas:
        total = total * gamma
    ok = total == Rword.inverse()
    checks.append(IdentityCheck(
        "calR_g gamma_1..gamma_{m+n} == R^-1", ok, "" if ok else str(total * Rword)))

    for k in range(1, sig.g + 1):
        sharp_a = fox_derivative(Rword, f"a{k}").anti_involution()
        alpha_311 = duals.alphas[k - 1]
        alpha_remark = R[k] * sig.gen(f"b{k}").inverse() * R[k].inverse()
        pre = GroupRingElement.from_word(R[k - 1].inverse())
        convention = None
        if sharp_a == pre * _ring_one_minus(alpha_311):
            convention = "section_3.1.1"
        elif sharp_a == pre * _ring_one_minus(alpha_remark):
            convention = "remark_dual"
        checks.append(IdentityCheck(
            f"#dR/da_{k} == R_{k - 1}^-1 (1 - alpha_{k})", convention is not None,
            f"alpha definition: {convention}"))
        if convention is not None:
            if alpha_convention not in (None, convention):
                convention = "inconsistent"
            alpha_convention = convention

        sharp_b = fox_derivative(Rword, f"b{k}").anti_involution()
        base = GroupRingElement.from_word(R[k].inverse()) * _ring_one_minus(duals.betas[k - 1])
        sign = None
        if sharp_b == base:
            sign = 1
        elif sharp_b == -base:
            sign = -1
        checks.append(IdentityCheck(
            f"#dR/db_{k} == s * R_{k}^-1 (1 - beta_{k})", sign is not None,
            f"resolved sign s = {sign}"))
        if sign is not None:
            if beta_sign not in (None, sign):
                sign = 0
            beta_sign = sign

    for i in range(1, sig.num_marked + 1):
        got = fox_derivative(Rword, f"c{i}")
        want = GroupRingElement.from_word(R[sig.g + i - 1])
        ok = got == want
        checks.append(IdentityCheck(
            f"dR/dc_{i} == R_{sig.g + i - 1}", ok, "" if ok else str(got - want)))

    return PresentationReport(sig, tuple(checks), alpha_convention, beta_sign)


def fundamental_class_chain(sig: Signature) -> tuple[tuple[GroupRingElement, str], ...]:
    """The (Fox derivative dR/dx, generator x) pairs of the Goldman sum, over
    a_k, b_k, then c_i; for a closed signature this is exactly the
    group-homology 2-cycle realizing the fundamental class."""
    Rword = relator(sig)
    return tuple((fox_derivative(Rword, x), x) for x in sig.generators)
