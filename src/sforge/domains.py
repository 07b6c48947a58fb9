"""Ambient k-uniform ground families and their structural certificates.

Five concrete kinds are supported, each materialized as an explicit
SetFamily over an encoded ground set of at most 64 bits:

* ``binomial``           all k-subsets of [n];
* ``sequences``          functions [k] -> [n], one bit per (position, value);
* ``kpartite_product``   one block of [n] per part, a k_i-subset in each;
* ``permutations``       bijections of [n] as n-subsets of the [n] x [n] grid;
* ``complex_layer``      the k-element faces of a simplicial complex given
                         by its maximal faces.

Everything downstream (depth-t spreadness, homogeneity, the assumption
battery) runs off one lazily built table of exact link counts, so verdicts
are independent of any closed form.  Closed forms exist for the symmetric
kinds and the tests hold them against the table.  Beside the table a domain
caches its shadow layers and a member index (element -> bitset of the
members holding it), which answers link and trace queries without a scan;
a link domain reads its table off its parent's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations as iter_permutations, product
from math import comb
from typing import Optional, Sequence

from .errors import CapacityError, ParseError, PreconditionError, VerificationError
from .family import (
    GroundSet,
    SetFamily,
    bit_subsets,
    canonical,
    elements_of,
    holders,
    member_index,
    restrict,
    select,
)
from .spread import _as_fraction, _link_counts, check_spread

_MEMBER_CAP = 200_000
_PERMUTATION_CAP = 7
_REGULARITY_CAP = 5_000_000  # link-shadow sets check_assumptions' regularity trials may visit


@dataclass(frozen=True)
class Domain:
    """A k-uniform ambient family with exact link counting."""

    kind: str
    family: SetFamily
    k: int
    params: dict = field(compare=False, hash=False)

    def __post_init__(self):
        if self.family.uniformity != self.k:
            raise PreconditionError(
                "domain members must all have the declared size",
                k=self.k, got=self.family.uniformity,
            )

    # -- construction -------------------------------------------------

    @staticmethod
    def binomial(n: int, k: int) -> "Domain":
        if not (1 <= k <= n):
            raise PreconditionError("binomial domain needs 1 <= k <= n", n=n, k=k)
        if comb(n, k) > _MEMBER_CAP:
            raise CapacityError("binomial domain too large", size=comb(n, k))
        masks = []
        for combo in combinations(range(n), k):
            m = 0
            for c in combo:
                m |= 1 << c
            masks.append(m)
        fam = SetFamily(GroundSet(n), tuple(masks))
        return Domain("binomial", fam, k, {"n": n, "k": k})

    @staticmethod
    def sequences(n: int, k: int) -> "Domain":
        """[n]^k: position i takes value v as bit i*n + (v-1)."""
        if n < 1 or k < 1:
            raise PreconditionError("sequences domain needs n, k >= 1", n=n, k=k)
        if n * k > 64:
            raise CapacityError("sequences ground set exceeds 64 bits", bits=n * k)
        if n**k > _MEMBER_CAP:
            raise CapacityError("sequences domain too large", size=n**k)
        masks = []
        for values in product(range(n), repeat=k):
            m = 0
            for i, v in enumerate(values):
                m |= 1 << (i * n + v)
            masks.append(m)
        fam = SetFamily(GroundSet(n * k), tuple(masks))
        return Domain("sequences", fam, k, {"n": n, "k": k})

    @staticmethod
    def kpartite_product(n: int, parts: Sequence[int]) -> "Domain":
        """One [n]-block per part; part j contributes a parts[j]-subset."""
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 or p > n for p in parts):
            raise PreconditionError(
                "each part size must lie in 1..n", n=n, parts=parts
            )
        w = len(parts)
        if n * w > 64:
            raise CapacityError("k-partite ground set exceeds 64 bits", bits=n * w)
        total = 1
        for p in parts:
            total *= comb(n, p)
        if total > _MEMBER_CAP:
            raise CapacityError("k-partite domain too large", size=total)
        per_part: list[list[int]] = []
        for j, p in enumerate(parts):
            block = []
            for combo in combinations(range(n), p):
                m = 0
                for c in combo:
                    m |= 1 << (j * n + c)
                block.append(m)
            per_part.append(block)
        masks = []
        for pick in product(*per_part):
            m = 0
            for piece in pick:
                m |= piece
            masks.append(m)
        fam = SetFamily(GroundSet(n * w), tuple(masks))
        return Domain(
            "kpartite_product", fam, sum(parts), {"n": n, "parts": list(parts)}
        )

    @staticmethod
    def permutations(n: int) -> "Domain":
        """Bijections of [n], encoded on the n x n grid: sigma(i)=j is bit (i-1)*n + (j-1)."""
        if n < 1:
            raise PreconditionError("permutations domain needs n >= 1", n=n)
        if n > _PERMUTATION_CAP:
            raise CapacityError(
                "permutations domain capped", n=n, cap=_PERMUTATION_CAP
            )
        masks = []
        for sigma in iter_permutations(range(n)):
            m = 0
            for i, j in enumerate(sigma):
                m |= 1 << (i * n + j)
            masks.append(m)
        fam = SetFamily(GroundSet(n * n), tuple(masks))
        return Domain("permutations", fam, n, {"n": n})

    @staticmethod
    def complex_layer(maximal_faces: SetFamily, k: int) -> "Domain":
        """The k-th layer of the complex generated by the given faces."""
        if k < 0:
            raise PreconditionError("layer index must be nonnegative", k=k)
        out = set()
        for face in maximal_faces.members:
            if face.bit_count() >= k:
                out.update(bit_subsets(face, k))
        if not out:
            raise PreconditionError("complex has no faces of the requested size", k=k)
        if len(out) > _MEMBER_CAP:
            raise CapacityError("complex layer too large", size=len(out))
        fam = SetFamily(maximal_faces.ground, tuple(out))
        return Domain(
            "complex_layer", fam, k,
            {"maximal_faces": maximal_faces.as_sets(), "k": k, "n": maximal_faces.ground.n},
        )

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.family)

    @property
    def ground_bits(self) -> int:
        return self.family.ground.n

    @cached_property
    def table(self) -> dict[int, int]:
        return _link_counts(self.family.members)

    @cached_property
    def index(self) -> dict[int, int]:
        """The ``member_index`` of the domain's members."""
        return member_index(self.family.members)

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """The table's sets split by size 0..k, each size in numeric (hence
        canonical) order."""
        levels: list[list[int]] = [[] for _ in range(self.k + 1)]
        for x in sorted(self.table):
            levels[x.bit_count()].append(x)
        return tuple(map(tuple, levels))

    def link_count(self, T: int) -> int:
        """|A(T)| for T in the |T|-shadow; errors on sets outside the shadow."""
        if self.kind == "binomial" and T.bit_count() <= self.k:
            n = self.params["n"]
            if T & ~self.family.ground.full_mask:
                raise PreconditionError("set outside the ground set", T=elements_of(T))
            return comb(n - T.bit_count(), self.k - T.bit_count())
        cnt = self.table.get(T)
        if cnt is None:
            raise PreconditionError(
                "set is not in the domain shadow", T=elements_of(T)
            )
        return cnt

    def shadow_layer(self, t: int) -> tuple[int, ...]:
        return self.layers[t] if 0 <= t <= self.k else ()

    def shadow_upto(self, t: int) -> list[int]:
        return [x for level in self.layers[: max(t + 1, 0)] for x in level]

    def max_link(self, t: int) -> tuple[int, int]:
        """(T, A_t): a t-shadow member with the largest link, smallest mask on ties."""
        if not (0 <= t <= self.k):
            raise PreconditionError("shadow depth out of range", t=t, k=self.k)
        best_T, best = None, -1
        table = self.table
        for T in self.layers[t]:
            c = table[T]
            if c > best:
                best_T, best = T, c
        return best_T, best

    def link_domain(self, S: int) -> "Domain":
        """The ambient family A(S), as its own domain on the same ground bits.

        Its members are those the ``index`` finds holding S, with S
        stripped.  Its table is the parent's: A(S) has |A(S | X)| members
        above each X disjoint from S, so nothing is recounted.  A shallow
        link filters the parent table for the entries above S; a deep one,
        whose members have fewer submasks (|A(S)| 2^(k-|S|)) than the parent
        table has entries, reads the parent entry of each submask instead.
        The two fill the table in different key orders; every reader of a
        table looks its keys up or sorts them (``layers``), so the order is
        free.
        """
        members = self.family.members
        above = select(members, holders(self.index, S, (1 << len(members)) - 1))
        if not above:
            raise PreconditionError("link of S is empty", S=elements_of(S))
        sub = Domain(
            f"link:{self.kind}", self.family.replace_members(m & ~S for m in above),
            self.k - S.bit_count(),
            {"parent": self.kind, "S": list(elements_of(S)), **self.params},
        )
        parent = self.table
        if len(above) << sub.k < len(parent):
            table = {0: parent[S]}
            for m in sub.family.members:
                x = m
                while x:
                    if x not in table:
                        table[x] = parent[x | S]
                    x = (x - 1) & m
        else:
            table = {x & ~S: c for x, c in parent.items() if x & S == S}
        # fills the cached_property, which stores its value in the instance dict
        vars(sub)["table"] = table
        return sub

    def nominal_parameters(self) -> dict:
        """Suggested (spreadness r, assumption r, mu, eta) per kind, when known."""
        p = self.params
        if self.kind == "binomial":
            n, k = p["n"], p["k"]
            return {
                "spread_r": Fraction(n, k),
                "assumption_r": Fraction(n, 2 * k),
                "mu": Fraction(n, k),
                "eta": Fraction(2),
            }
        if self.kind == "sequences":
            n = p["n"]
            return {
                "spread_r": Fraction(n),
                "assumption_r": Fraction(n, 2),
                "mu": Fraction(1),
                "eta": Fraction(2),
            }
        if self.kind == "kpartite_product":
            n, parts = p["n"], p["parts"]
            w = len(parts)
            k = sum(parts)
            out = {
                "spread_r": Fraction(n, max(parts)),
                "assumption_r": Fraction(w * n, 2 * k),
                "eta": Fraction(2),
            }
            if len(set(parts)) == 1:
                out["mu"] = Fraction(n * w, k)  # n/(k/w)
            return out
        if self.kind == "permutations":
            return {"spread_r": Fraction(p["n"], 4)}
        return {}

    def as_json_obj(self) -> dict:
        return {"kind": self.kind, **self.params}


def _int(v, key: str) -> int:
    if type(v) is not int:  # JSON true/false are not integers here
        raise ParseError(f"domain parameter {key!r} must be an integer", value=v)
    return v


def _list_of(v, key: str, item=_int) -> list:
    if not isinstance(v, list):
        raise ParseError(f"domain parameter {key!r} must be a list", value=v)
    return [item(x, key) for x in v]


def domain_from_json_obj(obj) -> Domain:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("domain spec must be an object with a 'kind' key")
    kind = obj["kind"]
    try:
        if kind == "binomial":
            return Domain.binomial(_int(obj["n"], "n"), _int(obj["k"], "k"))
        if kind == "sequences":
            return Domain.sequences(_int(obj["n"], "n"), _int(obj["k"], "k"))
        if kind == "kpartite_product":
            return Domain.kpartite_product(_int(obj["n"], "n"), _list_of(obj["parts"], "parts"))
        if kind == "permutations":
            return Domain.permutations(_int(obj["n"], "n"))
        if kind == "complex_layer":
            faces = _list_of(obj["maximal_faces"], "maximal_faces", item=_list_of)
            n = _int(obj["n"], "n") if "n" in obj else max((max(f) for f in faces if f), default=1)
            fam = SetFamily.from_sets(n, faces)
            return Domain.complex_layer(fam, _int(obj["k"], "k"))
    except KeyError as exc:
        raise ParseError(f"domain spec missing key {exc}", kind=kind)
    raise ParseError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# depth-t spreadness


@dataclass(frozen=True)
class SpreadnessReport:
    r: Fraction
    t: int
    ok: bool
    violation: Optional[tuple[int, int]] = None  # (T, S)
    domain: str = ""

    def as_report(self) -> dict:
        out = {"r": str(self.r), "t": self.t, "ok": self.ok, "domain": self.domain}
        if self.violation is not None:
            T, S = self.violation
            out["violation"] = {
                "T": list(elements_of(T)), "S": list(elements_of(S))
            }
        return out


def check_rt_spread(A: Domain, r, t: int) -> SpreadnessReport:
    """Is every link A(T), |T| <= t, an r-spread family?  Exact and exhaustive.

    The witness pair, if any, satisfies |A(T)(S)| > r^(-|S|) |A(T)| and is the
    canonically first such pair: T first in canonical order, then S.

    The domain's ``layers`` split the table by size, each in numeric
    (hence canonical) order; each level's largest count is taken per call.
    For each T the levels j above |T| are taken in turn; the S of level j
    are its X that contain T, minus T, in the same order.  A level whose
    largest count passes the test is skipped unread, so on a domain with
    equal counts per level each T costs O(k) comparisons.
    """
    r = _as_fraction(r, "r")
    if r <= 0:
        raise PreconditionError("spreadness parameter must be positive", r=str(r))
    if not (0 <= t <= A.k):
        raise PreconditionError("depth t must lie in 0..k", t=t, k=A.k)
    table, levels = A.table, A.layers
    num, den = r.numerator, r.denominator
    peak = [max(map(table.__getitem__, level)) for level in levels]
    for h in range(t + 1):
        for T in levels[h]:
            base = table[T]
            for j in range(h + 1, A.k + 1):
                i = j - h
                bound = base * den**i
                if peak[j] * num**i <= bound:
                    continue
                for X in levels[j]:
                    # X = T | S with S disjoint from T, so X's order is S's
                    if X & T == T and table[X] * num**i > bound:
                        return SpreadnessReport(
                            r=r, t=t, ok=False, violation=(T, X & ~T), domain=A.kind
                        )
    return SpreadnessReport(r=r, t=t, ok=True, violation=None, domain=A.kind)


# ---------------------------------------------------------------------------
# homogeneity


@dataclass(frozen=True)
class HomogeneityVerdict:
    tau: Fraction
    ok: bool
    worst_x: int
    worst_ratio: Fraction
    family_size: int

    def as_report(self) -> dict:
        return {
            "tau": str(self.tau),
            "ok": self.ok,
            "worst_x": list(elements_of(self.worst_x)),
            "worst_ratio": str(self.worst_ratio),
            "family_size": self.family_size,
        }


def _require_subfamily(F: SetFamily, A: Domain):
    if F.ground.n != A.family.ground.n:
        raise PreconditionError("family and domain live on different ground sets")
    amembers = A.family._member_set
    for m in F.members:
        if m not in amembers:
            raise PreconditionError(
                "family member outside the domain", member=list(elements_of(m))
            )


def _homogeneity_tau(F: SetFamily, A: Domain, tau) -> Fraction:
    """tau as a Fraction, once it and F are fit for a homogeneity check in A."""
    tau = _as_fraction(tau, "tau")
    if tau <= 0:
        raise PreconditionError("homogeneity parameter must be positive", tau=str(tau))
    _require_subfamily(F, A)
    if not F.members:
        raise PreconditionError("homogeneity of an empty family is undefined")
    return tau


def check_tau_homogeneous(F: SetFamily, A: Domain, tau) -> HomogeneityVerdict:
    """Decide |F(X)| / |A(X)| <= tau^|X| |F| / |A| for every X, exactly.

    The returned worst X maximizes the ratio of the two sides (1 at X = empty);
    a verdict with worst_ratio > 1 is a violation certificate.
    """
    tau = _homogeneity_tau(F, A, tau)
    return _tau_homogeneity(_link_counts(F.members), A, tau)


def _tau_homogeneity(fcounts: dict[int, int], A: Domain, tau: Fraction) -> HomogeneityVerdict:
    """``check_tau_homogeneous`` of a family F given by its ``_link_counts``.

    F is nonempty and inside A, and tau a positive Fraction; |F| is
    ``fcounts[0]``.  Callers that already hold F's counts, or derive a
    link's counts from them, check through here without a recount.
    """
    table = A.table
    asize, fsize = len(A), fcounts[0]
    tn, td = tau.numerator, tau.denominator
    # the ratio of X is |F(X)| |A| td^i / (|A(X)| |F| tn^i); keep the worst
    # as a numerator and denominator and compare cross-multiplied, a tie
    # going to the canonically first X, so no sort is needed
    num_of = [asize * td**i for i in range(A.k + 1)]
    den_of = [fsize * tn**i for i in range(A.k + 1)]
    worst_x, worst_num, worst_den = 0, 1, 1
    for x, c in fcounts.items():
        i = x.bit_count()
        num = c * num_of[i]
        den = table[x] * den_of[i]
        lhs, rhs = num * worst_den, worst_num * den
        if lhs > rhs or lhs == rhs and (i, x) < (worst_x.bit_count(), worst_x):
            worst_x, worst_num, worst_den = x, num, den
    worst = Fraction(worst_num, worst_den)
    return HomogeneityVerdict(
        tau=tau, ok=worst <= 1, worst_x=worst_x, worst_ratio=worst, family_size=fsize
    )


def _counts_above(counts: dict[int, int], P: int) -> dict[int, int]:
    """The ``_link_counts`` of the link F(P), read off those of F."""
    return {x & ~P: c for x, c in counts.items() if x & P == P}


@dataclass(frozen=True)
class HomogeneousSubfamily:
    family: SetFamily
    removed: int
    sparse_prefixes: tuple[int, ...]
    tau_out: Fraction

    def as_report(self) -> dict:
        return {
            "size": len(self.family),
            "removed": self.removed,
            "sparse_prefixes": [list(elements_of(P)) for P in self.sparse_prefixes],
            "tau_out": str(self.tau_out),
        }


def homogeneous_subfamily(
    F: SetFamily, A: Domain, tau, alpha, t: Optional[int] = None
) -> HomogeneousSubfamily:
    """Drop members owning a sparse small prefix; what is left is uniformly rich.

    A prefix P (|P| <= t-1) is sparse when mu(F(P)) < alpha^|P| mu(F); t
    defaults to the domain uniformity.  The result G keeps at least
    (1 - 2 alpha k)|F| members, and every small P still represented in G has
    an F(P) that is alpha (tau/alpha)^t homogeneous in A(P); both facts are
    re-verified exactly.
    """
    return _homogeneous_subfamily(F, _link_counts(F.members), A, tau, alpha, t)


def _homogeneous_subfamily(
    F: SetFamily, fcounts: dict[int, int], A: Domain, tau, alpha, t: Optional[int]
) -> HomogeneousSubfamily:
    """``homogeneous_subfamily`` of F given by its ``_link_counts``.

    F is counted once: the pre-check, the sparse test and every F(P) check
    read ``fcounts``, F(P)'s counts being ``_counts_above(fcounts, P)``.
    """
    tau = _as_fraction(tau, "tau")
    alpha = _as_fraction(alpha, "alpha")
    k = A.k
    if t is None:
        t = k
    if not (0 < alpha <= Fraction(1, 2 * k)):
        raise PreconditionError(
            "alpha must lie in (0, 1/(2k)]", alpha=str(alpha), k=k
        )
    if t < 1:
        raise PreconditionError("prefix depth t must be at least 1", t=t)
    tau = _homogeneity_tau(F, A, tau)
    pre = _tau_homogeneity(fcounts, A, tau)
    if not pre.ok:
        raise PreconditionError(
            "family is not tau-homogeneous", worst=elements_of(pre.worst_x)
        )
    table = A.table
    asize, fsize = len(A), len(F)
    an, ad = alpha.numerator, alpha.denominator
    prefixes = canonical(P for P in fcounts if 0 < P.bit_count() < t)
    # P is sparse when mu(F(P)) < alpha^i mu(F), cross-multiplied; each P
    # lies in some member, which a sparse P drops
    sparse = [
        P for P in prefixes
        if fcounts[P] * asize * ad ** P.bit_count() < an ** P.bit_count() * fsize * table[P]
    ]
    keep, gone = [], []
    if sparse:
        hit = set(sparse)
        for m in F.members:
            x = m
            while x and x not in hit:
                x = (x - 1) & m
            (gone if x else keep).append(m)
    G = F.replace_members(keep) if gone else F
    floor = (1 - 2 * alpha * k) * fsize
    if Fraction(len(G)) < floor:
        raise VerificationError(
            "kept subfamily fell below the size floor",
            size=len(G), floor=str(floor),
        )
    tau_out = alpha * (tau / alpha) ** t
    # P is still represented in G unless every member above it was dropped
    gone_counts = _link_counts(gone)
    for P in prefixes:
        if fcounts[P] == gone_counts.get(P, 0):
            continue
        sub = _tau_homogeneity(_counts_above(fcounts, P), A.link_domain(P), tau_out)
        if not sub.ok:
            raise VerificationError(
                "surviving prefix link breached the derived homogeneity",
                P=elements_of(P), worst=elements_of(sub.worst_x),
            )
    return HomogeneousSubfamily(
        family=G, removed=fsize - len(G), sparse_prefixes=tuple(sparse), tau_out=tau_out,
    )


@dataclass(frozen=True)
class HomogeneousRemoval:
    family: SetFamily
    parameter: Fraction
    size_floor: Fraction

    def as_report(self) -> dict:
        return {
            "size": len(self.family),
            "parameter": str(self.parameter),
            "size_floor": str(self.size_floor),
        }


def remove_elements_homogeneous(G: SetFamily, A: Domain, tau, r, X: int) -> HomogeneousRemoval:
    """Exclude the elements of X from a tau-homogeneous family.

    Needs |X| < r/tau with A r-spread.  Certifies the surviving family is
    tau / (1 - |X| tau / r) homogeneous and at least a (1 - |X| tau / r)
    fraction of G, both by exact re-check.
    """
    tau = _as_fraction(tau, "tau")
    r = _as_fraction(r, "r")
    if X & ~G.ground.full_mask:
        raise PreconditionError("X outside the ground set", X=elements_of(X))
    xsize = X.bit_count()
    if Fraction(xsize) * tau >= r:
        raise PreconditionError(
            "need |X| < r / tau", X=elements_of(X), r=str(r), tau=str(tau)
        )
    pre = check_tau_homogeneous(G, A, tau)
    if not pre.ok:
        raise PreconditionError(
            "family is not tau-homogeneous", worst=elements_of(pre.worst_x)
        )
    amb = check_spread(A.family, r)
    if not amb.ok:
        raise PreconditionError(
            "ambient domain is not r-spread", r=str(r),
            violation=elements_of(amb.violation),
        )
    H = restrict(G, 0, X)
    shrink = 1 - Fraction(xsize) * tau / r
    floor = shrink * len(G)
    if Fraction(len(H)) < floor:
        raise VerificationError(
            "exclusion lost more than the certified fraction",
            size=len(H), floor=str(floor),
        )
    param = tau / shrink
    if H.members:
        post = check_tau_homogeneous(H, A, param)
        if not post.ok:
            raise VerificationError(
                "exclusion broke homogeneity beyond the certified parameter",
                parameter=str(param), worst=elements_of(post.worst_x),
            )
    return HomogeneousRemoval(family=H, parameter=param, size_floor=floor)


# ---------------------------------------------------------------------------
# regularity and the assumption battery


def regularity_identity_holds(A: Domain, S: int, subfamily: SetFamily, h: int) -> bool:
    """Exact check of mu(F) = E mu(F(H)) with H uniform on the h-shadow of A(S).

    The subfamily lives inside A(S), i.e. its members already have S removed.
    A(S) comes from ``link_domain``, so its h-shadow is its ``layers[h]``;
    with S empty it is A itself.
    """
    if S not in A.table:
        raise PreconditionError("S is not in the domain shadow", S=elements_of(S))
    L = A if S == 0 else A.link_domain(S)
    shadow_hs = L.shadow_layer(h)
    if not shadow_hs:
        raise PreconditionError("empty h-shadow", S=elements_of(S), h=h)
    lmembers = L.family._member_set
    for m in subfamily.members:
        if m not in lmembers:
            raise PreconditionError(
                "subfamily member outside A(S)", member=elements_of(m)
            )
    table = L.table
    lhs = Fraction(len(subfamily), len(L))
    total = Fraction(0)
    for H in shadow_hs:
        cnt = sum(1 for m in subfamily.members if m & H == H)
        total += Fraction(cnt, table[H])
    rhs = total / len(shadow_hs)
    return lhs == rhs


@dataclass(frozen=True)
class AssumptionsReport:
    q: int
    eta: Fraction
    mu: Fraction
    r: Fraction
    spread_ok: bool
    spread_violation: Optional[tuple[int, int]]
    density_ok: bool
    density_witness: Optional[dict]
    regularity_ok: bool
    regularity_witness: Optional[dict]
    shadow_ratio_ok: bool
    shadow_ratio_witness: Optional[dict]
    nominal: dict

    @property
    def all_ok(self) -> bool:
        return (
            self.spread_ok and self.density_ok
            and self.regularity_ok and self.shadow_ratio_ok
        )

    def as_report(self) -> dict:
        out = {
            "q": self.q, "eta": str(self.eta), "mu": str(self.mu), "r": str(self.r),
            "spread_ok": self.spread_ok,
            "density_ok": self.density_ok,
            "regularity_ok": self.regularity_ok,
            "shadow_ratio_ok": self.shadow_ratio_ok,
            "all_ok": self.all_ok,
            "nominal": {k2: v if isinstance(v, bool) else str(v)
                        for k2, v in self.nominal.items()},
        }
        for name, wit in (
            ("density_witness", self.density_witness),
            ("regularity_witness", self.regularity_witness),
            ("shadow_ratio_witness", self.shadow_ratio_witness),
        ):
            if wit is not None:
                out[name] = wit
        if self.spread_violation is not None:
            T, S = self.spread_violation
            out["spread_violation"] = {
                "T": list(elements_of(T)), "S": list(elements_of(S))
            }
        return out


def _density_holds(A_t: int, total: int, r: Fraction, eta_t: Fraction) -> bool:
    # A_t >= r^(-eta*t) |A|  <=>  A_t * r^(eta*t) >= |A|, both sides to the
    # power eta_t.denominator to clear the fractional exponent
    b = eta_t.denominator
    a = eta_t.numerator
    lhs = A_t**b * r.numerator**a
    rhs = total**b * r.denominator**a
    return lhs >= rhs


def check_assumptions(A: Domain, q: int, eta, mu, r) -> AssumptionsReport:
    """Run the four structural checks at depth q with the given constants.

    * depth-q spreadness of every link at parameter r;
    * max-link density A_t >= r^(-eta t)|A| for each t in 1..q-1;
    * the regularity identity on every S in the depth-q shadow, for the
      full link and every singleton subfamily (sufficient by linearity),
      h up to q-1 within the link's uniformity;
    * the shadow-ratio floor |shadow_h A(R)| / |shadow_h A| >=
      (1 - |R|/(mu k))^h for every R in the depth-q shadow, h up to q within
      range.

    Verdicts are exact.  The regularity checks are counted ahead, each
    weighted by the link shadow it visits, bounded from the link's size
    without building it; more than ``_REGULARITY_CAP`` raise CapacityError
    before any check runs.  Each link A(S) is built once, from the member
    index and the parent table.
    """
    eta = _as_fraction(eta, "eta")
    mu = _as_fraction(mu, "mu")
    r = _as_fraction(r, "r")
    if eta < 0 or mu <= 0:
        raise PreconditionError("eta must be >= 0 and mu > 0", eta=str(eta), mu=str(mu))
    if not (0 <= q <= A.k):
        raise PreconditionError("depth q must lie in 0..k", q=q, k=A.k)
    table = A.table
    total = len(A)
    k = A.k
    shadow_q = A.shadow_upto(q)
    work = 0
    for S in shadow_q:
        a_s, size = table[S], S.bit_count()
        depth = k - size
        # 1 + a_s trials, each visiting the h-shadow of A(S): at most the
        # h-sets off S, and at most C(depth, h) per member of A(S)
        work += sum((1 + a_s) * min(comb(A.ground_bits - size, h), a_s * comb(depth, h))
                    for h in range(1, min(q - 1, depth) + 1))
    if work > _REGULARITY_CAP:
        raise CapacityError("regularity identity checks capped", work=work, cap=_REGULARITY_CAP)

    sp = check_rt_spread(A, r, q)
    links = {S: A if S == 0 else A.link_domain(S) for S in shadow_q}

    density_ok, density_witness = True, None
    for t in range(1, q):
        _, A_t = A.max_link(t)
        if not _density_holds(A_t, total, r, eta * t):
            density_ok = False
            density_witness = {"t": t, "A_t": A_t, "family_size": total}
            break

    regularity_ok, regularity_witness = True, None
    for S in shadow_q:
        if not regularity_ok:
            break
        L = links[S]
        depth = k - S.bit_count()
        for h in range(1, min(q - 1, depth) + 1):
            trial_subfamilies = [L.family]
            for m in L.family.members:
                trial_subfamilies.append(L.family.replace_members([m]))
            for sub in trial_subfamilies:
                if not regularity_identity_holds(L, 0, sub, h):
                    regularity_ok = False
                    regularity_witness = {
                        "S": list(elements_of(S)), "h": h,
                        "subfamily_size": len(sub),
                    }
                    break
            if not regularity_ok:
                break

    shadow_ok, shadow_witness = True, None
    for R in shadow_q:
        if not shadow_ok:
            break
        rsize = R.bit_count()
        base = 1 - Fraction(rsize) / (mu * k)
        for h in range(1, min(q, k - rsize) + 1):
            lhs = Fraction(len(links[R].layers[h]), len(A.layers[h]))
            if lhs < base**h:
                shadow_ok = False
                shadow_witness = {
                    "R": list(elements_of(R)), "h": h,
                    "ratio": str(lhs), "floor": str(base**h),
                }
                break

    nominal = A.nominal_parameters()
    p = A.params
    if "n" in p:
        n_nat = p["n"]
        nominal = dict(nominal)
        nominal["n_ge_4q"] = n_nat >= 4 * q
        nominal["k_ge_4q"] = k >= 4 * q
        nominal["n_gt_8k"] = n_nat > 8 * k

    return AssumptionsReport(
        q=q, eta=eta, mu=mu, r=r,
        spread_ok=sp.ok, spread_violation=sp.violation,
        density_ok=density_ok, density_witness=density_witness,
        regularity_ok=regularity_ok, regularity_witness=regularity_witness,
        shadow_ratio_ok=shadow_ok, shadow_ratio_witness=shadow_witness,
        nominal=nominal,
    )


# ---------------------------------------------------------------------------
# consequences of homogeneity verified as certificates


def verify_shadow_bound(F: SetFamily, A: Domain, tau, h: int) -> bool:
    """|shadow_h F| / |shadow_h A| >= tau^(-h) for a tau-homogeneous F."""
    tau = _as_fraction(tau, "tau")
    pre = check_tau_homogeneous(F, A, tau)
    if not pre.ok:
        raise PreconditionError("family is not tau-homogeneous")
    fsh = set()
    for m in F.members:
        if m.bit_count() >= h:
            fsh.update(bit_subsets(m, h))
    ash = A.shadow_layer(h)
    if not ash:
        raise PreconditionError("empty domain shadow at this depth", h=h)
    # |shadow_h F| * tau^h >= |shadow_h A|
    return len(fsh) * tau.numerator**h >= len(ash) * tau.denominator**h
