"""The Fejer-Riesz certificate: the exact margin that decides it, and the
stacked float pass that builds it, each member's as if alone."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hartogs import UniPoly, coprime_pairs, interior_root_count, numeric_roots
from hartogs import certificate, floatroots, roots, zeros
from hartogs.poly import _primitive
from hartogs.qpoly import diagonal_poly
from census_helpers import (
    CIRCLE_PAIR,
    FRONTIER_PAIRS,
    certificate_of,
    checked,
    codegree_class,
    no_float_pass,
    q_of,
    triple,
)


def schoolbook_frf(f: list[int]) -> tuple:
    """f rev(f) by ``UniPoly``'s schoolbook double loop over Python ints,
    which shares no code with the census's int64 limbs."""
    return (UniPoly(f) * UniPoly(f[::-1])).coeffs  # f_0, f_k != 0: full degree


def margin_oracle(q: list[int], top: int, f: list[int], b: int) -> int:
    """R_k - 2 sum_j |R_(k+j)| for R = 2^(2b) q - top f rev(f), the product
    by ``schoolbook_frf``."""
    k = len(f) - 1
    r = [2 ** (2 * b) * x - top * y for x, y in zip(q, schoolbook_frf(f))]
    return r[k] - 2 * sum(abs(x) for x in r[k + 1 :])


def certified(p: UniPoly) -> roots.RootCensus:
    """The census of p with the certificate built from its Aberth roots."""
    (census,) = roots.census([p], [numeric_roots(p)])
    return census


class TestSpectralCertificate:
    """The Fejer-Riesz certificate: floats choose f, one integer margin decides."""

    def test_margin_matches_the_schoolbook_oracle(self):
        # signed, asymmetric f with up to 53 bits, and up to the limbs' 62,
        # so that a lost factor 2, a lost abs or f f in place of f rev(f)
        # each changes the margin
        rng = np.random.default_rng(7)
        for k, bits in [(1, 3), (2, 8), (5, 20), (30, 53), (72, 53), (95, 52),
                        (7, 62), (40, 33), (300, 20)]:
            half = [int(x) for x in rng.integers(-(2**bits), 2**bits, size=k + 1)]
            q = half[:0:-1] + half
            f = [int(x) for x in rng.integers(-(2**bits), 2**bits, size=k + 1)]
            f[0], f[-1] = f[0] or 1, f[-1] or -1
            top, b = max(abs(x) for x in q), int(rng.integers(0, 60))
            assert certificate._spectral_margin(q, top, f, b) == margin_oracle(q, top, f, b)

    def test_margin_by_hand(self):
        # 4 (1 + 3s + s^2) - 3 (1 + s)^2 = 1 + 6s + s^2: margin 6 - 2 * 1
        assert certificate._spectral_margin([1, 3, 1], 3, [1, 1], 1) == 4
        # 4 (1 + 3s + s^2) - 3 (2 - s)(-1 + 2s) = 10 - 3s + 10 s^2: -3 - 2 * 10
        assert certificate._spectral_margin([1, 3, 1], 3, [2, -1], 1) == -23

    @pytest.mark.parametrize(
        "k, top, limbs",
        [
            # |f_i| = 2^29 - 1: one limb up to k = 30, two from k = 31
            (30, 2**29 - 1, 1),
            (31, 2**29 - 1, 2),
            # |f_i| = 2^53 - 1: two limbs of 27 bits up to k = 1022, three
            # of 18 bits from k = 1023, and k = 2048, the k of (2049, 1)
            (1022, 2**53 - 1, 2),
            (1023, 2**53 - 1, 3),
            (2048, 2**53 - 1, 3),
            # limbs 2^26 and -2^26 in every entry: the largest cross sum
            (1022, 2**53 - 2**26, 2),
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_limb_sums_match_the_schoolbook_loop_at_the_bound(
        self, k, top, limbs, sign, monkeypatch
    ):
        # every |f_i| at the top of its regime and of one sign, so that
        # each limb sum is as large as the scheme lets it be; L limbs take
        # L (L + 1) / 2 correlations
        f = [sign * top] * (k + 1)
        calls = []
        correlate = np.correlate

        def counted(a, v, mode):
            calls.append(mode)
            return correlate(a, v, mode)

        monkeypatch.setattr(certificate.np, "correlate", counted)
        assert certificate._autocorrelation(f) == list(schoolbook_frf(f)[k:])
        assert len(calls) == limbs * (limbs + 1) // 2

    def test_an_f_outside_the_int64_scheme_is_refused(self):
        # |f_i| < 2^62 is the scheme's range: 2^62 - 1 is still checked, and
        # an entry of 2^62, 2^63 or -2^63 leaves the q to the chain, with no
        # OverflowError and no wrapped sum
        k = 3
        f = [2**62 - 1, -(2**62) + 1, 2**62 - 1, 1]
        assert certificate._autocorrelation(f) == list(schoolbook_frf(f)[k:])
        q = q_of(11, 1)
        f, b = certificate_of(q)
        assert checked(q, (f, b)).method == "spectral"
        for huge in (2**62, 2**63, -(2**63), 2**200):
            assert certificate._autocorrelation([huge] + f[1:]) is None
            census = checked(q, ([huge] + f[1:], b))
            assert census == interior_root_count(q)
            assert census.method == "palindromic_pairing"

    def test_zero_margin_is_refused(self):
        # T = 4 + 2 cos(theta) + 2 cos(3 theta) >= 0 vanishes only at pi, so
        # p = s^6 + s^4 + 4 s^3 + s^2 + 1 has a double root at -1; with f = 0
        # the margin is 4 - 2 (1 + 1) = 0, which proves nothing
        p = UniPoly([1, 0, 1, 4, 1, 0, 1])
        assert certificate._spectral_margin(p.coeffs, 4, [0] * 4, 0) == 0
        census = checked(p, ([0] * 4, 0))
        assert triple(census) == (2, 2, 2)
        assert census.method == "palindromic_pairing"
        assert census.margin_lo is None

    @pytest.mark.parametrize(
        "p,expected",
        [
            (UniPoly([1, -1, 1]) * UniPoly([1, 3, 1]), (1, 2, 1)),
            (UniPoly([1, 2, 1]), (0, 2, 0)),
            (q_of(5, 3), (2, 0, 2)),  # 5 (s^2 + 3s + 1)^2: double roots
        ],
    )
    def test_refused_inputs_are_counted_by_the_chain(self, p, expected):
        census = certified(p)
        assert census.method == "palindromic_pairing"
        assert census == interior_root_count(p)
        assert triple(census) == expected

    def test_garbage_never_certifies(self):
        # with roots on the circle no f can pass; on Q(79, 1), where a good f
        # passes, zeros and random vectors still do not
        rng = random.Random(5)
        circle = [UniPoly([1, -1, 1]) * UniPoly([1, 3, 1]), UniPoly([1, 2, 1]),
                  q_of(41, 3) * UniPoly([1, 1, 1])]
        for p in circle + [q_of(79, 1)]:
            k = p.degree // 2
            chain = interior_root_count(p)
            garbage = [([0] * (k + 1), 0), ([0] * (k + 1), 60)] + [
                ([rng.randrange(-(2**52), 2**52) for _ in range(k + 1)], rng.randrange(80))
                for _ in range(20)
            ]
            for certificate in garbage:
                assert checked(p, certificate) == chain
        # a certificate of Q(41, 3) itself cannot prove Q(41, 3)(s^2 + s + 1)
        f, b = certificate_of(q_of(41, 3))
        assert checked(circle[2], (f + [0, 0], b)) == interior_root_count(circle[2])

    def test_malformed_certificates_prove_nothing(self):
        q = q_of(11, 1)
        f, b = certificate_of(q)
        assert checked(q, (f, b)).method == "spectral"
        for bad in [(f[:-1], b), (f + [0], b), (f, -1), ([], 0)]:
            assert checked(q, bad).method == "palindromic_pairing"

    @pytest.mark.parametrize("p", [UniPoly([3]), UniPoly([1, 1]), UniPoly([1, 2, 2, 1])])
    def test_no_certificate_for_odd_or_zero_degree(self, p, monkeypatch):
        # the census runs no float pass below even degree 2, not even for
        # given roots, and the chain counts
        monkeypatch.setattr(roots, "_spectral_certificate", no_float_pass)
        assert roots.census([p], [[]]) == roots.census([p]) == [interior_root_count(p)]

    def test_agrees_with_the_chain(self):
        # every coprime pair with m <= 60 and every 15th frontier pair: the
        # certified census equals the chain's, and only (5, 3) is refused
        refused = []
        for mn in [(p.m, p.n) for p in coprime_pairs(60)] + FRONTIER_PAIRS[::15]:
            q = q_of(*mn)
            census = certified(q)
            assert triple(census) == triple(interior_root_count(q)), mn
            if census.method != "spectral":
                refused.append(mn)
            else:
                assert 0 < census.margin_lo < 1
        assert refused == [(5, 3)]

    def test_margin_lo_rounds_toward_zero(self):
        p = q_of(41, 3)
        f, b = certificate_of(p)
        q = _primitive(p.coeffs)
        top = max(abs(x) for x in q)
        exact = Fraction(certificate._spectral_margin(q, top, f, b), sum(q) << 2 * b)
        lo = checked(p, (f, b)).margin_lo
        assert lo <= exact < math.nextafter(lo, math.inf)


class TestStackPass:
    """One stacked float pass per census stack: each member's certificate
    and census are those of the member alone."""

    def test_a_class_certifies_as_its_members_alone(self, monkeypatch):
        # every coprime pair with m <= 100 from k = _CERTIFICATE_K on, in
        # its scan chunks: several per class at small k, one member per
        # chunk and Aberth's roots from k = 76; each chunk's certificates
        # are those its census built
        chunks = zeros._chunks(
            [pair for pair in coprime_pairs(100) if pair.k >= roots._CERTIFICATE_K]
        )
        assert [len(chunk) for chunk in chunks if chunk[0].k == 24] == [13, 12]
        built = []
        certify = certificate._spectral_certificate

        def recorded(qs, float_roots=None):
            built.append(certify(qs, float_roots))
            return built[-1]

        monkeypatch.setattr(roots, "_spectral_certificate", recorded)
        for chunk in chunks:
            qs = [diagonal_poly(pair).poly for pair in chunk]
            censuses = roots.census(qs)
            alone = [certify([q])[0] for q in qs]
            assert built.pop() == alone, chunk
            assert censuses == [checked(q, c) for q, c in zip(qs, alone)], chunk
            assert all(c.method == "spectral" for c in censuses), chunk

    def test_the_grid_minimum_is_taken_in_blocks(self, monkeypatch):
        # a stack of stack_size(10) = 78 members would pad 78 x 4096 doubles
        # in one rfft; in blocks of _GRID_POINTS no call takes more than 16
        # rows, and the minima are the whole stack's, bit for bit
        k, points = 10, 4096
        qs = codegree_class(k, certificate.stack_size(k))
        block = certificate._GRID_POINTS // points
        assert len(qs) > block == 16
        v = floatroots._cosine_coeffs(
            np.array([floatroots._float_coeffs(q) for q in qs])
        )
        whole = np.fft.rfft(v, points).real.min(axis=1)
        rows = []
        rfft = np.fft.rfft

        def recorded(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        assert certificate._grid_min(v, points).tobytes() == whole.tobytes()
        assert sum(rows) == len(qs) and max(rows) == block
        rows.clear()
        assert all(certificate._spectral_certificate(qs))
        assert sum(rows) == len(qs) and max(rows) == block

    def test_given_roots_certify_as_alone(self, monkeypatch):
        # the printed roots of roots json and text, for the class k = 30 with
        # m <= 100 in census stacks of stack_size(30) = 8, 8 and 2, and a
        # failed finder (None) in the first: the certificates the census
        # builds from them are the members' alone, and the None member's
        # row goes to the chain
        qs = [q_of(n + 30, n) for n in range(1, 71) if math.gcd(n, 30) == 1]
        found = [numeric_roots(q) for q in qs]
        found[3] = None
        certify = certificate._spectral_certificate
        alone = [certify([q], [r])[0] for q, r in zip(qs, found)]
        assert [c is None for c in alone] == [i == 3 for i in range(len(qs))]
        built = []

        def recorded(ps, float_roots):
            built.append(certify(ps, float_roots))
            return built[-1]

        monkeypatch.setattr(roots, "_spectral_certificate", recorded)
        size = certificate.stack_size(30)
        censuses = []
        for lo in range(0, len(qs), size):
            censuses += roots.census(qs[lo : lo + size], found[lo : lo + size])
        assert [len(stack) for stack in built] == [8, 8, 2]
        assert sum(built, []) == alone
        assert [c.method == "spectral" for c in censuses] == [c is not None for c in alone]

    def test_a_circle_member_is_refused_alone(self):
        # a crafted p with a circle pair among certifiable Qs of its degree
        qs = [q_of(42, 1), CIRCLE_PAIR * q_of(41, 1), q_of(44, 3), q_of(46, 5)]
        assert {q.degree for q in qs} == {82}
        certificates = certificate._spectral_certificate(qs)
        assert certificates[1] is None
        assert certificates == [certificate._spectral_certificate([q])[0] for q in qs]
        censuses = roots.census(qs)
        assert [c.method for c in censuses] == [
            "spectral", "palindromic_pairing", "spectral", "spectral"
        ]
        assert [triple(c) for c in censuses] == [
            (41, 0, 41), (40, 2, 40), (41, 0, 41), (41, 0, 41)
        ]
        assert censuses[1] == interior_root_count(qs[1])
