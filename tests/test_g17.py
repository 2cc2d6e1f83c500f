"""The array formatter against the scalar ``fmt`` and ``%.17g``, cell by cell."""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isochrone import _g17
from isochrone.cli import fmt


def cells(values) -> list[str]:
    """The formatter's text for each value, written as a one-column CSV."""
    out = b"".join(_g17.csv_rows([np.asarray(values, dtype=np.float64)]))
    return out.decode("ascii").split("\n")[:-1]


def assert_cells_match(values) -> None:
    values = [float(v) for v in values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cells(values)
    for value, text in zip(values, got, strict=True):
        assert text == fmt(value) == "%.17g" % value, value.hex()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def decimal(value: float) -> Fraction:
    return Fraction(*value.as_integer_ratio())


any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(from_bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=40))
def test_every_float64_formats_as_percent_17g(values):
    assert_cells_match(values)


def test_random_bit_patterns_and_magnitudes():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    scaled = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-320, 308, 20000)
    assert_cells_match(np.concatenate([bits, scaled]))


def test_exact_ties_round_half_even_through_the_fallback():
    # Each is exactly halfway between two 17-digit decimals; round-half-even
    # takes the upper one for ...67.5, which no estimate of the fraction can
    # certify, so these bytes come from CPython's %.17g.
    ties = [1234567890123456.25, 1234567890123456.75, -1234567890123456.75,
            2.0**50 + 0.25]
    for value in ties:
        k = math.floor(math.log10(abs(value)))
        assert (decimal(abs(value)) * Fraction(10) ** (16 - k)).denominator == 2
    assert cells(ties[:3]) == ["1234567890123456.2", "1234567890123456.8",
                               "-1234567890123456.8"]
    assert_cells_match(ties)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{n}") for n in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    assert_cells_match(np.concatenate([values, -values]))


def test_rounding_that_carries_into_the_next_decade():
    # Doubles just below a power of ten whose 17 digits round up to it.
    powers = {n: float(f"1e{n}") for n in range(-300, 301)}
    carries = [v for n, v in powers.items()
               if decimal(v) < Fraction(10) ** n and fmt(v) == f"1e{n:+03d}"]
    assert len(carries) >= 10
    assert_cells_match(carries + [np.nextafter(1e17, 0.0), 1e16, 1e17,
                                  np.nextafter(1e16, 0.0), 9.9999999999999995e-5])


def test_integers_near_two_to_the_53_through_63():
    values = [float(2**e + j) for e in range(53, 64) for j in range(-5, 6)]
    values += [2.0**e + j * 2.0 ** (e - 52) for e in range(53, 64) for j in range(-3, 4)]
    assert_cells_match(values + [-v for v in values])


def test_specials_range_edges_and_no_warnings():
    big = 1.7976931348623157e308
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
              2.2250738585072014e-308, big, -big, 1e308, 1e280, 1e-280,
              math.nextafter(1e280, math.inf), math.nextafter(1e-280, 0.0),
              1e-5, 1e-4, 0.1, 0.5, 100.0, 1e16 - 2.0]
    assert_cells_match(values)


def test_rows_at_chunk_edges():
    rng = np.random.default_rng(3)
    for n in (_g17.CHUNK - 1, _g17.CHUNK, _g17.CHUNK + 1, 1):
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 20, n)
                   for _ in range(3)]
        chunks = list(_g17.csv_rows(columns))
        assert len(chunks) == -(-n // _g17.CHUNK)
        expected = "".join(",".join(fmt(v) for v in row) + "\n"
                           for row in zip(*(c.tolist() for c in columns)))
        assert b"".join(chunks).decode("ascii") == expected
