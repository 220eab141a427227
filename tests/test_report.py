"""The sweep CSV's block formatter and its number kernel against "%.12g"."""

import math

import numpy as np

from nonortho.report import (CSV_FIELD_BYTES, csv_block, csv_fields, csv_number_fields,
                             csv_numbers)


def kernel_texts(values):
    """The kernel's text of each value, NULs deleted, one ",", after each."""
    fields = csv_number_fields(values)
    comma = np.full((1, fields.shape[1]), ord(","), dtype=np.uint8)
    return np.vstack([fields, comma]).T.tobytes().translate(None, b"\0").decode("ascii")


def assert_like_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    got = kernel_texts(values)
    want = "".join(text + "," for text in csv_numbers(values.tolist()))
    if got != want:
        bad = [(v, a, b) for v, a, b in zip(values.tolist(), got.split(","), want.split(","))
               if a != b]
        raise AssertionError(f"{len(bad)} values unlike %.12g, e.g. {bad[:5]}")


def hard_values(rng, count):
    """About ``count`` values: the kernel's fast range, its near-ties and edges, the rest."""
    share = count // 7
    k = rng.integers(10 ** 11, 10 ** 12, share)
    ties = [(k + 0.5) / 10.0 ** (11 - e) for e in range(-4, 1)]
    powers = 10.0 ** np.arange(-20, 3)
    ulps = [np.nextafter(powers, direction) for direction in (0.0, math.inf)]
    ulps += [np.nextafter(u, direction) for u, direction in zip(ulps, (0.0, math.inf))]
    return np.concatenate([
        *ties, powers, *ulps,
        rng.uniform(0.0, 3.0, share), 10.0 ** rng.uniform(-20.0, 1.0, share),
        -rng.uniform(0.0, 3.0, share // 10),
        math.ulp(0.0) * rng.integers(1, 2 ** 52, 1000),
        [0.0, -0.0, math.nan, math.inf, -math.inf, math.ulp(0.0), 2.2250738585072014e-308,
         1e-4, 9.9999999999995, 9.99999999999949, 10.0, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.000099999999999995],
    ])


def test_kernel_matches_percent_g_on_a_million_values():
    values = hard_values(np.random.default_rng(20261021), 1_000_000)
    assert values.size >= 1_000_000
    assert_like_percent_g(values)


def test_kernel_fields_are_the_field_width():
    fields = csv_number_fields(np.array([0.5, -1.23456789012e-308, 3.0]))
    assert fields.shape == (CSV_FIELD_BYTES, 3) and fields.dtype == np.uint8
    assert max(map(len, csv_numbers([-1.23456789012e-308, -math.inf]))) == CSV_FIELD_BYTES


def test_block_mixes_fast_and_fallback_values():
    rng = np.random.default_rng(5)
    rows = 300
    scalars = [rng.uniform(0.0, 2.9, rows) for _ in range(6)]
    # the fallback covers zeros, subnormals, values above 10 and below 1e-4,
    # negatives and a near-tie, scattered over every column
    odd = [0.0, -0.0, 5e-324, 1e-310, 12.5, 3e-5, -0.25, (123456789012 + 0.5) / 1e11]
    for column, row in zip(rng.integers(0, 6, 40), rng.integers(0, rows, 40)):
        scalars[column][row] = odd[row % len(odd)]
    texts = [csv_numbers(rng.uniform(0.0, 1.0, 7).tolist()) for _ in range(4)]
    picks = [rng.integers(0, 7, rows) for _ in range(4)]
    params = [csv_fields(t)[:, p] for t, p in zip(texts, picks)]
    got = csv_block(params, scalars)
    want = "".join(
        ",".join([*(t[p] for t, p in zip(texts, row[:4])), *csv_numbers(row[4:])]) + "\n"
        for row in zip(*(p.tolist() for p in picks), *(s.tolist() for s in scalars)))
    assert got == want


def test_block_lines_end_in_a_newline_without_nul():
    scalars = [np.array([0.0, 1.0, 2.5, 1e-320, 9.99999999999999])] * 6
    params = [csv_fields(["0.5"] * 5)] * 4
    text = csv_block(params, scalars)
    assert "\0" not in text
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == 6
    assert all(line.count(",") == 9 for line in lines[:-1])


def test_fields_pad_with_nul():
    fields = csv_fields(["1", "0.25", "-0"])
    assert fields.shape == (4, 3)
    assert fields.T.tobytes() == b"1\x00\x00\x00" b"0.25" b"-0\x00\x00"
    assert csv_fields(["7"], CSV_FIELD_BYTES).shape == (CSV_FIELD_BYTES, 1)
