"""The refine path's text boundary: family files read to integer columns and
frame lines written from numerators, each against the Gaussian-rational
path it replaced (oracles in util.py)."""

import json
import os
import random
from fractions import Fraction

from orthoapart import Frame, projection_of, refine_to_frame, serialize
from orthoapart.errors import OrthoapartError
from orthoapart.scalars import GaussianRational, scalar_text

from util import (
    oracle_family_from_json,
    oracle_line_text,
    oracle_scalar_str,
    oracle_vector_from_json,
    random_complex_frame,
    random_frame,
)

# signs and leading zeros; zero denominators; whitespace, Unicode digits,
# exponents, decimals and underscores; JSON ints, huge ints, floats and bools;
# complex text; and values that are not scalars at all
SCALARS = [
    "3", "-3", "+3", "-0", "+0", "-1/2", "+1/2", "007", "-007/010", "0/5", "00/5", "12/8",
    "1/0", "0/0", "-3/00",
    " 1", "1 / 2", "1/ 2", "- 1", "\t5", "٣", "１/２", "²",
    "1e3", "1E3", "1.5", ".5", "-2.25", "1_000", "1_0/2", "1__0",
    0, 7, -12, 10 ** 40, 10 ** 5000, "9" * 4301, "-" + "9" * 4301 + "/1", "1/" + "9" * 4301,
    1.5, -0.0, 1e300, float("inf"), float("nan"), True, False,
    "i", "-i", "1/2-3/4i", "2i", "1+i", "-1/3+0i", "0+2/4i",
    None, [], {}, "", "abc", "1//2", "/2", "1/", "+", "-",
]
# the ones that read as scalars, for random families
VALID = SCALARS[:12] + SCALARS[15:23] + SCALARS[25:34] + SCALARS[39:42] + SCALARS[46:53]


def _outcome(read, data, ambient_dim=None):
    try:
        return [x.proj for x in read(data, ambient_dim)]
    except OrthoapartError as exc:
        return type(exc).__name__, str(exc)


def test_family_reader_matches_scalar_parsing_oracle():
    """Each scalar alone, beside plain text with other denominators, in
    every position of a spanning set, and in seeded random families."""
    families = []
    for s in SCALARS:
        families += [
            [[[s]]],
            [[[s, "1/3", "0"], ["2", s, "-1/6"]], [["1", "1", "1"]]],
            [[["1/4", "0", "1"]], [["0", "5/3", s], [s, s, s]]],
        ]
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 3)
        pick = lambda: rng.choice(VALID if rng.random() < 0.98 else SCALARS)  # noqa: E731
        families.append([[[pick() for _ in range(n)] for _ in range(rng.randint(0, 3))]
                         for _ in range(rng.randint(1, 3))])
    read = 0  # families that read without error
    for data in families:
        for ambient_dim in (None, 3):
            got = _outcome(serialize.family_from_json, data, ambient_dim)
            assert got == _outcome(oracle_family_from_json, data, ambient_dim), data
            read += isinstance(got, list)
    assert read > 200


def test_family_reader_names_the_first_of_a_repeated_malformed_text():
    """A malformed text that appears twice is refused at its first
    position, whether or not a plain text is repeated around it."""
    for bad in ("1/0", "1e3", "x", "1//2"):
        for data, where in (([[["1/2", bad]], [["1/2", bad]]], "family[0][0][1]"),
                            ([[["1/2"]], [["0", "1/2"], [bad, "1/2"]], [[bad, bad]]], "family[1][1][0]")):
            for read in (serialize.family_from_json, oracle_family_from_json):
                got = _outcome(read, data)
                assert got[0] == "OrthoapartError" and got[1].startswith(where + ":"), (read, data, got)


def test_frame_reader_matches_scalar_parsing_oracle():
    """Frame files over plain, complex, decimal and malformed lines, with
    orthogonal and non-orthogonal pairs."""
    lines = [["3/5", "4/5"], ["-4", "3"], ["1", "i"], ["1/0", "1"], ["1", "x"], [1.5, "2"]]
    for a in lines:
        for b in lines:
            data = {"n": 2, "lines": [a, b]}
            try:
                got = serialize.frame_from_json(data).lines
            except OrthoapartError as exc:
                got = str(exc)
            try:
                want = Frame(2, tuple(
                    projection_of([oracle_vector_from_json(v, f"frame.lines[{i}]")], ambient_dim=2)
                    for i, v in enumerate((a, b)))).lines
            except OrthoapartError as exc:
                want = str(exc)
            assert got == want, (a, b)


def test_scalar_text_matches_fraction_str():
    """scalar_text, and str() of a scalar through it, against the text
    written from the Fraction parts, on every (re, im, den) of a small grid."""
    for den in range(1, 7):
        for re in range(-6, 7):
            for im in range(-6, 7):
                z = GaussianRational(Fraction(re, den), Fraction(im, den))
                assert scalar_text(re, im, den) == str(z) == oracle_scalar_str(z), (re, im, den)
    big = 10 ** 30 + 7
    z = GaussianRational(Fraction(-1, 2), Fraction(1, 3))
    assert scalar_text(-3 * big, 2 * big, 6 * big) == str(z) == oracle_scalar_str(z) == "-1/2+1/3i"


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "refine_golden.json")


def _golden_frames():
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    for case in cases:
        n = int(case["args"][1]) if case["args"] else None
        try:
            yield refine_to_frame(serialize.family_from_json(case["family"], n), n)
        except OrthoapartError:
            pass


def test_frame_lines_format_like_entry_access():
    """Real and complex rotated frames, and every frame the refine golden
    produces: the numerator text equals str() of each entry of the line's
    first nonzero projection column."""
    rng = random.Random(19)
    frames = [random_frame(n, rng) for n in range(1, 9) for _ in range(4)]
    frames += [random_complex_frame(n, rng) for n in range(1, 9) for _ in range(4)]
    golden = list(_golden_frames())
    assert len(golden) == 12
    complex_lines = 0
    for frame in frames + golden:
        got = serialize.frame_to_json(frame)
        assert got["n"] == frame.ambient_dim
        assert got["lines"] == [oracle_line_text(line) for line in frame.lines]
        complex_lines += sum(any("i" in x for x in line) for line in got["lines"])
    assert complex_lines > 50
