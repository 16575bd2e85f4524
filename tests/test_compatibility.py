import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import pytest

from orthoapart import (
    Frame,
    compatibility,
    Subspace,
    is_compatible,
    projection_of,
    refine_to_frame,
    serialize,
    span_sum,
    split_into_lines,
)
from orthoapart.errors import DimensionMismatch, IncompatibleFamily, OrthoapartError
from orthoapart.matrices import Matrix, gram_schmidt, projection_matrix
from orthoapart.subspaces import column_lines

from util import (
    SMALL,
    I,
    OracleMatrix,
    den,
    frobenius,
    grid_spaces,
    identity,
    inner,
    is_hermitian,
    is_zero,
    lattice_compatible,
    lattice_refine,
    oracle_dim,
    oracle_is_compatible,
    oracle_orthogonal_columns,
    oracle_pairwise_refine_to_frame,
    oracle_refine_to_frame,
    oracle_split_into_lines,
    pivot_basis,
    product_is_hermitian,
    product_trace,
    random_complex_frame,
    random_frame,
)


def e(n, i):
    return [1 if j == i else 0 for j in range(n)]


def lines_sum(frame, indices):
    """The sum of the chosen frame lines, as one subspace."""
    n = frame.ambient_dim
    proj = Matrix.zeros(n, n)
    for i in indices:
        proj = proj + frame.lines[i].proj
    return Subspace(proj)


def test_compatible_when_orthogonal():
    x = projection_of([e(3, 0)])
    y = projection_of([e(3, 1)])
    assert is_compatible(x, y)


def test_compatible_when_nested():
    x = projection_of([e(3, 0)])
    y = projection_of([e(3, 0), e(3, 1)])
    assert is_compatible(x, y)


def test_incompatible_slanted_line():
    x = projection_of([e(2, 0)])
    y = projection_of([[1, 1]])
    assert not is_compatible(x, y)


def test_compatibility_equals_projection_commutation():
    """Commuting projections agree with the lattice form of compatibility,
    on random spans and on sums of lines of one random frame."""
    rng = random.Random(21)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 5)
        frame = random_frame(n, rng)

        def rand_space():
            if rng.random() < 0.6:
                return lines_sum(frame, [i for i in range(n) if rng.random() < 0.5])
            return projection_of(
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))],
                ambient_dim=n,
            )

        x, y = rand_space(), rand_space()
        got = is_compatible(x, y)
        assert got == lattice_compatible(x, y)
        outcomes.add(got)
    assert outcomes == {True, False}


def _small_grid():
    """The subspaces of C^2 spanned by at most two vectors over SMALL, zero
    included, and the lines of C^3 spanned by one vector over SMALL."""
    pairs2 = [[u, v] for u in product(SMALL, repeat=2) for v in product(SMALL, repeat=2)]
    spaces2 = {projection_of(s) for s in pairs2} | {Subspace.zero(2)}
    lines3 = {projection_of([v], ambient_dim=3) for v in product(SMALL, repeat=3)}
    return spaces2, lines3


def test_integer_compatibility_and_dim_match_matrix_forms():
    """is_compatible on bases against z == z.adjoint() on the normalized
    product, for every pair of the subspaces of C^2 spanned by at most two
    vectors over SMALL and of the lines of C^3 over SMALL; dim, the basis
    length, against the GaussianRational trace.  Subspace(P) takes each
    grid projection back and refuses every matrix that is not the
    projection onto its columns, whatever its trace."""
    spaces2, lines3 = _small_grid()
    outcomes = set()
    for spaces in (spaces2, lines3):
        for x in spaces:
            assert x.dim == oracle_dim(x)
            back = Subspace(x.proj)
            assert back == x and back.dim == x.dim
            for y in spaces:
                got = is_compatible(x, y)
                assert got == oracle_is_compatible(x, y)
                outcomes.add((x.dim, y.dim, got))
    assert {(1, 1, True), (1, 1, False), (0, 2, True), (1, 2, True)} <= outcomes
    assert len(spaces2) > 20 and len(lines3) > 100

    # the identity holds for any product, not only of projections
    rng = random.Random(20)
    hermitian = 0
    for _ in range(2000):
        a, b = (Matrix([[rng.choice(SMALL) for _ in range(2)] for _ in range(2)]) for _ in range(2))
        b = Matrix(OracleMatrix.of(b if rng.random() < 0.5 else a).adjoint().entries())
        z = OracleMatrix.of(a @ b)
        assert product_is_hermitian(a, b) == (z == z.adjoint())
        hermitian += z == z.adjoint()
    assert hermitian > 500

    half, imaginary = Fraction(1, 2), I
    for m in ([[half, 0], [0, 0]], [[imaginary, 0], [0, 0]], [[imaginary, 0], [0, -imaginary]],
              [[half, 1], [0, half]], [[3, 0], [0, -1]], [[1, 1], [0, 0]]):
        with pytest.raises(ValueError, match="corrupt subspace"):
            Subspace(Matrix(m))


def test_frobenius_numerator_is_the_trace_of_the_product():
    """tr(P_X P_Y) = |P_X P_Y|_F^2 on every pair of the SMALL grid, complex
    included: the integer sum over den * den is the product's trace, 0 iff
    the product is zero and dim Y iff it is P_Y."""
    spaces2, lines3 = _small_grid()
    cases = set()
    for spaces in (spaces2, lines3):
        for x in spaces:
            for y in spaces:
                p, q = x.proj, y.proj
                t, z = frobenius(p, q), p @ q
                assert product_trace(p, q) == Fraction(t, den(p) * den(q))
                assert (t == 0) == is_zero(z)
                assert (t == y.dim * den(p) * den(q)) == (z == q)
                cases.add((t == 0, z == q, is_hermitian(z)))
    assert cases == {(True, False, True), (True, True, True), (False, True, True),
                     (False, False, True), (False, False, False)}


def _refined(refine, family, *args):
    """A refinement's frame, or the error it raises, as a comparable value."""
    try:
        return refine(family, *args).lines
    except IncompatibleFamily as exc:
        return ("incompatible", exc.pair)
    except DimensionMismatch as exc:
        return ("dimension", str(exc))


def test_refine_matches_pairwise_scan_oracle_on_small_grid():
    """Trace-decided blocks and one product per split against the pairwise
    scan and a product per block: every ordered family of at most three
    subspaces of C^2 over SMALL, every ordered pair of lines of C^3 over
    SMALL, and every ordered triple of the lines of C^3 over {0, 1, -1}
    with zero and C^3."""
    spaces2, lines3 = _small_grid()
    _key = lambda x: repr(x.proj)  # noqa: E731  a fixed family order across runs
    real3 = {projection_of([v], ambient_dim=3) for v in product((0, 1, -1), repeat=3)}
    real3 |= {Subspace.zero(3), Subspace.full(3)}
    families = [list(f) for k in range(1, 4) for f in product(sorted(spaces2, key=_key), repeat=k)]
    families += [list(f) for f in product(sorted(lines3, key=_key), repeat=2)]
    families += [list(f) for f in product(sorted(real3, key=_key), repeat=3)]
    kinds = set()
    for family in families:
        got = _refined(refine_to_frame, family)
        assert got == _refined(oracle_pairwise_refine_to_frame, family)
        kinds.add((len(family), got[0] if isinstance(got[0], str) else "frame"))
    assert {(k, "frame") for k in (1, 2, 3)} <= kinds
    assert {(k, "incompatible") for k in (2, 3)} <= kinds
    assert refine_to_frame([], 2) == oracle_pairwise_refine_to_frame([], 2)


def _first_failing_member(family) -> int:
    """The first member not compatible with some earlier one: where the
    block split first meets a product that is not self-adjoint."""
    return next(j for j in range(len(family))
                if not all(oracle_is_compatible(family[i], family[j]) for i in range(j)))


def test_refine_matches_pairwise_scan_oracle_on_rotated_frames(monkeypatch):
    """300 seeded families of sums of lines of real and complex rotated
    frames, with zero, repeated and full-space members, one in three given
    one or two members from another frame, lines through two lines of the
    frame or members of another ambient dimension.  A compatible family
    takes no product and one split per final block, which groups the lines
    by the members holding them, less one: the whole space's split into the
    first member and its complement, then one basis split for each block
    after the first two."""
    products, matmul = [], Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    splits, basis_split = [], compatibility._split

    def counted_split(us, vs):
        parts = basis_split(us, vs)
        splits.extend([parts] if parts else [])
        return parts

    monkeypatch.setattr(compatibility, "_split", counted_split)
    rng = random.Random(24)
    kinds, later = set(), 0
    for k in range(300):
        n = rng.randint(1, 6)
        gen = (random_complex_frame if k % 2 else random_frame)(n, rng)
        family = [lines_sum(gen, [i for i in range(n) if rng.random() < 0.5])
                  for _ in range(rng.randint(1, 5))]
        family += rng.sample([Subspace.zero(n), Subspace.full(n), rng.choice(family)], rng.randint(0, 3))
        for _ in range(rng.randint(1, 2) if k % 3 == 0 else 0):
            other = random_frame(n, rng)
            # the line through two lines a, b of gen commutes with the sums
            # holding both or neither
            u = [pivot_basis(gen.lines[i])[0] for i in rng.sample(range(n), min(n, 2))]
            family.append(rng.choice([
                lines_sum(other, [i for i in range(n) if rng.random() < 0.5]),
                projection_of([[a + b for a, b in zip(u[0], u[-1])]]),
                Subspace.full(n + 1),
            ]))
        rng.shuffle(family)
        products.clear()
        splits.clear()
        got = _refined(refine_to_frame, family)
        # read before the oracle runs: its pairwise scan calls _split too
        matmuls, basis_splits = len(products), len(splits)
        assert got == _refined(oracle_pairwise_refine_to_frame, family)
        kinds.add(got[0] if isinstance(got[0], str) else "frame")
        if not isinstance(got[0], str):
            assert matmuls == 0
            split = basis_splits + any(0 < x.dim < n for x in family)
            blocks = {tuple(x.contains(line) for x in family) for line in got}
            assert split == len(blocks) - 1 < n
        if got[0] == "incompatible":
            later += _first_failing_member(family) != got[1][1]
    assert kinds == {"frame", "incompatible", "dimension"}
    assert later > 0


def test_refine_names_the_first_pair_not_the_first_failing_member():
    """The split first fails at member 2 (lines e1 and e1 + e2), but the
    pairwise scan's first incompatible pair is (0, 3): e3 against e2 + e3."""
    family = [projection_of([e(3, 2)]), projection_of([e(3, 0)]),
              projection_of([[1, 1, 0]]), projection_of([[0, 1, 1]])]
    assert _first_failing_member(family) == 2
    for refine in (refine_to_frame, oracle_pairwise_refine_to_frame, oracle_refine_to_frame):
        with pytest.raises(IncompatibleFamily) as exc:
            refine(family)
        assert exc.value.pair == (0, 3)


def test_frame_validation():
    with pytest.raises(OrthoapartError):
        Frame(2, (projection_of([e(2, 0)]),))  # wrong line count
    with pytest.raises(OrthoapartError):
        Frame(2, (projection_of([e(2, 0)]), projection_of([[1, 1]])))  # not orthogonal
    f = Frame.standard(3)
    assert [line.dim for line in f.lines] == [1, 1, 1]


def test_refine_empty_family_gives_standard_frame():
    assert refine_to_frame([], ambient_dim=3) == Frame.standard(3)


def test_refine_overlapping_planes():
    family = [
        projection_of([e(4, 0), e(4, 1)]),
        projection_of([e(4, 1), e(4, 2)]),
    ]
    frame = refine_to_frame(family)
    lines = set(frame.lines)
    for i in range(3):
        assert projection_of([e(4, i)]) in lines
    # the remaining line lies in span(e4)
    rest = lines - {projection_of([e(4, i)]) for i in range(3)}
    (extra,) = rest
    assert projection_of([e(4, 3)]).contains(extra)


def test_refine_slanted_pair():
    x = projection_of([[1, 1]])
    frame = refine_to_frame([x, x.perp()])
    assert set(frame.lines) == {projection_of([[1, 1]]), projection_of([[1, -1]])}


def test_refine_reconstructs_inputs():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.randint(2, 6)
        gen = random_frame(n, rng)
        family = [
            lines_sum(gen, [i for i in range(n) if rng.random() < 0.5])
            for _ in range(rng.randint(1, 3))
        ]
        frame = refine_to_frame(family)
        for x in family:
            rebuilt = Subspace.zero(n)
            for line in frame.lines:
                if x.contains(line):
                    rebuilt = span_sum(rebuilt, line)
            assert rebuilt == x


def test_refine_matches_lattice_oracle():
    """The one-pass product split gives the same lines, in the same order,
    as the restart loop over general intersections, zero, full and
    repeated members included."""
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        gen = random_frame(n, rng)
        family = [
            lines_sum(gen, [i for i in range(n) if rng.random() < 0.5])
            for _ in range(rng.randint(1, 4))
        ]
        family += [Subspace.zero(n), Subspace.full(n), rng.choice(family)]
        rng.shuffle(family)
        assert refine_to_frame(family).lines == lattice_refine(family).lines


def test_mixed_ambient_dimensions_are_rejected():
    x, y = projection_of([e(3, 0)]), projection_of([e(4, 0)])
    with pytest.raises(DimensionMismatch):
        is_compatible(x, y)
    with pytest.raises(DimensionMismatch):
        refine_to_frame([x, y])


def test_refine_rejects_incompatible():
    x = projection_of([e(2, 0)])
    y = projection_of([[1, 1]])
    with pytest.raises(IncompatibleFamily) as exc:
        refine_to_frame([x, y])
    assert exc.value.pair == (0, 1)


def test_refine_ignores_zero_and_duplicates():
    x = projection_of([e(3, 0)])
    frame = refine_to_frame([Subspace.zero(3), x, x])
    assert projection_of([e(3, 0)]) in set(frame.lines)


def test_split_into_lines():
    block = projection_of([[1, 1, 0], [0, 0, 1]])
    lines = split_into_lines(block)
    assert len(lines) == 2
    assert all(line.dim == 1 for line in lines)
    assert lines[0].is_orthogonal_to(lines[1])
    assert span_sum(lines[0], lines[1]) == block


def test_split_into_lines_matches_rational_gram_schmidt():
    # blocks of random rotated frames, complex blocks, and the complement of
    # the all-ones line, whose 11 Gram-Schmidt steps would grow the entries
    # without bound if each step were not made primitive again
    rng = random.Random(12)
    blocks = [projection_of([[1] * 12]).perp(),
              projection_of([[1, "1i", 0, 2], [0, "1-1i", 3, "1/2i"], [1, 0, 0, "-1i"]])]
    for _ in range(20):
        n = rng.randint(2, 7)
        frame = random_frame(n, rng)
        blocks.append(lines_sum(frame, rng.sample(range(n), rng.randint(1, n))))
    for block in blocks:
        lines = split_into_lines(block)
        assert lines == oracle_split_into_lines(block)
        assert Frame(block.ambient_dim, tuple(lines + split_into_lines(block.perp())))
    # the primitive vectors here are (0, ..., 0, k, -1, ..., -1)
    ones = gram_schmidt(Matrix(list(zip(*pivot_basis(blocks[0])))).integer_columns())
    assert max(abs(a) for re, _, _ in ones for a in re) == 11


def test_split_into_lines_matches_both_gram_schmidt_oracles():
    """Every block spanned by at most two vectors of C^3 with entries in
    {0, 1, I, 1 - I}, and seeded blocks spanned by up to four vectors with
    entries in SMALL: the lines equal the Gaussian-rational Gram-Schmidt's
    and the matrix-product Gram-Schmidt's on the pivot columns."""
    vecs = [list(v) for v in product([0, 1, I, 1 - I], repeat=3)]
    rng = random.Random(23)
    spans = [[u, v] for u in vecs for v in vecs]
    spans += [[[rng.choice(SMALL) for _ in range(3)] for _ in range(rng.randint(1, 4))]
              for _ in range(100)]
    blocks = {projection_of(s, ambient_dim=3) for s in spans}
    for block in blocks:
        lines = split_into_lines(block)
        assert lines == oracle_split_into_lines(block)
        us = oracle_orthogonal_columns(OracleMatrix.from_columns(pivot_basis(block), rows=3))
        assert lines == [projection_of(u.columns(), ambient_dim=3) for u in us]
    assert len(blocks) > 100


def test_frame_checks_complex_lines_pairwise():
    """Two lines of C^2 make a frame iff their spanning vectors have zero
    Hermitian inner product; (1, 0) and (i, 1) differ only in the imaginary
    part, u*v = i."""
    vecs = [v for v in product(SMALL, repeat=2) if any(v)]
    for u, v in product(vecs, repeat=2):
        lines = (projection_of([u]), projection_of([v]))
        if not inner(u, v):
            assert Frame(2, lines).lines == lines
        else:
            with pytest.raises(OrthoapartError, match="not orthogonal"):
                Frame(2, lines)
    with pytest.raises(OrthoapartError, match="not orthogonal"):
        Frame(2, (projection_of([[1, 0]]), projection_of([[I, 1]])))
    assert Frame(2, (projection_of([[1, I]]), projection_of([[I, 1]])))


def test_refine_matches_product_oracle_on_every_small_pair():
    """Bases against projections, products and lead columns on every ordered
    pair of the 11 subspaces of C^2 and the 51 of C^3 that the lattice test
    enumerates: the frame lines as projections, in order, or the pair."""
    pairs = list(product(grid_spaces(2, 2), repeat=2)) + list(product(grid_spaces(3, 1), repeat=2))
    kinds = set()
    for x, y in pairs:
        got = _refined(refine_to_frame, [x, y])
        assert got == _refined(oracle_refine_to_frame, [x, y])
        kinds.add(got[0] if isinstance(got[0], str) else "frame")
    assert len(pairs) == 11 ** 2 + 51 ** 2 and kinds == {"frame", "incompatible"}


def _comb(s, u, c, w):
    """s u + c w on integer columns (re, im, ...), None a zero imaginary part."""
    zero = [0] * len(u[0])
    return tuple([s * x + c * y for x, y in zip(a or zero, b or zero)] for a, b in zip(u[:2], w[:2]))


def test_refine_matches_product_oracle_on_gaussian_frames():
    """200 seeded families in C^1 to C^8 read from spanning vectors, as the
    CLI reads them: each member spans some lines of a complex rotated frame,
    each line scaled and mixed with the member's previous line.  One family
    in three also holds the line through the sum of two frame lines, which
    is incompatible with a member holding exactly one of them."""
    rng = random.Random(30)
    kinds = set()
    for k in range(200):
        n = rng.randint(1, 8)
        gen = [line.basis[0] for line in random_complex_frame(n, rng, rng.randint(1, 4)).lines]
        family = []
        for _ in range(rng.randint(1, 4)):
            held = [i for i in range(n) if rng.random() < 0.5]
            cols = [_comb(rng.choice((1, 2, -3)), gen[i], rng.randint(-2, 2) if j else 0, gen[held[j - 1]])
                    for j, i in enumerate(held)]
            family.append(projection_of(cols, ambient_dim=n, integer=True))
        if k % 3 == 0 and n > 1:
            a, b = rng.sample(range(n), 2)
            line = projection_of([_comb(1, gen[a], 1, gen[b])], ambient_dim=n, integer=True)
            family.insert(rng.randint(0, len(family)), line)
        got = _refined(refine_to_frame, family)
        assert got == _refined(oracle_refine_to_frame, family)
        kinds.add(got[0] if isinstance(got[0], str) else "frame")
    assert kinds == {"frame", "incompatible"}


def test_line_reader_matches_gram_schmidt_on_projection_columns():
    """column_lines on a basis equals islice(gram_schmidt(P.integer_columns()),
    dim), and with complement the same on I - P; a basis-held subspace's
    lazy projection is projection_matrix of its basis.  Spans of a few
    vectors over SMALL in C^1 to C^8, whose projections often repeat a
    nonzero column, so that dependent columns are skipped."""
    rng = random.Random(31)
    skipped = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        x = projection_of([[rng.choice(SMALL + [0, 0]) for _ in range(n)] for _ in range(rng.randint(0, 3))],
                          ambient_dim=n)
        p = projection_matrix(x.basis, n)
        assert x.proj == p
        for m, k, complement in ((p, x.dim, False), (identity(n) - p, n - x.dim, True)):
            want = list(islice(gram_schmidt(m.integer_columns()), k))
            assert list(column_lines(x.basis, n, complement)) == want
            cols = list(m.integer_columns())
            upto = next(t for t in range(n + 1) if len(list(gram_schmidt(cols[:t]))) == k)
            skipped += sum(bool(any(re) or im and any(im)) for re, im in cols[:upto]) > k
    assert skipped > 50


def test_refine_of_one_member_at_n_120_stays_small():
    """One all-"1" member in C^120 refines, and its frame is written, with a
    tracemalloc peak under 4 MiB: no projection of the frame's lines or
    blocks is built.  Building those projections peaked at 15.3 MiB."""
    family = serialize.family_from_json([[["1"] * 120]])
    tracemalloc.start()
    try:
        text = serialize.frame_to_json(refine_to_frame(family))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text["lines"]) == 120 and text["lines"][0] == ["1/120"] * 120
    assert peak < 4 * 2 ** 20
