"""Row/quad containers, symmetry structure, parsing, compression, and the
one file writer."""

import ast
import io
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodmat.errors import InvalidInputError, ParseError
from goodmat.seqcore import (
    CompressedQuad,
    DefiningQuad,
    compress3,
    format_int_row,
    format_row,
    is_skew,
    is_symmetric,
    iter_halves,
    make_skew,
    make_symmetric,
    parse_row,
    read_quads,
    validate_pm,
    validate_quad,
    write_file,
    write_quads,
)

ROOT = Path(__file__).resolve().parents[1]

halves = st.integers(1, 10).flatmap(
    lambda d: st.tuples(*([st.sampled_from((1, -1))] * d))
)


# ── structure predicates and constructors ────────────────────────────────────

def test_is_skew_examples():
    assert is_skew((1,))
    assert is_skew((1, 1, -1))
    assert not is_skew((1, 1, 1))       # a_1 must equal -a_2
    assert not is_skew((-1, 1, -1))     # a_0 must be 1
    assert is_skew((1, 1, -1, 1, -1))


def test_is_symmetric_examples():
    assert is_symmetric((1,))
    assert is_symmetric((-1,))
    assert is_symmetric((1, 1, 1))
    assert is_symmetric((1, -1, -1))
    assert not is_symmetric((1, 1, -1))


@given(halves)
def test_make_skew_round_trip(half):
    n = 2 * len(half) + 1
    row = make_skew(half, n)
    assert is_skew(row) and len(row) == n
    assert row[1 : len(half) + 1] == half


@given(halves)
def test_make_symmetric_is_symmetric(half):
    n = 2 * len(half) + 1
    row = make_symmetric(half, n)
    assert is_symmetric(row) and len(row) == n
    assert row[1 : len(half) + 1] == half


def test_make_skew_rejects_bad_lengths():
    with pytest.raises(InvalidInputError):
        make_skew((1, 1), 3)  # needs exactly n//2 = 1 entries


@pytest.mark.parametrize("make", [make_skew, make_symmetric])
@pytest.mark.parametrize("half, n, message", [
    ((1, 1), 3, "need 1 free entries"),  # exactly n//2 entries
    ((1, 0), 5, "must be \\+1 or -1"),
    ((1,), 4, "order must be odd"),
    ((), -1, "order must be odd"),
])
def test_mirror_rows_reject_bad_free_entries(make, half, n, message):
    with pytest.raises(InvalidInputError, match=message):
        make(half, n)


def test_format_row_rejects_non_pm():
    with pytest.raises(InvalidInputError, match="cannot format entry 0"):
        format_row((1, 0, -1))


def test_validate_pm_rejects_non_pm():
    with pytest.raises(InvalidInputError):
        validate_pm((1, 0, -1))
    with pytest.raises(InvalidInputError):
        validate_pm(())


def test_validate_quad_known(known3, known27, known57):
    for quad in (known3, known27, known57):
        validate_quad(quad)  # no exception


def test_validate_quad_rejects_broken_symmetry(known3):
    a, b, c, d = known3
    with pytest.raises(InvalidInputError):
        validate_quad(DefiningQuad(b, b, c, d))  # symmetric row where skew required
    with pytest.raises(InvalidInputError):
        validate_quad(DefiningQuad(a, a, c, d))  # skew row where symmetric required


def test_quad_accessors(known3):
    assert known3.n == 3
    assert known3.rows() == (known3.a, known3.b, known3.c, known3.d)
    cq = CompressedQuad((1,), (3,), (-1,), (-1,))
    assert cq.m == 1
    assert cq.rows() == ((1,), (3,), (-1,), (-1,))


# ── compression ──────────────────────────────────────────────────────────────

def test_compress3_known_row(known27):
    assert compress3(known27.a) == (1, 3, 3, -1, 1, -1, 1, -3, -3)


def test_compress3_tiny():
    assert compress3((1, 1, -1)) == (1,)
    assert compress3((1, 1, 1)) == (3,)


def test_compress3_requires_multiple_of_three():
    with pytest.raises(InvalidInputError):
        compress3((1, 1, 1, 1, 1))


@given(st.integers(1, 8).flatmap(
    lambda m: st.tuples(*([st.sampled_from((1, -1))] * (3 * m)))
))
def test_compress3_entry_identity(row):
    m = len(row) // 3
    out = compress3(row)
    assert len(out) == m
    for k in range(m):
        assert out[k] == row[k] + row[k + m] + row[k + 2 * m]
        assert out[k] in (-3, -1, 1, 3)


def test_rowsum(known27):
    assert sum(known27.a) == 1
    assert sum(known27.b) == -1
    assert sum(known27.c) == -5
    assert sum(known27.d) == -9


# ── text round trips ─────────────────────────────────────────────────────────

def test_parse_format_round_trip(known27):
    for row in known27.rows():
        assert parse_row(format_row(row)) == row


def test_parse_row_accepts_unicode_minus():
    assert parse_row("+−+") == (1, -1, 1)


def test_parse_row_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_row("++x+")
    assert "position 2" in str(exc.value)  # 0-based index of the bad glyph


def test_parse_row_rejects_empty():
    with pytest.raises(ParseError):
        parse_row("")


@given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=30).map(tuple))
def test_format_parse_identity(row):
    text = format_row(row)
    assert set(text) <= {"+", "-"}
    assert parse_row(text) == row


def test_write_read_quads_round_trip(known3, known27):
    buf = io.StringIO()
    write_quads(buf, [known3, known27])
    buf.seek(0)
    assert read_quads(buf) == [known3, known27]


def test_compressed_rows_round_trip():
    rows = [(1, 3, -1), (1, -3, 1)]
    assert "".join(format_int_row(row) + "\n" for row in rows) == "1,3,-1\n1,-3,1\n"


def test_quadruple_file_round_trip():
    quads = [
        CompressedQuad((1,), (3,), (-1,), (-1,)),
        CompressedQuad((1,), (-1,), (3,), (-1,)),
    ]
    buf = io.StringIO()
    write_quads(buf, quads, fmt=format_int_row)
    assert buf.getvalue() == "1\n3\n-1\n-1\n\n1\n-1\n3\n-1\n\n"


def test_read_quads_validates_by_default():
    bad = "+++\n+-+\n++-\n+--\n\n"  # rows lack the skew/symmetric structure
    with pytest.raises(InvalidInputError):
        read_quads(io.StringIO(bad))
    quads = read_quads(io.StringIO(bad), validate=False)
    assert len(quads) == 1 and quads[0].a == (1, 1, 1)


def test_read_quads_rejects_ragged_block():
    with pytest.raises(ParseError):
        read_quads(io.StringIO("+++\n+-+\n++-\n\n"))  # only 3 rows


def test_read_quads_rejects_mixed_lengths():
    with pytest.raises(ParseError):
        read_quads(io.StringIO("+++\n+-+-+\n++-\n+--\n\n"), validate=False)


# ── half enumeration ─────────────────────────────────────────────────────────

def test_iter_halves_exhaustive_d2():
    got = list(iter_halves(2))
    assert got == [(1, 1), (-1, 1), (1, -1), (-1, -1)]


@given(st.integers(0, 12))
def test_iter_halves_counts(d):
    seen = set(iter_halves(d))
    assert len(seen) == 2 ** d
    assert all(len(h) == d and set(h) <= {1, -1} for h in seen)


# ── the one file writer ─────────────────────────────────────────────────────

def test_write_file_replaces_only_with_a_finished_file(tmp_path):
    path = tmp_path / "new" / "out.rows"  # the directory is made
    write_file(path, lambda fp: fp.write("old\n"))

    def fail(fp):
        fp.write("half")
        raise RuntimeError("killed")

    with pytest.raises(RuntimeError):
        write_file(path, fail)
    assert path.read_text() == "old\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.rows"]  # no partial file left


def file_writes(source: str) -> list[int]:
    """Lines of the calls in source, outside a function named write_file,
    that write a file: open(…) or ….open(…) in any mode but a read mode,
    .write_text, .write_bytes, and .writelines on anything but a name (such
    as the fp a write_file callback gets)."""
    lines = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "write_file":
            return
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            if name == "open":
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
                index = 1 if isinstance(node.func, ast.Name) else 0
                if mode is None and len(node.args) > index:
                    mode = node.args[index]
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and set(str(mode.value)) <= set("rbt")):
                    lines.add(node.lineno)
            elif name in ("write_text", "write_bytes") or (
                    name == "writelines" and not isinstance(node.func.value, ast.Name)):
                lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_file_writes_sees_every_way_to_write_a_path():
    source = """
with open(path) as fp, Path(p).open() as other, open(p, mode="rb") as raw: pass
with open(path, "w") as fp: pass
manifest_path.write_text(text)
open(p, mode="a").writelines(lines)
Path(p).open("x")
fp.writelines(lines)
def write_file(path, write):
    with open(path, "w") as fp: write(fp)
"""
    assert file_writes(source) == [3, 4, 5, 6]


def test_only_write_file_writes_files():
    paths = [*sorted(ROOT.joinpath("src", "goodmat").glob("*.py")),
             *sorted(ROOT.joinpath("scripts").glob("*.py"))]
    found = {path.name: file_writes(path.read_text()) for path in paths}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}
