"""The array-based text reader against the line-by-line reference readers.

Every document of a corpus of malformed edge lists and rotation maps must
fail the same way in both: the same exception type, the same message and
the same line number.
"""

import random
import tracemalloc

import pytest

from rotwalk import (
    FormatError,
    RegularGraph,
    RotwalkError,
    greedy_rotation,
    parse_graph,
    parse_rotation,
    random_regular_graph,
    serialize_graph,
    serialize_rotation,
)
from rotwalk.textio import _ENDS_LINE, _IS_SPACE

from oracles import first_graph_format_error, first_rotation_format_error, integer_rows

# The 8-cycle, its edges in order, and its canonical rotation map.
CYCLE_EDGES = [f"{v} {v + 1}" for v in range(1, 8)] + ["1 8"]
CYCLE_ROWS = [f"{v % 8 + 1} {(v - 2) % 8 + 1}" for v in range(1, 9)]

# One bad body line of each kind; ``None`` stands for a repeat of the
# line before it.
GRAPH_DEFECTS = {
    "too few fields": "3",
    "too many fields": "3 4 5",
    "not an integer": "3 x",
    "a float": "3 4.0",
    "self-loop": "5 5",
    "unordered": "6 2",
    "zero": "0 4",
    "negative": "-1 4",
    "past n": "2 9",
    "past int64": "2 99999999999999999999",
    "duplicate": None,
}
ROTATION_DEFECTS = {
    "too few entries": "2",
    "too many entries": "2 4 6",
    "not an integer": "2 y",
    "zero": "0 3",
    "past n": "2 9",
    "past int64": "99999999999999999999 3",
    "self-map": None,
    "repeated": "REPEATED",
}
# The last two reach the stub ceiling, n*d = 2**31, exactly.
HEADER_DEFECTS = [
    "8", "8 2 1", "8 x", "0 2", "8 0", "8 -2", "8 99999999999999999999", "+8 2", "1073741824 2", "2147483648 1",
]


def graph_document(body, header="8 2"):
    return "\n".join([header, *body]) + "\n"


def rotation_document(body, header="8 2"):
    return "\n".join([header, *body]) + "\n"


def with_graph_defect(body, at, kind):
    body = list(body)
    defect = GRAPH_DEFECTS[kind]
    body[at] = body[at - 1] if defect is None else defect
    return body


def with_rotation_defect(body, at, kind):
    body = list(body)
    defect = ROTATION_DEFECTS[kind]
    vertex = at + 1
    if defect is None:
        defect = f"{vertex} {vertex % 8 + 1}"
    elif defect == "REPEATED":
        defect = f"{vertex % 8 + 1} {vertex % 8 + 1}"
    body[at] = defect
    return body


# Ways to write an integer field that int() reads as its value.  The
# grammar takes an optional '-' and 1 to 18 ASCII digits, so it refuses
# the spellings in REFUSED_SPELLINGS: each fails its line's integer check.
SPELLINGS = {
    "leading zeros": lambda x: f"00{x}",
    "18 digits": lambda x: f"{x:018d}",
    "19 digits": lambda x: f"{x:019d}",
    "plus sign": lambda x: f"+{x}",
    "underscores": lambda x: "_".join(f"0{x}"),
    "arabic-indic digits": lambda x: str(x).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
REFUSED_SPELLINGS = ["19 digits", "plus sign", "underscores", "arabic-indic digits"]


def spelled(body, spell):
    return [" ".join(spell(int(field)) for field in line.split()) for line in body]


def canonical_documents(document, body, bad_body, far_line):
    """Documents whose integers test the reader's grammar: ``body``
    and ``bad_body`` (a body whose first error names a value) in every
    spelling; ``far_line`` with fields of 18, 19 and 20 digits; an ASCII
    body with one non-ASCII comment; and the header after comments."""
    docs = []
    for spell in SPELLINGS.values():
        docs += [document(spelled(body, spell)), document(spelled(bad_body, spell))]
    for digits in (18, 19, 20):
        docs.append(document(body[:3] + [far_line("9" * digits)] + body[4:]))
    docs.append(document(body[:3] + ["# ein Kommentar, übrigens"] + body[3:]))
    docs.append("# a comment\n\n  # and another\n" + document(body))
    return docs


def decorate(text, rng, style=None):
    """The same document with comments, blank lines, odd spacing or line
    ends.  The 'unicode' style separates fields by U+3000 and ends lines
    by U+2028, neither of which the grammar reads as a separator."""
    style = style or rng.choice(["plain", "comments", "tabs", "crlf", "unicode", "mixed"])
    lines = text.splitlines()
    if style in ("comments", "mixed"):
        for _ in range(3):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(
                ["", "   ", "# a comment", "  # 1 2 3", "#", "\t#x"]))
    if style in ("tabs", "mixed"):
        lines = [" \t ".join(line.split(" ")) + rng.choice(["", "\t", "  "]) for line in lines]
    if style == "unicode":
        lines = ["\u3000".join(line.split(" ")) + "\x1f" for line in lines]
    ending = {"crlf": "\r\n", "unicode": "\u2028", "mixed": "\x0c\n\x85"}.get(style, "\n")
    return ending.join(lines) + rng.choice([ending, ""])


def graph_corpus():
    rng = random.Random(11)
    docs = ["", "\n\n", "# only a comment\n", "8 2\n"]
    docs += [graph_document(CYCLE_EDGES, header) for header in HEADER_DEFECTS]
    docs += [graph_document(CYCLE_EDGES, header) for header in ("17 2", "16 2", "8 3", "1073741823 2")]
    docs.append(graph_document(CYCLE_EDGES[:3], "1000000000 2"))
    docs.append(graph_document(CYCLE_EDGES[:3] + ["1 99999999999999999999"],
                               "99999999999999999999 2"))
    positions = (0, len(CYCLE_EDGES) // 2, len(CYCLE_EDGES) - 1)
    kinds = list(GRAPH_DEFECTS)
    for kind in kinds:
        for at in positions:
            if kind == "duplicate":  # a repeat needs a line before it
                at = max(at, 1)
            docs.append(graph_document(with_graph_defect(CYCLE_EDGES, at, kind)))
    for first_kind in kinds:
        for second_kind in kinds:
            if first_kind != second_kind:
                body = with_graph_defect(CYCLE_EDGES, 2, first_kind)
                docs.append(graph_document(with_graph_defect(body, 6, second_kind)))
    docs.append(graph_document(["3 x"] + CYCLE_EDGES[1:], "1000000000 2"))
    docs.append(graph_document(["3 x"] + CYCLE_EDGES[1:], "100000000000 2"))
    docs.append(graph_document(CYCLE_EDGES + ["1 2"]))
    docs.append(graph_document(CYCLE_EDGES[:-1]))
    docs += canonical_documents(graph_document, CYCLE_EDGES,
                                with_graph_defect(CYCLE_EDGES, 4, "past n"),
                                lambda far: f"2 {far}")
    return [decorate(doc, rng) for doc in docs] + docs


def rotation_corpus():
    rng = random.Random(12)
    docs = ["", "# only a comment\n", "8 2\n", "1000000000 2\n", "100000000000 2\n",
            rotation_document(CYCLE_ROWS[:2], "1000000000 2"),
            rotation_document(CYCLE_ROWS[:2], "1073741823 2"),
            rotation_document(["x"] + CYCLE_ROWS[1:], "100000000000 2"),
            rotation_document(CYCLE_ROWS, "8 99999999999999999999")]
    docs += [rotation_document(CYCLE_ROWS, header) for header in HEADER_DEFECTS]
    positions = (0, len(CYCLE_ROWS) // 2, len(CYCLE_ROWS) - 1)
    kinds = list(ROTATION_DEFECTS)
    for kind in kinds:
        for at in positions:
            docs.append(rotation_document(with_rotation_defect(CYCLE_ROWS, at, kind)))
    for first_kind in kinds:
        for second_kind in kinds:
            if first_kind != second_kind:
                body = with_rotation_defect(CYCLE_ROWS, 1, first_kind)
                docs.append(rotation_document(with_rotation_defect(body, 5, second_kind)))
    docs.append(rotation_document(CYCLE_ROWS + ["1 3"]))
    docs.append(rotation_document(CYCLE_ROWS + ["1 3", "x"]))
    docs.append(rotation_document(CYCLE_ROWS[:-1]))
    docs.append(rotation_document(with_rotation_defect(CYCLE_ROWS[:-2], 1, "zero")))
    docs += canonical_documents(rotation_document, CYCLE_ROWS,
                                with_rotation_defect(CYCLE_ROWS, 4, "past n"),
                                lambda far: f"{far} 3")
    return [decorate(doc, rng) for doc in docs] + docs


# Fields that int() reads but the grammar refuses.
REFUSED_TOKENS = ["+4", "٣", "1_0", "99999999999999999999"]


def mutated(text, rng):
    """``text`` with one or two fields replaced, dropped or added, or a line dropped."""
    lines = text.splitlines()
    for _ in range(rng.choice([1, 2])):
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        action = rng.choice(["replace", "drop field", "add field", "drop line"])
        if action == "drop line":
            del lines[i]
            continue
        j = rng.randrange(len(fields))
        token = rng.choice(["0", "-1", "1", "3", "8", "9", "x", *REFUSED_TOKENS, fields[j]])
        if action == "replace":
            fields[j] = token
        elif action == "drop field":
            del fields[j]
        else:
            fields.insert(j, token)
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def assert_same_failure(parse, reference, text):
    expected = reference(text)
    if expected is None:
        try:
            parse(text)
        except FormatError as exc:  # pragma: no cover - the assertion reports it
            pytest.fail(f"unexpected {exc!r} for {text!r}")
        except RotwalkError:
            pass  # well-formed text, but not a regular graph
        return
    line, message = expected
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert type(exc.value) is FormatError
    assert exc.value.line == line, text
    assert str(exc.value) == (message if line is None else f"line {line}: {message}"), text


def test_graph_reader_matches_reference():
    for text in graph_corpus():
        assert_same_failure(parse_graph, first_graph_format_error, text)


def test_rotation_reader_matches_reference():
    for text in rotation_corpus():
        assert_same_failure(parse_rotation, first_rotation_format_error, text)


def parse_result(parse, text):
    """What ``parse`` makes of ``text``: its table, or its error's type, message and line."""
    try:
        return parse(text)
    except RotwalkError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("parse, corpus", [
    (parse_graph, graph_corpus), (parse_rotation, rotation_corpus),
])
def test_bytes_read_as_their_text(parse, corpus):
    # The command line hands the parsers a file's bytes, the library its text.
    for text in corpus():
        assert parse_result(parse, text.encode("utf-8")) == parse_result(parse, text), text


def test_mutated_documents_match_reference():
    rng = random.Random(13)
    graph_text = graph_document(CYCLE_EDGES)
    rotation_text = rotation_document(CYCLE_ROWS)
    for _ in range(400):
        assert_same_failure(parse_graph, first_graph_format_error,
                            decorate(mutated(graph_text, rng), rng))
        assert_same_failure(parse_rotation, first_rotation_format_error,
                            decorate(mutated(rotation_text, rng), rng))


def test_well_formed_documents_read_as_int():
    # Where the corpus is well-formed, every value is the one int() reads.
    read = 0
    for text in graph_corpus():
        if first_graph_format_error(text) is None:
            try:
                graph = parse_graph(text)
            except RotwalkError:
                continue  # well-formed, but not a regular graph
            (n, _), *edges = integer_rows(text)
            assert graph == RegularGraph.from_edges(n, [(u - 1, v - 1) for u, v in edges]), text
            read += 1
    for text in rotation_corpus():
        if first_rotation_format_error(text) is None:
            rows = integer_rows(text)[1:]
            assert (parse_rotation(text).entries + 1).tolist() == rows, text
            read += 1
    assert read >= 4 * (len(SPELLINGS) - len(REFUSED_SPELLINGS))


def test_corpus_is_mostly_malformed():
    # The corpus must exercise the failure paths, not well-formed text.
    graphs = [first_graph_format_error(text) for text in graph_corpus()]
    rotations = [first_rotation_format_error(text) for text in rotation_corpus()]
    assert sum(e is not None for e in graphs) > 0.9 * len(graphs)
    assert sum(e is not None for e in rotations) > 0.9 * len(rotations)
    # The header, and the first, a middle and the last body line of the
    # undecorated documents, each carry a first error.
    assert {e[0] for e in graphs if e} >= {1, 2, 6, 9}
    assert {e[0] for e in rotations if e} >= {1, 2, 6, 9}


def test_code_point_tables_match_str():
    # The tables are indexed by UTF-8 byte: an ASCII byte as str reads
    # its character, and no other byte is whitespace or a line end.
    assert len(_IS_SPACE) == len(_ENDS_LINE) == 256
    for code in range(128):
        char = chr(code)
        assert _IS_SPACE[code] == char.isspace()
        assert _ENDS_LINE[code] == (f"x{char}x".splitlines() == ["x", "x"])
    assert not _IS_SPACE[128:].any() and not _ENDS_LINE[128:].any()


@pytest.mark.parametrize("parse, document, body, message", [
    (parse_graph, graph_document, CYCLE_EDGES, "edge endpoints must be integers"),
    (parse_rotation, rotation_document, CYCLE_ROWS, "row entries must be integers"),
])
def test_refused_spellings_name_their_line(parse, document, body, message):
    fields = [SPELLINGS[name](4) for name in REFUSED_SPELLINGS] + REFUSED_TOKENS
    for field in fields:
        int(field)  # a spelling int() reads
        lines = list(body)
        lines[3] = f"{lines[3].split()[0]} {field}"
        with pytest.raises(FormatError) as exc:
            parse(document(lines))
        assert str(exc.value) == f"line 5: {message}", field
        for header in (f"{field} 2", f"8 {field}"):
            with pytest.raises(FormatError) as exc:
                parse(document(body, header))
            assert str(exc.value) == "line 1: header must be two integers", header
    # Without U+3000 and U+2028 as separators the whole document is one
    # header field.
    with pytest.raises(FormatError) as exc:
        parse(decorate(document(body), random.Random(0), "unicode"))
    assert str(exc.value) == "line 1: header must be 'n d'"


@pytest.mark.parametrize("parse, serialize", [
    (parse_graph, serialize_graph),
    (parse_rotation, lambda graph: serialize_rotation(greedy_rotation(graph))),
])
def test_non_ascii_comment_costs_no_memory(parse, serialize):
    # A non-ASCII comment is read from the UTF-8 bytes by the same array
    # operations as the rest of the document.
    text = serialize(random_regular_graph(20000, 8, seed=1))
    peaks = []
    for document in (text, "# übrigens\n" + text):
        tracemalloc.start()
        try:
            parse(document)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20, peaks


# n = 10**9, d = 2 is under the stub ceiling and refused by the body's
# count; n = 10**11 reaches the ceiling and is refused from the header.
CEILING = "header needs n*d < 2**31 (the stub ceiling), got n*d=200000000000"


@pytest.mark.parametrize("parse, text, message", [
    (parse_graph, "1000000000 2\n",
     "line 1: header declares 1000000000 vertices but 0 edge lines reach at most 0: "
     "some vertex would be isolated"),
    (parse_graph, "100000000000 2\n", f"line 1: {CEILING}"),
    (parse_graph, "# big\n1000000000 2\n1 2\n3 4\n",
     "line 2: header declares 1000000000 vertices but 2 edge lines reach at most 4: "
     "some vertex would be isolated"),
    (parse_graph, "# big\n100000000000 2\n1 2\n3 4\n", f"line 2: {CEILING}"),
    (parse_rotation, "1000000000 2\n", "expected 1000000000 rows, got 0"),
    (parse_rotation, "100000000000 2\n", f"line 1: {CEILING}"),
    (parse_rotation, "1000000000 2\n2 3\n3 1\n", "expected 1000000000 rows, got 2"),
    (parse_rotation, "100000000000 2\n2 3\n3 1\n", f"line 1: {CEILING}"),
    (parse_graph, "1000000000000000000 2\n1 2\n", "line 1: header must be two integers"),
    (parse_rotation, "1000000000000000000 2\n2 3\n", "line 1: header must be two integers"),
])
def test_huge_header_refused_without_allocating(parse, text, message):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as exc:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1 << 20


def test_writers_match_line_by_line_text():
    for n, d, seed in [(10, 3, 0), (50, 4, 1), (301, 6, 2)]:
        graph = random_regular_graph(n, d, seed=seed)
        lines = [f"{n} {d}"] + [f"{u + 1} {v + 1}" for u, v in graph.edges()]
        assert serialize_graph(graph) == "\n".join(lines) + "\n"
        rot = greedy_rotation(graph)
        lines = [f"{n} {d}"] + [" ".join(str(w + 1) for w in row) for row in rot.entries.tolist()]
        assert serialize_rotation(rot) == "\n".join(lines) + "\n"
