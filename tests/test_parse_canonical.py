"""The one-pass arc-block read against the line-by-line reference parser.

``parse_instance`` reads every line up to the header itself, then hands the
rest of the text, once, to ``_arc_block``.  An arc block in
``serialize_instance``'s layout, arcs in (i, j) order, is read there in one
pass, or, when its rows average at least ``_LONG_ROW`` arcs, one row at a
time by ``_long_rows``; any other block, arcs out of order included, the
line parser reads on.  ``conftest.one_pass`` and ``conftest.row_read`` spy
on ``_arc_block`` and ``_long_rows`` to tell the paths apart, and
``conftest.long_row_gate`` forces the gate either way.  On any text they
must agree with ``oracles.parse_instance_lines``:
an equal instance with an equal profile, or the same ``InstanceError``
message, line number included.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from crossdock import (
    Instance,
    InstanceError,
    MAX_OPS,
    TightParams,
    gen_d2,
    gen_random,
    gen_tight,
    parse_instance,
    serialize_instance,
)
from crossdock import instance as instance_module
from crossdock.cli import main
from conftest import FORCED_ROW_GATES, long_row_gate, one_pass, row_read, row_refused
from oracles import parse_instance_lines, pred_table


def outcome(parse, text):
    try:
        inst = parse(text)
    except InstanceError as exc:
        return ("error", str(exc))
    return ("ok", inst, inst.profile)


def assert_same_outcome(text):
    got = outcome(parse_instance, text)
    assert got == outcome(parse_instance_lines, text)
    if got[0] == "ok":
        assert got[1].profile.succ is got[1]._succ  # one successor table, shared


# Comment text: printable ASCII, tab and non-ASCII letters and digits.
COMMENT_TEXT = st.text(alphabet="ab 1-+_\té١", max_size=6)
CONTROL_CHARS = ["\x00", "\x0c", "\r", "\x7f"]
BAD_TOKENS = ["x", "1a", "a1", "+1", "-1", "1_0", "٣", "a", "01", "0", "9" * 4400, "1.0"]
SEPARATORS = [" ", "  ", "\t", " \t"]


@st.composite
def instances(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    m = draw(st.integers(1, max_size))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=20))
    return Instance(n=n, m=m, arcs=arcs)


def _arc_positions(lines):
    return [k for k, line in enumerate(lines) if line.startswith("a")]


@st.composite
def edited_texts(draw):
    """Canonical text, then either a drawn list of layout changes and
    corruptions, or digits where no number may stand."""
    inst = draw(instances())
    lines = serialize_instance(inst, draw(st.lists(COMMENT_TEXT, max_size=2))).split("\n")[:-1]
    header = next(k for k, line in enumerate(lines) if line.startswith("p"))
    # Less its digits, a line "3a 4 5" still reads "a  ", and a digit before
    # a tag or after the final line break would join a number: (34, 5), or
    # "12" after the last arc.  Only a text that is canonical otherwise
    # reaches the checks that keep them out, so these get no other edit.
    shape = draw(st.sampled_from(["", "", "digit_before_tag", "trailing_digits"]))
    edits = [] if shape else draw(
        st.lists(
            st.sampled_from(
                [
                    "shuffle", "spaces", "comment", "blank", "duplicate",
                    "out_of_range", "bad_token", "header_after_arc", "swap_breaks",
                    "control",
                ]
            ),
            max_size=3,
        )
    )
    for edit in edits:
        arcs_at = _arc_positions(lines)
        if edit == "shuffle":
            body = draw(st.permutations(lines[header + 1 :]))
            lines[header + 1 :] = body
        elif edit == "spaces":
            k = draw(st.integers(0, len(lines) - 1))
            sep = draw(st.sampled_from(SEPARATORS))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines[k] = pad + lines[k].replace(" ", sep) + draw(st.sampled_from(["", " ", "\t"]))
        elif edit == "comment":
            k = draw(st.integers(0, len(lines)))
            lines.insert(k, ("c " + draw(COMMENT_TEXT)).rstrip(" "))
        elif edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
        elif edit == "duplicate" and arcs_at:
            k = draw(st.sampled_from(arcs_at))
            lines.insert(draw(st.integers(k + 1, len(lines))), lines[k])
        elif edit == "out_of_range":
            i = draw(st.sampled_from([0, 1, inst.n, inst.n + 1]))
            # As a key i * (m + 1) + j, the tail m + 1 would alias (i + 1, 0),
            # m + 2 (i + 1, 1) and 2m + 1 (i + 1, m): a real arc.
            j = draw(st.sampled_from([0, 1, inst.m, inst.m + 1, inst.m + 2, 2 * inst.m + 1]))
            lines.insert(draw(st.integers(header + 1, len(lines))), f"a {i} {j}")
        elif edit == "bad_token":
            k = draw(st.integers(0, len(lines) - 1))
            fields = lines[k].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[k] = " ".join(fields)
        elif edit == "control":
            k = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(CONTROL_CHARS)) + lines[k][at:]
        elif edit == "header_after_arc" and arcs_at:
            lines.insert(arcs_at[0] + 1, lines.pop(header))
        elif edit == "swap_breaks":
            # A space and a line break trade places: the line, space and tag
            # counts of the text are unchanged.
            text = "\n".join(lines)
            spaces = [k for k, ch in enumerate(text) if ch == " "]
            breaks = [k for k, ch in enumerate(text) if ch == "\n"]
            if spaces and breaks:
                chars = list(text)
                chars[draw(st.sampled_from(spaces))] = "\n"
                chars[draw(st.sampled_from(breaks))] = " "
                lines = "".join(chars).split("\n")
        header = next((k for k, line in enumerate(lines) if line.startswith("p")), 0)
    trailing = ""
    if shape:
        # n rises past any index a digit joins, so that no range check can
        # stand in for the shape checks.
        lines[header] = f"p cdock 999 {inst.m}"
        arcs_at = _arc_positions(lines)
        if shape == "digit_before_tag" and arcs_at:
            k = draw(st.sampled_from(arcs_at))
            lines[k] = draw(st.sampled_from("123456789")) + lines[k]
        elif shape == "trailing_digits":
            trailing = str(draw(st.integers(1, 999)))
    # Mostly the canonical line end, so that most unedited texts are canonical.
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = newline.join(lines)
    if draw(st.sampled_from([True, True, True, False])) or trailing:
        text += newline
    return text + trailing


@given(instances(), st.lists(COMMENT_TEXT, max_size=3))
def test_canonical_text_takes_the_one_pass_read(inst, comments):
    text = serialize_instance(inst, comments)
    fast = one_pass(text)
    expected = parse_instance_lines(text)
    assert fast == expected == inst
    assert fast.profile == expected.profile
    assert_same_outcome(text)


@settings(max_examples=200)  # half the texts take the digit shapes only
@given(edited_texts())
def test_parse_matches_line_parser(text):
    assert_same_outcome(text)


REJECTED = [
    # Its line, space and tag counts balance, but line 2 is not an arc.
    ("p cdock 9 9\na 1 2 a\n3 4\n", "malformed arc line, line 2"),
    ("p cdock 2 2\na 1 1\na 1 1\n", "duplicate arc, line 3"),
    ("p cdock 2 2\na 2 1\na 1 1\na 2 1\n", "duplicate arc, line 4"),
    ("p cdock 2 2\na 1 2\na 1 3\n", "index out of range, line 3"),
    ("p cdock 2 2\na 1 1\na 3 1\n", "index out of range, line 3"),
    # Five tokens, two tags, four spaces: the short line must not pass.
    ("p cdock 3 3\na 1 2\na 3 \n", "malformed arc line, line 3"),
    # No final newline, and the last line break is not followed by a tag.
    ("p cdock 2 2\na 1 1\na 2\n 2", "malformed arc line, line 3"),
    ("p cdock 2 2\na 0 1\n", "index out of range, line 2"),
    ("p cdock 2 2\na 1 0\na 1 1\n", "index out of range, line 2"),
    # int() reads these, so only the character test keeps them out.
    ("p cdock 20 2\na 1_0 1\n", "unexpected character '_', line 2"),
    ("p cdock 2 2\na +1 1\n", "unexpected character '+', line 2"),
    ("p cdock 2 2\na 1 1\x0c\n", "control character U+000C, line 2"),
    ("p cdock 2 2\na 1 x\n", "malformed arc line, line 2"),
    ("p cdock 2 2\na 1 1\np cdock 2 2\n", "duplicate header, line 3"),
    ("a 1 1\np cdock 2 2\n", "arc before header, line 1"),
    ("p cdock 5 5\na1 2 3\n", "unrecognized line type 'a1', line 2"),
    # Less their digits these are count lines "a  \n", but a digit before
    # a tag or after the last newline must not join a number.
    ("p cdock 40 9\na 1 2\n3a 4 5\n", "unrecognized line type '3a', line 3"),
    ("p cdock 60 9\n5a 1 2\n", "unrecognized line type '5a', line 2"),
    ("p cdock 9 9\na 1 2\n12", "unrecognized line type '12', line 3"),
    ("p cdock 3 3\n12", "unrecognized line type '12', line 2"),
    ("p cdock 3 3\na 1 2\na 2 0\n", "index out of range, line 3"),
    # Its line counts balance, but not its lines.
    ("p cdock 9 9\na 1 2 3\na 4\n", "malformed arc line, line 2"),
    ("c \x0c\np cdock 2 2\n", "control character U+000C, line 1"),
    # As a key i * (m + 1) + j with m = 2, the arc (1, 4) reads back as
    # (2, 1): the line parser's range check must come before the key.
    pytest.param("p cdock 2 2\na 2 2\na 1 4\n", "index out of range, line 3", id="alias_after_fallback"),
    pytest.param("p cdock 2 2\na 1 4\na 2 2\n", "index out of range, line 2", id="alias_first"),
    # Sorted heads, so the one-pass row cut meets each of these itself.
    pytest.param("p cdock 2 2\na 1 1\na 2 0\na 2 1\n", "index out of range, line 3", id="tail_0_opens_a_row"),
    pytest.param("p cdock 2 2\na 1 1\na 1 3\na 2 1\n", "index out of range, line 3", id="tail_m_plus_1_closes_a_row"),
    pytest.param("p cdock 2 2\na 1 1\na 2 1\na 2 1\n", "duplicate arc, line 4", id="repeat_after_a_row_change"),
    pytest.param("p cdock 2 2\na 0 1\na 1 1\n", "index out of range, line 2", id="head_0_first"),
    pytest.param("p cdock 2 2\na 1 1\na 2 1\na 3 2\n", "index out of range, line 4", id="head_n_plus_1_sorted"),
]


@pytest.mark.parametrize("text,message", REJECTED)
def test_rejected_texts_give_the_line_parsers_error(text, message):
    assert one_pass(text) is None
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert str(exc.value) == message
    assert_same_outcome(text)


@pytest.mark.parametrize("text", ["p cdock 2 2\na 1 " + "1" * 5000 + "\n", "p cdock " + "1" * 5000 + " 2\n"])
def test_overlong_numbers_take_the_line_parser(text):
    # Past int()'s digit limit, where the interpreter has one, int() raises.
    assert one_pass(text) is None
    assert_same_outcome(text)


def test_header_alone_takes_the_one_pass_read():
    text = "p cdock 3 3\n"
    assert one_pass(text) == Instance(3, 3, frozenset())
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "p cdock 2 2\r\na 1 1\r\n",
        "p cdock 2 2\na 1\t1\n",
        "p cdock 2 2\na  1 1\n",
        "p cdock 2 2\na 1 1 \n",
        "p cdock 2 2\n a 1 1\n",
        "p cdock 2 2\nc mid\na 1 1\n",
        "p cdock 2 2\na 1 1",
        "p cdock 2 2\n\na 1 1\n",
        # The JSON decode refuses a leading zero; int() reads "01" as 1.
        "p cdock 2 2\na 01 1\n",
    ],
    ids=[
        "crlf", "tab", "double_space", "trailing_space", "leading_space",
        "comment_after_header", "no_final_newline", "blank_line", "leading_zero",
    ],
)
def test_valid_non_canonical_texts_take_the_line_parser(text):
    assert one_pass(text) is None
    assert_same_outcome(text)
    assert parse_instance(text).arcs


@pytest.mark.parametrize(
    "text",
    [
        "p  cdock 2 2\na 1 1\n",
        "p cdock 2 2\r\na 1 1\n",
        "\np cdock 2 2\na 1 1\n",
        " c lead\np cdock 2 2\na 1 1\n",
    ],
    ids=["header_spacing", "crlf_header", "blank_before_header", "comment_leading_space"],
)
def test_header_layouts_take_the_one_pass_read(text):
    # The line parser reads the lines up to the header, whatever their
    # layout; the arc block after them is in the serializer's layout.
    assert one_pass(text) == parse_instance_lines(text)
    assert_same_outcome(text)
    assert parse_instance(text).arcs


@pytest.mark.parametrize(
    "text",
    [
        "p cdock 2 2\na 1 2\na 1 1\n",
        "p cdock 2 2\na 2 1\na 1 1\n",
        "p cdock 2 2\na 2 1\na 1 2\n",
        "p cdock 3 3\na 3 1\na 1 3\na 2 2\na 1 1\n",
        "p cdock 3 3\na 1 3\na 1 2\na 1 1\na 2 1\n",
    ],
    ids=["row_unsorted", "rows_unsorted", "rows_unsorted_rising", "shuffled", "row_descending_heads_sorted"],
)
def test_arcs_out_of_order_take_the_line_parser(text):
    # The one-pass read refuses arcs out of order; the line parser reads them.
    assert one_pass(text) is None
    assert_same_outcome(text)
    assert parse_instance(text).arcs


@pytest.mark.parametrize("seed", range(4))
def test_parsers_agree_on_generated_instances(seed):
    for inst in (gen_random(60, 50, 0.3, seed), gen_d2(300, 250, 5, seed)):
        text = serialize_instance(inst, comments=[f"seed {seed}"])
        expected = ("ok", inst, instance_module._build_profile(inst))
        assert one_pass(text) is not None
        assert outcome(parse_instance, text) == expected
        comment, header, *arcs = text.splitlines()
        reversed_text = "\n".join([comment, header, *reversed(arcs)]) + "\n"
        assert one_pass(reversed_text) is None
        assert outcome(parse_instance, reversed_text) == expected
        crlf_text = reversed_text.replace("\n", "\r\n")
        assert one_pass(crlf_text) is None
        assert outcome(parse_instance, crlf_text) == expected


def _golden_texts():
    """A seeded corpus: the serializer's text of each generator with 0 to 2
    comments, that text in other valid layouts, corrupted copies of it, and
    every rejected text above."""
    rnd = random.Random(24)
    sources = [
        *(gen_random(n, m, p, seed) for n, m, p in ((1, 1, 1.0), (5, 7, 0.4), (30, 20, 0.3)) for seed in (0, 1)),
        *(gen_d2(a, b, pendants, seed) for a, b, pendants in ((1, 2, 0), (8, 10, 2), (40, 30, 5)) for seed in (0, 1)),
        *(gen_tight(TightParams(k, l, s)) for k, l, s in ((1, 1, 3), (3, 2, 4))),
    ]
    for k, inst in enumerate(sources):
        text = serialize_instance(inst, ["golden", "Größe ½"][: k % 3])
        yield text
        yield text.replace("\n", "\r\n")
        lines = text.split("\n")[:-1]
        h = next(i for i, line in enumerate(lines) if line.startswith("p"))
        arcs = lines[h + 1 :]
        for layout in (
            [*lines[:h], lines[h].replace(" ", "  "), *arcs],
            [*lines[:h], lines[h] + "\r", *arcs],
            [*lines[:h], "", " ", lines[h], *arcs],
            ["c before", *lines[:h + 1], "c after", *arcs],
            [*lines[:h + 1], "", *arcs],
            [*lines[:h + 1], *rnd.sample(arcs, len(arcs))],
        ):
            yield "\n".join(layout) + "\n"
        edits = [f"a {inst.n + 1} 1", f"a 1 {inst.m + 1}", "a 0 1"]
        if arcs:
            edits.append(rnd.choice(arcs))
            fields = rnd.choice(arcs).split(" ")
            fields[rnd.randrange(3)] = rnd.choice([t for t in BAD_TOKENS if len(t) < 10])
            edits.append(" ".join(fields))
        for edit in edits:
            at = rnd.randint(h + 1, len(lines))
            yield "\n".join([*lines[:at], edit, *lines[at:]]) + "\n"
    yield from ["", "c only\n", "p cdock 3 3", "p cdock 3 3\r\n", f"p cdock {MAX_OPS + 1} 1\n"]
    yield from ["\n\np cdock 2 2\na 1 1\n", "c x\r\n\r\np cdock 2 2\r\na 2 1\n", "p cdock 2 2\na 1 1"]
    for case in REJECTED:
        yield getattr(case, "values", case)[0]


# The outcomes of the corpus as the parser read it before the line parser
# became the only reader of comments and the header; a change to any
# instance, profile or error message, line number included, changes it.
GOLDEN_PARSE_DIGEST = "3197bd0ff6d4790fa455e4aa8cb154653f81ead4b368855b7551e749505a6f1f"


def golden_repr(result):
    """``repr`` of an outcome as the digest was taken, when the profile's
    ``repr`` ended with its predecessor table: that table, read from the
    arcs, is appended to the profile's own ``repr``."""
    if result[0] == "error":
        return repr(result)
    _, inst, prof = result
    return f"('ok', {inst!r}, {repr(prof)[:-1]}, pred={pred_table(inst)!r}))"


def test_parse_outcomes_golden_digest():
    digest = hashlib.sha256()
    for text in _golden_texts():
        digest.update(golden_repr(outcome(parse_instance, text)).encode())
    assert digest.hexdigest() == GOLDEN_PARSE_DIGEST


# -- both readers of a block in the serializer's layout -----------------------
# An arc block whose mean row length reaches _LONG_ROW is read one row at a
# time by _long_rows, any shorter one by the one-pass read.  Every refusal
# above, and the golden corpus, must read the same with the gate forced
# either way: at 0 every block in the serializer's layout reaches the row
# reader, and at infinity none does.


@FORCED_ROW_GATES
@pytest.mark.parametrize("text,message", REJECTED)
def test_rejected_texts_under_a_forced_row_gate(gate, text, message):
    with long_row_gate(gate):
        test_rejected_texts_give_the_line_parsers_error(text, message)


@FORCED_ROW_GATES
def test_golden_digest_under_a_forced_row_gate(gate):
    with long_row_gate(gate):
        test_parse_outcomes_golden_digest()


@FORCED_ROW_GATES
@settings(max_examples=200)
@given(text=edited_texts())
def test_parse_matches_line_parser_under_a_forced_row_gate(gate, text):
    with long_row_gate(gate):
        assert_same_outcome(text)


@FORCED_ROW_GATES
@given(inst=instances(), comments=st.lists(COMMENT_TEXT, max_size=3))
def test_canonical_text_under_a_forced_row_gate(gate, inst, comments):
    with long_row_gate(gate):
        text = serialize_instance(inst, comments)
        assert one_pass(text) == parse_instance_lines(text) == inst
        assert_same_outcome(text)


def test_empty_tail_under_a_forced_row_gate():
    # Its one line is the whole row, and the row's tails decode to [].
    with long_row_gate(0):
        assert row_refused("p cdock 3 3\na 3 \n")
        test_rejected_texts_give_the_line_parsers_error("p cdock 3 3\na 3 \n", "malformed arc line, line 2")


def _one_row(tails, head="1", n=1, m=200):
    return f"p cdock {n} {m}\n" + "".join(f"a {head} {j}\n" for j in tails)


SWAPPED = [*range(1, 100), 101, 100, *range(102, 201)]
# Each a block in the serializer's layout whose mean row length reaches the
# gate: the row reader refuses it, and the line parser reads it.
LONG_ROWS_REFUSED = [
    pytest.param(_one_row(SWAPPED), None, id="two_tails_swapped"),
    pytest.param(_one_row([*range(1, 101), *range(100, 201)]), "duplicate arc, line 102", id="repeated_tail"),
    pytest.param(_one_row(range(1, 202)), "index out of range, line 202", id="tail_m_plus_1"),
    pytest.param(_one_row(range(0, 200)), "index out of range, line 2", id="tail_0"),
    pytest.param(
        "p cdock 2 200\n" + "".join(f"a {i} {j}\n" for i, lo in ((1, 1), (2, 1), (1, 101)) for j in range(lo, lo + 100)),
        None,
        id="head_comes_back",
    ),
    pytest.param(
        "p cdock 2 200\n" + "".join(f"a {i} {j}\n" for i, lo in ((1, 1), (2, 1), (1, 100)) for j in range(lo, lo + 100)),
        "duplicate arc, line 202",
        id="head_comes_back_repeating",
    ),
    pytest.param(_one_row(range(1, 201)).replace("\na 1 100\n", "\na 01 100\n"), None, id="leading_zero_mid_row"),
    pytest.param(_one_row(range(1, 201), head="01"), None, id="leading_zero_head"),
    pytest.param(_one_row(range(1, 201), head="0"), "index out of range, line 2", id="head_0"),
    pytest.param(_one_row(range(1, 201), head="2"), "index out of range, line 2", id="head_n_plus_1"),
    pytest.param(_one_row(range(1, 201)).replace("\na 1 50\n", "\na 1 \n"), "malformed arc line, line 51", id="empty_tail"),
    pytest.param(_one_row(range(1, 201)).replace("\na 1 50\n", "\na  50\n"), "malformed arc line, line 51", id="empty_head"),
]


@pytest.mark.parametrize("text,message", LONG_ROWS_REFUSED)
def test_long_rows_the_row_reader_refuses(text, message):
    assert row_refused(text)
    assert_same_outcome(text)
    if message is not None:
        with pytest.raises(InstanceError) as exc:
            parse_instance(text)
        assert str(exc.value) == message
    else:
        assert parse_instance(text).arcs


@pytest.mark.parametrize("seed", range(2))
def test_dense_text_takes_the_row_reader(seed):
    inst = gen_random(500, 500, 0.5, seed)
    text = serialize_instance(inst, ["dense"])
    assert row_read(text) == inst
    assert_same_outcome(text)


def test_one_long_row_takes_the_row_reader():
    text = _one_row(range(1, 401), m=400)
    assert row_read(text) == Instance(1, 400, {(1, j) for j in range(1, 401)})
    assert_same_outcome(text)


def test_a_row_past_the_first_window_takes_the_row_reader():
    # The first window spans about twice the mean row, 200 of these lines,
    # so row 1 is found only once it has doubled.
    text = "p cdock 4 400\n" + "".join(f"a 1 {j}\n" for j in range(1, 401)) + "a 2 1\na 3 1\na 4 1\n"
    assert row_read(text) == parse_instance_lines(text)
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "inst",
    [gen_d2(2000, 2000, 40, 1), gen_random(250, 250, 0.02, 1), gen_random(200, 200, 0.3, 1)],
    ids=["d2", "cli_batch_sized", "rows_of_60"],
)
def test_short_rows_take_the_one_pass_read(inst):
    text = serialize_instance(inst)
    assert row_read(text) is None and not row_refused(text)
    assert one_pass(text) == inst


# -- the size cap -------------------------------------------------------------


@pytest.mark.parametrize(
    "text", [f"p cdock {MAX_OPS + 1} 1\n", f"p cdock 1 {MAX_OPS + 1}\n", "p cdock 50000000 1"]
)
def test_header_beyond_max_ops_is_rejected(text):
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert str(exc.value) == f"n and m must be at most {MAX_OPS}, line 1"


def test_header_at_max_ops_is_accepted():
    # The profile is not built, so the successor table (one tuple of n + 1
    # entries) is all that is allocated at size MAX_OPS.
    assert parse_instance(f"p cdock {MAX_OPS} {MAX_OPS}\na 1 1\n").n == MAX_OPS
    assert parse_instance(f"c big\np cdock 1 {MAX_OPS}\na 1 {MAX_OPS}").m == MAX_OPS


@pytest.mark.parametrize("header", ["p cdock 50000000 1", "p cdock 1 50000000"])
def test_cli_rejects_oversized_instance(tmp_path, capsys, header):
    path = tmp_path / "huge.cd"
    path.write_text(header + "\na 1 1\n")
    assert main(["solve", "--alg", "greedy", "--in", str(path)]) == 2
    assert f"n and m must be at most {MAX_OPS}, line 1" in capsys.readouterr().err
