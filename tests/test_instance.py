import hashlib
import re

import pytest
from hypothesis import given, strategies as st

from crossdock import (
    MAX_OPS,
    Instance,
    InstanceError,
    classify,
    degree_profile,
    gen_d2,
    gen_random,
    gen_tight,
    parse_instance,
    serialize_instance,
    TightParams,
)
from conftest import EX1_TEXT, FORCED_ROW_GATES, long_row_gate
from oracles import pred_table, serialize_by_arcs


def test_parse_smallest():
    inst = parse_instance("p cdock 1 1\na 1 1\n")
    assert inst == Instance(n=1, m=1, arcs=frozenset({(1, 1)}))


def test_parse_ex1(ex1):
    assert parse_instance(EX1_TEXT) == ex1
    assert len(ex1.arcs) == 12


def test_parse_skips_comments():
    inst = parse_instance("c generated by hand\np cdock 2 2\nc mid comment\na 1 1\n")
    assert inst.arcs == frozenset({(1, 1)})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cdock 2 2\na 1 3\n", "index out of range, line 2"),
        ("p cdock 2 2\na 1 1\na 1 1\n", "duplicate arc, line 3"),
        ("p cdock x 2\n", "malformed header, line 1"),
        ("p wrong 2 2\n", "malformed header, line 1"),
        ("p cdock 0 2\n", "line 1"),
        ("a 1 1\n", "arc before header, line 1"),
        ("p cdock 2 2\nq 1 1\n", "line 2"),
        ("", "missing header"),
        ("p cdock 2 2\na 1_0 1\n", "unexpected character '_', line 2"),
        ("p cdock 2 2\na +1 1\n", r"unexpected character '\+', line 2"),
        ("p cdock 1_0 2\n", "unexpected character '_', line 1"),
        ("p cdock -1 2\n", "unexpected character '-', line 1"),
        ("p cdock 2 2\x0ba 1 1\n", r"control character U\+000B, line 1"),
        ("p cdock 2 2\x0ca 1 1\n", r"control character U\+000C, line 1"),
        ("p cdock 2 2\x1ca 1 1\n", r"control character U\+001C, line 1"),
        ("p cdock 2 2\x1da 1 1\n", r"control character U\+001D, line 1"),
        ("p cdock 2 2\x1ea 1 1\n", r"control character U\+001E, line 1"),
        ("p cdock 2 2\ra 1 1\n", r"control character U\+000D, line 1"),
        ("p cdock 2 2\na 1 1\x00\n", r"control character U\+0000, line 2"),
        ("p cdock 2 2\na 1 1\x7f\n", r"control character U\+007F, line 2"),
        ("c \x0ca 1 1\np cdock 2 2\n", r"control character U\+000C, line 1"),
        ("a 1 1\np cdock 1_0 2\n", "arc before header, line 1"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment.replace("(", "\\(")):
        parse_instance(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("p cdock 2 2\na \u0661 1\n", "non-ASCII character U+0661, line 2"),
        ("p cdock \uff12 2\n", "non-ASCII character U+FF12, line 1"),
        ("\ufeffp cdock 2 2\na 1 1\n", "non-ASCII character U+FEFF, line 1"),
        ("c caf\u00e9\np cdock 2 2\na 1\u00a01\n", "non-ASCII character U+00A0, line 3"),
    ],
)
def test_parse_rejects_non_ascii(text, message):
    with pytest.raises(InstanceError, match=re.escape(message)):
        parse_instance(text)


def test_parse_non_ascii_comments():
    text = "c caf\u00e9 \u0661\np cdock 2 2\nc \ufeff\na 1 1\nc\n"
    assert parse_instance(text) == Instance(n=2, m=2, arcs=frozenset({(1, 1)}))


def test_parse_crlf_round_trip(ex1):
    crlf = serialize_instance(ex1, comments=["crossdock gen --n 6"]).replace("\n", "\r\n")
    assert parse_instance(crlf) == ex1
    assert parse_instance(crlf.removesuffix("\n")) == ex1
    assert serialize_instance(parse_instance(crlf)) == serialize_instance(ex1)


def test_parse_comments_keep_signs_and_tabs():
    text = "c gen random --n 2 --p 0.5 +x_y\np cdock 2 2\na 1\t2\n"
    assert parse_instance(text) == Instance(n=2, m=2, arcs=frozenset({(1, 2)}))


@pytest.mark.parametrize("text", [b"p cdock 1 1\n", None, ["p cdock 1 1"]])
def test_parse_refuses_text_that_is_not_a_str(text):
    with pytest.raises(TypeError, match=f"^instance text must be a str, got {type(text).__name__}$"):
        parse_instance(text)


def test_constructor_refuses_a_repeated_arc():
    # The parser refuses the same arcs as text; a set would merge them.
    with pytest.raises(InstanceError, match=re.escape("arc (1, 1) is repeated")):
        Instance(1, 1, [(1, 1), (1, 1)])
    with pytest.raises(InstanceError, match=re.escape("arc (2, 3) is repeated")):
        Instance(2, 3, iter([(2, 3), (1, 1), (2, 3), (1, 2)]))
    with pytest.raises(InstanceError):
        parse_instance("p cdock 1 1\na 1 1\na 1 1\n")
    # A set or a list without repeats gives the one instance of its arcs.
    assert Instance(2, 3, [(2, 3), (1, 1)]) == Instance(2, 3, {(1, 1), (2, 3)})


def test_constructor_rejects_bad_sizes():
    with pytest.raises(InstanceError):
        Instance(n=0, m=1, arcs=frozenset())
    with pytest.raises(InstanceError):
        Instance(n=1, m=1, arcs=frozenset({(1, 2)}))
    # None of these could round-trip through serialize_instance and parse_instance.
    with pytest.raises(InstanceError, match=re.escape("arc (True, 1) is not a pair of integers")):
        Instance(n=1, m=1, arcs={(True, 1)})
    with pytest.raises(InstanceError, match=re.escape("arc (1.0, 2) is not a pair of integers")):
        Instance(n=2, m=2, arcs={(1.0, 2)})
    with pytest.raises(InstanceError, match=f"in 1..{MAX_OPS}, got n={MAX_OPS + 1}, m=1"):
        Instance(n=MAX_OPS + 1, m=1, arcs=())
    with pytest.raises(InstanceError, match=f"in 1..{MAX_OPS}, got n=1, m={MAX_OPS + 1}"):
        Instance(n=1, m=MAX_OPS + 1, arcs=())
    with pytest.raises(InstanceError, match=re.escape("arc (1, 1, 1) is not a pair of indices")):
        Instance(n=1, m=1, arcs={(1, 1, 1)})
    with pytest.raises(InstanceError, match=re.escape("arc 1 is not a pair of indices")):
        Instance(n=1, m=1, arcs={1})
    # Arcs that are not an iterable of hashable items fail before any arc is read.
    for arcs, reason in (
        (5, "'int' object is not iterable"),
        (None, "'NoneType' object is not iterable"),
        ([[1, 1]], "unhashable type: 'list'"),
    ):
        with pytest.raises(InstanceError, match=re.escape(f"iterable of (i, j) pairs: {reason}")):
            Instance(1, 1, arcs)
    with pytest.raises(InstanceError, match=re.escape("got n=2.0, m=1")):
        Instance(n=2.0, m=1, arcs=())
    with pytest.raises(InstanceError, match=re.escape("got n=1, m=True")):
        Instance(n=1, m=True, arcs=())
    # The largest sizes stay valid.
    assert Instance(n=MAX_OPS, m=1, arcs=()).n == MAX_OPS


def test_serialize_smallest():
    inst = Instance(n=1, m=1, arcs=frozenset({(1, 1)}))
    assert serialize_instance(inst) == "p cdock 1 1\na 1 1\n"


@pytest.mark.parametrize(
    "comments,message",
    [
        ("hi", "comments must be an iterable of str, not a str"),
        ([3], "comment 0 is not a str: int"),
        (["ok", b"hi"], "comment 1 is not a str: bytes"),
        (["a\nb"], "comment 0 holds control character U+000A"),
        (["ok", "\x00"], "comment 1 holds control character U+0000"),
        (["tab\tok", "cr\r"], "comment 1 holds control character U+000D"),
    ],
    ids=["bare_str", "int", "bytes", "line_break", "nul", "carriage_return"],
)
def test_serialize_refuses_comments_the_parser_would_not_read_back(comments, message):
    with pytest.raises(InstanceError) as exc:
        serialize_instance(Instance(n=1, m=1, arcs={(1, 1)}), comments)
    assert str(exc.value) == message


def test_serialize_ex1_arc_order(ex1):
    lines = serialize_instance(ex1).splitlines()
    arcs = [tuple(int(x) for x in line.split()[1:]) for line in lines[1:]]
    assert arcs == [
        (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3),
        (4, 4), (4, 5), (5, 3), (5, 6), (6, 5), (6, 6),
    ]


def test_round_trip_random_instances():
    for seed in range(100):
        inst = gen_random(n=1 + seed % 7, m=1 + (seed * 3) % 8, p=0.4, seed=seed)
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        # canonical form is idempotent
        assert serialize_instance(parse_instance(text)) == text


# Mean rows from 0 to 300 arcs, on both sides of the row writer's gate, and
# m from 1 to 300, on both sides of the arc count its digit table must not
# pass.
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 300),
    p=st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]),
    seed=st.integers(0, 10**6),
    comments=st.lists(st.text(alphabet="ab 1\té½", max_size=5), max_size=2),
)
def test_serialize_equals_the_per_arc_writer(n, m, p, seed, comments):
    inst = gen_random(n, m, p, seed)
    text = serialize_instance(inst, comments)
    assert text == serialize_by_arcs(inst, comments)
    assert parse_instance(text) == inst


@FORCED_ROW_GATES
@given(seed=st.integers(0, 10**6))
def test_serialize_under_a_forced_row_gate(gate, seed):
    inst = gen_random(1 + seed % 5, 1 + seed % 7, 0.7, seed)
    with long_row_gate(gate):
        assert serialize_instance(inst, ["forced"]) == serialize_by_arcs(inst, ["forced"])


def _serializer_corpus():
    yield gen_random(500, 500, 0.5, 25), ["dense 500"]
    yield gen_random(120, 300, 0.9, 25), []
    yield gen_random(120, 300, 0.9, 26), ["Größe ½", "\ttab"]
    yield gen_d2(2000, 1500, 40, 25), ["d2"]
    yield gen_tight(TightParams(3, 2, 4)), []
    yield gen_tight(TightParams(20, 10, 300)), ["tight"]


# The serializer's bytes on the corpus above, as the per-arc writer wrote
# them before long rows were joined one row at a time.
SERIALIZER_DIGEST = "895b381f7fa60368f5453e95c666e118d00450cca2ea4845db56606915064827"


def test_serializer_golden_digest():
    digest = hashlib.sha256()
    for inst, comments in _serializer_corpus():
        digest.update(serialize_instance(inst, comments).encode())
    assert digest.hexdigest() == SERIALIZER_DIGEST


def test_degree_profile_ex1_sorted_in_degrees(ex1):
    prof = degree_profile(ex1)
    order = sorted(range(1, 8), key=lambda j: (prof.in_deg[j - 1], j))
    assert order == [1, 7, 4, 5, 6, 2, 3]
    assert tuple(prof.in_deg[j - 1] for j in order) == (0, 0, 1, 2, 2, 3, 4)


def test_degree_profile_ex1_out_degrees(ex1):
    assert degree_profile(ex1).out_deg == (2, 2, 2, 2, 2, 2)


def test_degree_profile_no_arcs():
    prof = degree_profile(Instance(n=3, m=2, arcs=frozenset()))
    assert prof.out_deg == (0, 0, 0)
    assert prof.in_deg == (0, 0)


def test_degree_profile_adjacency_consistency(ex1):
    prof = degree_profile(ex1)
    for i in range(1, 7):
        assert prof.out_deg[i - 1] == len(prof.succ[i])
    pred = pred_table(ex1)
    for j in range(1, 8):
        assert prof.in_deg[j - 1] == len(pred[j])


def test_classify_ex1(ex1):
    cls = classify(ex1)
    assert cls.is_d2
    assert cls.has_pendant_b  # B1 and B7 have no predecessors


def test_classify_tight_family():
    cls = classify(gen_tight(TightParams(3, 2, 3)))
    assert not cls.is_d2  # middle-group A-operations have out-degree 3
    assert not cls.has_pendant_b


def test_classify_single_a_two_b():
    cls = classify(Instance(n=1, m=2, arcs=frozenset({(1, 1), (1, 2)})))
    assert cls.is_d2
    assert not cls.has_pendant_b


@given(st.integers(0, 10_000))
def test_degree_sum_identity(seed):
    inst = gen_random(n=1 + seed % 6, m=1 + seed % 5, p=0.5, seed=seed)
    prof = degree_profile(inst)
    assert sum(prof.out_deg) == sum(prof.in_deg) == len(inst.arcs)


def test_is_d2_matches_degrees():
    from crossdock import gen_d2

    for seed in range(200):
        if seed % 2:
            inst = gen_d2(a_count=1 + seed % 5, b_count=3 + seed % 4, pendant_count=seed % 2, seed=seed)
        else:
            inst = gen_random(n=1 + seed % 5, m=2 + seed % 4, p=0.5, seed=seed)
        prof = degree_profile(inst)
        assert classify(inst).is_d2 == all(d == 2 for d in prof.out_deg)
