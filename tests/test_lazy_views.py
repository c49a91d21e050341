"""``Instance.arcs`` and a trace's ``events`` are built only when read.

An instance is its successor table: ``==``, ``hash`` and ``repr`` read
``(n, m, _succ)``, and the arc set is a view built from the table only when
something reads it.  Likewise a pd2 trace is its run's three flat tuples,
and it builds its pick triples from them only when something reads
``events``, keeping none.  These tests pin that: the library and CLI
pipelines build neither view and leave no run on the instance, and a
solved trace holds its three tuples and the instance it solved alone, its
events the eager run's triples; every generator and both parser paths give
a canonical table, so table equality is arc-set equality; and a parsed
instance behaves exactly as its constructed twin under ``==``, ``hash``,
``repr``, ``asdict``, pickle, ``copy`` and ``deepcopy``.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

import crossdock.cli as cli
import crossdock.instance as instance_module
from crossdock import (
    Instance,
    Schedule,
    TightParams,
    blocks,
    bounds_report,
    check_feasible,
    classify,
    complete_m2_erd,
    gen_d2,
    gen_random,
    gen_tight,
    lemma1_bound,
    parse_instance,
    release_times,
    serialize_instance,
    solve_exact,
    solve_greedy,
    solve_pd2,
)
from conftest import one_pass
from oracles import blocks_by_walk, pd2_steps_by_scan


# Canonical text takes the one-pass read, CRLF text the line parser.
LAYOUTS = pytest.mark.parametrize(
    "layout", [lambda t: t, lambda t: t.replace("\n", "\r\n")], ids=["lf", "crlf"]
)


@LAYOUTS
def test_pd2_pipeline_builds_neither_view(layout):
    inst = parse_instance(layout(serialize_instance(gen_d2(300, 300, 6, 1))))
    assert classify(inst).is_d2
    sched, trace = solve_pd2(inst)
    assert lemma1_bound(inst) == max(inst.n + 2, inst.m)
    assert blocks(inst, trace)
    assert check_feasible(inst, sched).ok
    assert "arcs" not in vars(inst)
    # the run is the trace; the instance keeps its profile alone
    assert set(vars(inst)) <= {"n", "m", "_succ", "profile"}
    assert vars(trace)["_inst"] is inst


def _events_unbuilt(trace):
    """Whether ``trace`` holds its three tuples and the instance solved, no triples."""
    return set(vars(trace)) == {"order", "degree", "pi", "_inst"}


@LAYOUTS
def test_d2_pipeline_leaves_the_trace_events_unbuilt(layout):
    # The d2_sparse workload's pipeline reads no trace event.
    inst = parse_instance(layout(serialize_instance(gen_d2(300, 300, 6, 1))))
    assert classify(inst).is_d2
    sched, trace = solve_pd2(inst)
    assert lemma1_bound(inst) == max(inst.n + 2, inst.m)
    blks = blocks(inst, trace)
    assert check_feasible(inst, sched).ok
    assert _events_unbuilt(trace)
    # Read, the events are the eager run's triples, and the trace keeps none.
    steps = pd2_steps_by_scan(inst)
    assert trace.events == steps
    assert _events_unbuilt(trace)
    assert blks == blocks_by_walk(inst, steps) == blocks(inst, trace)


def test_cli_pd2_solve_leaves_the_trace_events_unbuilt(tmp_path, monkeypatch, capsys):
    instances, traces = [], []

    def solve(inst):
        sched, trace = solve_pd2(inst)
        instances.append(inst)
        traces.append(trace)
        return sched, trace

    monkeypatch.setattr(cli, "solve_pd2", solve)
    path, out = tmp_path / "d2.cd", tmp_path / "d2.json"
    path.write_text(serialize_instance(gen_d2(80, 70, 3, 2)))
    assert cli.main(["solve", "--alg", "pd2", "--in", str(path), "--out", str(out), "--gantt"]) == 0
    capsys.readouterr()
    (inst,), (trace,) = instances, traces
    assert _events_unbuilt(trace)
    assert vars(trace)["_inst"] is inst
    assert trace.events == pd2_steps_by_scan(inst)


@LAYOUTS
def test_greedy_pipeline_builds_no_arcs(layout):
    inst = parse_instance(layout(serialize_instance(gen_random(40, 50, 0.3, 1))))
    sched = solve_greedy(inst)
    assert bounds_report(inst).q >= 1
    assert check_feasible(inst, sched).ok
    assert "arcs" not in vars(inst)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_random(30, 40, 0.3, 1),
        lambda: gen_d2(50, 40, 3, 1),
        lambda: gen_tight(TightParams(4, 2, 3)),
    ],
    ids=["random", "d2", "tight"],
)
def test_generate_and_serialize_build_neither_view(make):
    inst = make()
    text = serialize_instance(inst, comments=["generated"])
    assert "arcs" not in vars(inst) and "profile" not in vars(inst)
    # The profile shares the instance's successor table, and the serializer
    # writes the same text once it is built.
    assert inst.profile.succ is inst._succ
    assert serialize_instance(inst, comments=["generated"]) == text
    assert "arcs" not in vars(inst)
    assert parse_instance(text) == inst
    # Reading arcs on a fresh instance builds no profile either.
    fresh = make()
    assert fresh.arcs == inst.arcs and "profile" not in vars(fresh)


def test_build_profile_leaves_an_instance_whole():
    # _build_profile must leave _succ in place: taking it would leave the
    # instance without the table its ==, hash and arcs read.
    for make in (lambda: parse_instance("p cdock 2 2\na 1 1\na 2 2\n"), lambda: gen_d2(4, 3, 0, 1)):
        inst, twin = make(), make()
        built = instance_module._build_profile(inst)
        assert inst.profile == built == twin.profile
        assert inst.arcs == twin.arcs and inst == twin


def _pickle_trip(inst):
    return pickle.loads(pickle.dumps(inst))


@pytest.mark.parametrize("build_profile", [False, True], ids=["plain", "with_profile"])
def test_pickles_and_copies_carry_only_the_successor_table(build_profile):
    # Neither a built arcs set nor a built profile rides along: a constructed
    # instance pickles to the same bytes as its parsed twin, before and after
    # both views are read, and the trip rebuilds them on first read.
    parsed = parse_instance(serialize_instance(gen_random(60, 50, 0.3, 1)))
    size = len(pickle.dumps(parsed))
    inst = Instance(parsed.n, parsed.m, parsed.arcs)
    assert pickle.dumps(inst) == pickle.dumps(parsed)
    if build_profile:
        assert inst.profile.succ is inst._succ
    for again in (_pickle_trip(inst), copy.copy(inst), copy.deepcopy(inst)):
        assert set(vars(again)) == {"n", "m", "_succ"}
        assert again == inst and hash(again) == hash(inst)
        assert again.profile == instance_module._build_profile(inst)
        assert again.profile.succ is again._succ
    assert copy.copy(inst)._succ is inst._succ
    assert len(pickle.dumps(inst)) == size
    assert len(pickle.dumps(_pickle_trip(inst))) == size


def test_cli_solve_and_verify_build_neither_view(tmp_path, monkeypatch, capsys):
    instances, traces = [], []

    def parse(text):
        instances.append(parse_instance(text))
        return instances[-1]

    def solve(inst):
        sched, trace = solve_pd2(inst)
        traces.append(trace)
        return sched, trace

    monkeypatch.setattr(cli, "parse_instance", parse)
    monkeypatch.setattr(cli, "solve_pd2", solve)
    for name, inst, alg in (
        ("d2", gen_d2(60, 50, 2, 3), "pd2"),
        ("random", gen_random(30, 40, 0.2, 3), "greedy"),
    ):
        path, sched = tmp_path / f"{name}.cd", tmp_path / f"{name}.json"
        path.write_text(serialize_instance(inst))
        assert cli.main(["solve", "--alg", alg, "--in", str(path), "--out", str(sched), "--gantt"]) == 0
        assert cli.main(["verify", "--in", str(path), "--schedule", str(sched)]) == 0
    capsys.readouterr()
    assert len(instances) == 4 and len(traces) == 1
    assert not any("arcs" in vars(inst) for inst in instances)
    assert vars(traces[0])["_inst"] is instances[0]
    assert _events_unbuilt(traces[0])
    # verify reads the instance's successor table, not a profile.
    assert not any("profile" in vars(inst) for inst in instances[1::2])


def test_check_feasible_builds_no_profile():
    text = serialize_instance(gen_d2(60, 50, 2, 3))
    sched = solve_pd2(parse_instance(text))[0]
    broken = Schedule(start_a=sched.start_a, start_b=sched.start_b[::-1])
    for candidate, ok in ((sched, True), (broken, False)):
        inst = parse_instance(text)
        assert check_feasible(inst, candidate).ok is ok
        assert "profile" not in vars(inst) and "arcs" not in vars(inst)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_random(8, 10, 0.3, 1),
        lambda: gen_d2(8, 6, 1, 1),
        lambda: gen_tight(TightParams(3, 2, 3)),
    ],
    ids=["random", "d2", "tight"],
)
def test_exact_and_erd_build_no_profile(make):
    # Both read the instance's successor table, as check_feasible does.
    inst = parse_instance(serialize_instance(make()))
    result = solve_exact(inst)
    pi = tuple(range(inst.n, 0, -1))
    sched = complete_m2_erd(inst, pi)
    assert check_feasible(inst, result.schedule).ok and check_feasible(inst, sched).ok
    arcs = make().arcs
    assert release_times(inst, pi) == tuple(
        max((pi.index(i) + 1 for i, k in arcs if k == j), default=0) for j in range(1, inst.m + 1)
    )
    assert "profile" not in vars(inst) and "arcs" not in vars(inst)


def _arc_sets(n, m):
    return st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=40)


# (n, m, arcs) with 1 <= n, m <= 12.
CASES = st.integers(1, 12).flatmap(
    lambda n: st.integers(1, 12).flatmap(lambda m: st.tuples(st.just(n), st.just(m), _arc_sets(n, m)))
)

GENERATED = st.one_of(
    st.builds(
        gen_random, st.integers(1, 15), st.integers(1, 15),
        st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 2**32),
    ),
    st.integers(2, 15).flatmap(
        lambda b: st.builds(gen_d2, st.integers(1, 15), st.just(b), st.integers(0, b - 2), st.integers(0, 2**32))
    ),
    st.integers(1, 4).flatmap(
        lambda l: st.builds(lambda k, s: gen_tight(TightParams(k, l, s)), st.integers(l, 6), st.integers(3, 6))
    ),
)


def _assert_canonical(inst):
    """n + 1 rows, row 0 empty, each row a tuple of ints strictly ascending
    in 1..m: the one table of each arc set, so == on it is == on arcs."""
    succ = inst._succ
    assert type(succ) is tuple and len(succ) == inst.n + 1 and succ[0] == ()
    for row in succ:
        assert type(row) is tuple and set(map(type, row)) <= {int}
        assert all(1 <= j <= inst.m for j in row)
        assert all(a < b for a, b in zip(row, row[1:]))


@given(
    st.one_of(GENERATED, CASES.map(lambda case: Instance(*case))),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["sorted", "shuffled", "rows_reversed"]),
    st.randoms(use_true_random=False),
)
def test_every_source_gives_a_canonical_table(inst, newline, order, rnd):
    # An arc block in (i, j) order with "\n" line ends takes the one-pass
    # read, as does a header alone, whatever its line end; the line parser
    # reads the rest, shuffled arcs and rows written in descending order
    # among them.
    _assert_canonical(inst)
    header, *arcs = serialize_instance(inst).splitlines()
    in_order = list(arcs)
    if order == "shuffled":
        rnd.shuffle(arcs)
    elif order == "rows_reversed":
        arcs.sort(key=lambda line: (int(line.split()[1]), -int(line.split()[2])))
    text = newline.join([header, *arcs]) + newline
    assert (one_pass(text) is not None) == (arcs == in_order and (newline == "\n" or not arcs))
    parsed = parse_instance(text)
    _assert_canonical(parsed)
    assert parsed._succ == inst._succ
    assert parsed.arcs == inst.arcs == {(i, j) for i, row in enumerate(inst._succ) for j in row}


@given(
    CASES.flatmap(
        lambda case: st.tuples(
            st.just(case),
            st.one_of(
                st.just(case[2]),
                _arc_sets(case[0], case[1]),
                # One arc added or taken away.
                st.tuples(st.integers(1, case[0]), st.integers(1, case[1])).map(
                    lambda arc: case[2] ^ {arc}
                ),
            ),
        )
    )
)
def test_instances_are_equal_exactly_when_their_arc_sets_are(pair):
    (n, m, a), b = pair
    x, y = Instance(n, m, a), Instance(n, m, sorted(b, reverse=True))
    assert (x == y) == (a == b) and (x != y) == (a != b)
    if a == b:
        assert hash(x) == hash(y) and repr(x) == repr(y)
    assert x != Instance(n + 1, m, a) and x != Instance(n, m + 1, a)
    assert x != (n, m, x._succ)


@given(CASES)
def test_lazy_arcs_match_an_eager_instance(case):
    # The constructor checks the arcs it is given and keeps only the table,
    # so a parsed instance and a constructed one agree, field for field,
    # and both build the same arc set on first read.
    n, m, arcs = case
    eager = Instance(n, m, arcs)
    lazy = parse_instance(serialize_instance(eager))
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert repr(lazy) == f"Instance(n={n}, m={m}, _succ={lazy._succ!r})"
    assert dataclasses.asdict(lazy) == dataclasses.asdict(eager) == {"n": n, "m": m, "_succ": eager._succ}
    assert pickle.dumps(lazy) == pickle.dumps(eager)
    for trip in (_pickle_trip, copy.copy, copy.deepcopy):
        assert trip(lazy) == eager
    assert "arcs" not in vars(lazy) and "arcs" not in vars(eager)
    assert lazy.arcs == eager.arcs == arcs
    assert lazy.profile == eager.profile


@LAYOUTS
def test_eq_and_hash_build_neither_view(layout):
    text = layout(serialize_instance(gen_random(40, 50, 0.3, 1)))
    parsed, twin = parse_instance(text), parse_instance(text)
    generated, other = gen_random(40, 50, 0.3, 1), gen_random(40, 50, 0.3, 2)
    assert parsed == twin == generated and parsed != other
    assert hash(parsed) == hash(twin) == hash(generated) != hash(other)
    assert len({parsed, twin, generated, other}) == 2
    assert repr(parsed) == repr(generated) != repr(other)
    for inst in (parsed, twin, generated, other):
        assert "arcs" not in vars(inst) and "profile" not in vars(inst)
