import errno
import hashlib
import json
import os
import stat

import pytest
from hypothesis import given, strategies as st

import crossdock.cli as cli
from crossdock.cli import _SOLVERS, build_parser, main
from crossdock import (
    Instance,
    check_feasible,
    gen_d2,
    lower_bound,
    makespan,
    parse_instance,
    serialize_instance,
)
from conftest import EX1_TEXT


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.cd"
    path.write_text(EX1_TEXT)
    return path


@pytest.fixture
def tf_file(tmp_path):
    path = tmp_path / "tf323.cd"
    assert main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(path)]) == 0
    return path


def test_gen_tight_writes_file(tmp_path, capsys):
    out = tmp_path / "tf.cd"
    code = main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(out)])
    assert code == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 8 and inst.m == 9
    stdout = capsys.readouterr().out
    assert "n=8 m=9 arcs=15" in stdout


def test_gen_records_command_comment(tmp_path):
    out = tmp_path / "tf.cd"
    main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(out)])
    assert out.read_text().startswith("c crossdock gen tight")


def test_gen_d2_reports_classification(capsys):
    code = main(["gen", "d2", "--a", "6", "--b", "7", "--pendants", "2", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "is_d2=true" in captured.err
    parse_instance(captured.out)  # stdout carries a valid instance


def test_gen_tight_rejects_k_below_l(capsys):
    assert main(["gen", "tight", "--k", "2", "--l", "3", "--s", "3"]) == 2
    assert "k >= l" in capsys.readouterr().err


def test_gen_d2_rejects_non_positive_counts(capsys):
    assert main(["gen", "d2", "--a", "0", "--b", "5", "--seed", "1"]) == 2
    assert "counts must be positive" in capsys.readouterr().err


def test_solve_pd2_ex1(ex1_file, capsys):
    assert main(["solve", "--alg", "pd2", "--in", str(ex1_file)]) == 0
    assert "makespan 8" in capsys.readouterr().out


def test_solve_exact_tight(tf_file, capsys):
    assert main(["solve", "--alg", "exact", "--in", str(tf_file)]) == 0
    assert "makespan 10" in capsys.readouterr().out


def test_solve_greedy_prints_bounds(ex1_file, capsys):
    assert main(["solve", "--alg", "greedy", "--in", str(ex1_file)]) == 0
    out = capsys.readouterr().out
    assert "makespan 8" in out
    assert "q 3" in out
    assert "lower_bound 8" in out
    assert "greedy_upper 10" in out
    assert "ratio_bound 5/4" in out


def test_solve_pd2_rejects_non_d2(tf_file, capsys):
    assert main(["solve", "--alg", "pd2", "--in", str(tf_file)]) == 2
    assert "A4" in capsys.readouterr().err  # first middle-group operation


def test_solve_writes_schedule_and_gantt(ex1_file, tmp_path, capsys):
    sched_path = tmp_path / "ex1.sched.json"
    code = main(
        ["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", str(sched_path), "--gantt"]
    )
    assert code == 0
    data = json.loads(sched_path.read_text())
    assert data["makespan"] == 8
    out = capsys.readouterr().out
    assert "M1 |" in out and "M2 |" in out


@pytest.mark.parametrize("alg", ["greedy", "pd2"])
def test_solve_with_an_unwritable_out_prints_nothing(alg, ex1_file, tmp_path, capsys):
    # The schedule file is written before the makespan and bounds are
    # printed, so a failed write leaves stdout empty.
    out = tmp_path / "missing" / "dir" / "x.json"
    code = main(["solve", "--alg", alg, "--in", str(ex1_file), "--out", str(out), "--gantt"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2]")
    assert not out.parent.exists()


# --out over an existing file: the CLI writes in place and then cuts the file
# to the new length, so what is left must be exactly a fresh write's bytes.

JUNK_MB = bytes(range(256)) * 4096  # 1 MiB, longer than any file below


def _solve_out(alg: str, in_file, out) -> int:
    return main(["solve", "--alg", alg, "--in", str(in_file), "--out", str(out)])


def _fresh_schedule(alg: str, in_file, tmp_path) -> bytes:
    fresh = tmp_path / f"fresh-{alg}.json"
    assert not fresh.exists()
    assert _solve_out(alg, in_file, fresh) == 0
    return fresh.read_bytes()


OLD_FILES = {
    "longer": lambda size: JUNK_MB,
    "shorter": lambda size: b"{" * (size // 2),
    "same-length": lambda size: b"x" * size,
}


@pytest.mark.parametrize("old", list(OLD_FILES))
@pytest.mark.parametrize("alg", list(_SOLVERS))
def test_solve_out_over_an_existing_file_gives_a_fresh_writes_bytes(alg, old, ex1_file, tmp_path, capsys):
    fresh = _fresh_schedule(alg, ex1_file, tmp_path)
    out = tmp_path / "old.json"
    out.write_bytes(OLD_FILES[old](len(fresh)))
    assert _solve_out(alg, ex1_file, out) == 0
    assert out.read_bytes() == fresh
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(out)]) == 0
    assert capsys.readouterr().out.endswith("feasible, makespan 8\n")


def test_gen_out_over_a_longer_file_gives_a_fresh_writes_bytes(tmp_path, capsys):
    argv = ["gen", "d2", "--a", "30", "--b", "20", "--pendants", "2", "--seed", "5", "--out"]
    fresh, out = tmp_path / "fresh.cd", tmp_path / "old.cd"
    out.write_bytes(JUNK_MB)
    assert main([*argv, str(fresh)]) == 0
    assert main([*argv, str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert parse_instance(out.read_text()) == gen_d2(30, 20, 2, 5)


def test_solve_out_writes_through_a_symlink(ex1_file, tmp_path, capsys):
    fresh = _fresh_schedule("pd2", ex1_file, tmp_path)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(JUNK_MB)
    link.symlink_to(target)
    assert _solve_out("pd2", ex1_file, link) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh


def test_solve_out_keeps_the_files_mode_inode_and_hard_links(ex1_file, tmp_path, capsys):
    fresh = _fresh_schedule("pd2", ex1_file, tmp_path)
    out, other = tmp_path / "old.json", tmp_path / "other-name.json"
    out.write_bytes(JUNK_MB)
    out.chmod(0o600)
    os.link(out, other)
    inode = out.stat().st_ino
    assert _solve_out("pd2", ex1_file, out) == 0
    st = out.stat()
    assert stat.S_IMODE(st.st_mode) == 0o600
    assert st.st_ino == inode and st.st_nlink == 2
    assert other.read_bytes() == out.read_bytes() == fresh


def test_solve_out_creates_a_missing_file_as_open_would(ex1_file, tmp_path, capsys):
    fresh = _fresh_schedule("pd2", ex1_file, tmp_path)
    out, like = tmp_path / "new.json", tmp_path / "like.json"
    with open(like, "w"):
        pass
    assert _solve_out("pd2", ex1_file, out) == 0
    assert out.read_bytes() == fresh
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(like.stat().st_mode)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("command", ["solve", "gen"])
def test_out_to_the_null_device(command, ex1_file, capsys):
    if command == "solve":
        assert _solve_out("pd2", ex1_file, os.devnull) == 0
        assert capsys.readouterr().out == "makespan 8\n"
    else:
        assert main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", os.devnull]) == 0
        assert capsys.readouterr().out.startswith(f"{os.devnull}\nn=8 m=9")


@pytest.mark.parametrize("command", ["solve", "gen"])
def test_out_to_a_directory_exits_2_with_nothing_on_stdout(command, ex1_file, tmp_path, capsys):
    if command == "solve":
        code = _solve_out("greedy", ex1_file, tmp_path)
    else:
        code = main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 21]")


def test_a_failed_write_leaves_the_file_empty(ex1_file, tmp_path, monkeypatch, capsys):
    # The first write goes through in part, the second fails: what is left
    # must not be new bytes followed by the old file's tail.
    out = tmp_path / "old.json"
    out.write_bytes(JUNK_MB)
    real_write, calls = os.write, []

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:10])

    monkeypatch.setattr(cli.os, "write", failing_write)
    assert _solve_out("greedy", ex1_file, out) == 2
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 28]")
    assert len(calls) == 2
    assert out.read_bytes() == b""


def test_short_writes_are_continued(ex1_file, tmp_path, monkeypatch, capsys):
    fresh = _fresh_schedule("greedy", ex1_file, tmp_path)
    out = tmp_path / "old.json"
    out.write_bytes(JUNK_MB)
    real_write = os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:7]))
    assert _solve_out("greedy", ex1_file, out) == 0
    monkeypatch.undo()
    assert out.read_bytes() == fresh


def test_out_is_opened_without_o_trunc(ex1_file, tmp_path, monkeypatch, capsys):
    # O_TRUNC on an existing file is a truncate-to-zero, which ext4 (by
    # default), XFS and btrfs answer by flushing the file when it is closed;
    # the CLI cuts the file to its new length after writing instead.
    real_open, flags = os.open, []

    def open_spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", open_spy)
    out = tmp_path / "old.json"
    out.write_bytes(JUNK_MB)
    assert _solve_out("pd2", ex1_file, out) == 0
    assert main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(out)]) == 0
    monkeypatch.undo()
    assert len(flags) == 2
    for flag in flags:
        assert flag & os.O_CREAT and flag & os.O_ACCMODE == os.O_WRONLY
        assert not flag & os.O_TRUNC


def test_bound_tight(tf_file, capsys):
    assert main(["bound", "--in", str(tf_file)]) == 0
    out = capsys.readouterr().out
    assert "q 3" in out
    assert "lower_bound 10" in out
    assert "greedy_upper 12" in out
    assert "ratio_bound 6/5" in out


def test_bound_ex1_includes_lemma1(ex1_file, capsys):
    assert main(["bound", "--in", str(ex1_file)]) == 0
    out = capsys.readouterr().out
    assert "lower_bound 8" in out
    assert "lemma1_bound 8" in out


def test_bound_flags_printed_form(tmp_path, capsys):
    cex = tmp_path / "cex.cd"
    cex.write_text("p cdock 1 3\na 1 1\n")
    assert main(["bound", "--in", str(cex)]) == 0
    out = capsys.readouterr().out
    assert "lower_bound 3" in out
    assert "lower_bound_printed 4 [exceeds corrected bound]" in out


# Recorded from ``bound`` as it printed Lemma 1's closed form; any change to
# a line it prints on a two-successor file changes it.
BOUND_D2_GOLDEN_DIGEST = "fd58142a660cc4e76664b6a417dd6ddada75587f3790c465c9d48991a4bc9957"


def test_bound_output_on_d2_files_golden_digest(tmp_path, capsys):
    for a in range(1, 40, 2):
        for b in range(2, 40, 3):
            for p in sorted({0, 1, b - 2}):
                if b - p < 2:
                    continue
                path = tmp_path / f"d2-{a}-{b}-{p}.cd"
                path.write_text(serialize_instance(gen_d2(a, b, p, a * b)))
                assert main(["bound", "--in", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BOUND_D2_GOLDEN_DIGEST


def test_verify_round_trip(ex1_file, tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    main(["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", str(sched_path)])
    capsys.readouterr()
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(sched_path)]) == 0
    assert "feasible, makespan 8" in capsys.readouterr().out


def test_verify_detects_violation(ex1_file, tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    main(["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", str(sched_path)])
    data = json.loads(sched_path.read_text())
    data["start_b"][3] = 0  # B4 before A4 finishes, and overlapping B1
    sched_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(sched_path)]) == 1
    assert "(4,4)" in capsys.readouterr().out


def test_verify_truncated_schedule(ex1_file, tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    sched_path.write_text('{"makespan": 8, "start_a": [0,1')
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(sched_path)]) == 2


def test_verify_reports_size_mismatch(tmp_path, capsys):
    inst_path, sched_path = tmp_path / "i.cd", tmp_path / "s.json"
    inst_path.write_text("p cdock 2 2\n")
    sched_path.write_text('{"start_a": [0], "start_b": [1, 2]}')
    assert main(["verify", "--in", str(inst_path), "--schedule", str(sched_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "size mismatch: expected 2 A-starts and 2 B-starts, got 1 and 2"
    ]


def test_verify_missing_schedule_file(ex1_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(missing)]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,fragment",
    [
        (lambda d: d.update(start_a=[x + 0.5 for x in d["start_a"]]), "is not an integer"),
        (lambda d: d.update(start_b=[str(x) for x in d["start_b"]]), "is not an integer"),
        (lambda d: d.update(makespan=99), "declared makespan 99 but the starts give 8"),
        (lambda d: d.update(makespam=d.pop("makespan")), "unknown key 'makespam'"),
    ],
    ids=["float", "string", "makespan", "unknown_key"],
)
def test_verify_rejects_coerced_schedule(ex1_file, tmp_path, capsys, edit, fragment):
    sched_path = tmp_path / "s.json"
    main(["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", str(sched_path)])
    data = json.loads(sched_path.read_text())
    edit(data)
    sched_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(sched_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sched_path}: malformed schedule file")
    assert fragment in err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"start_a": [%s], "start_b": [1]}' % ("5" * 5000), "digits"),
        ("[" * 100000, "recursion"),
        ('{"start_a": [0, 1, 2], "start_b": [1, 2, 3], "start_a": [2, 1, 0]}', "duplicate key 'start_a'"),
    ],
    ids=["digit_limit", "nesting", "duplicate_key"],
)
def test_verify_prefixes_every_decoder_error(ex1_file, tmp_path, capsys, text, fragment):
    sched_path = tmp_path / "s.json"
    sched_path.write_text(text)
    assert main(["verify", "--in", str(ex1_file), "--schedule", str(sched_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sched_path}: malformed schedule file: ")
    assert fragment in err


def test_gen_random_rejects_nan_p(capsys):
    assert main(["gen", "random", "--n", "3", "--m", "3", "--p", "nan", "--seed", "1"]) == 2
    assert "p must be a real number in [0, 1], got nan" in capsys.readouterr().err


RANDOM_ARGS = ["random", "--n", "3", "--m", "4", "--p", "0.25", "--seed", "0"]


def _with(argv, option, value):
    return [*argv[: argv.index(option) + 1], value, *argv[argv.index(option) + 2 :]]


@pytest.mark.parametrize(
    "argv,option",
    [
        pytest.param(_with(RANDOM_ARGS, "--n", "٣"), "--n", id="n-arabic-indic"),
        pytest.param(_with(RANDOM_ARGS, "--m", "3 "), "--m", id="m-space"),
        pytest.param(_with(RANDOM_ARGS, "--seed", "1_0"), "--seed", id="seed-underscore"),
        pytest.param(_with(RANDOM_ARGS, "--seed", "-1"), "--seed", id="seed-negative"),
        pytest.param(_with(RANDOM_ARGS, "--seed", "9" * 5000), "--seed", id="seed-past-int-limit"),
        pytest.param(_with(RANDOM_ARGS, "--p", "٠.5"), "--p", id="p-arabic-indic"),
        pytest.param(_with(RANDOM_ARGS, "--p", "0.2_5"), "--p", id="p-underscore"),
        pytest.param(["d2", "--a", "+3", "--b", "4", "--seed", "1"], "--a", id="a-plus"),
        pytest.param(
            ["d2", "--a", "3", "--b", "4", "--pendants", "-1", "--seed", "1"], "--pendants",
            id="pendants-negative",
        ),
        pytest.param(["d2", "--a", "3", "--b", "4", "--seed", "-1"], "--seed", id="d2-seed-negative"),
        pytest.param(["tight", "--k", " 3", "--l", "1", "--s", "3"], "--k", id="k-space"),
        pytest.param(["tight", "--k", "3", "--l", "+1", "--s", "3"], "--l", id="l-plus"),
        pytest.param(["tight", "--k", "3", "--l", "1", "--s", "3.0"], "--s", id="s-float"),
    ],
)
def test_gen_takes_numbers_only_as_typed(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}: must be" in captured.err
    assert captured.out == ""


def test_gen_records_the_numbers_typed(capsys):
    assert main(["gen", *RANDOM_ARGS]) == 0
    assert capsys.readouterr().out.startswith("c crossdock gen random --n 3 --m 4 --p 0.25 --seed 0\n")


def test_bench_rows(tmp_path, capsys):
    (tmp_path / "ex1.cd").write_text(EX1_TEXT)
    main(["gen", "tight", "--k", "3", "--l", "2", "--s", "3", "--out", str(tmp_path / "tf.cd")])
    capsys.readouterr()
    code = main(
        ["bench", "--dir", str(tmp_path), "--algs", "greedy,pd2,exact", "--format", "csv"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.strip().splitlines() if l]
    assert len(lines) == 1 + 5  # header + 3 rows for ex1 + 2 for tf (pd2 skipped)
    assert "not in the two-successor class" in captured.err


def test_bench_empty_dir(tmp_path, capsys):
    assert main(["bench", "--dir", str(tmp_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_bench_rejects_a_file_as_dir(ex1_file, capsys):
    assert main(["bench", "--dir", str(ex1_file)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_bench_skips_exact_above_limit(tmp_path, capsys):
    assert main(["gen", "tight", "--k", "10", "--l", "4", "--s", "6", "--out", str(tmp_path / "n20.cd")]) == 0
    assert main(["gen", "tight", "--k", "10", "--l", "5", "--s", "6", "--out", str(tmp_path / "n21.cd")]) == 0
    capsys.readouterr()
    assert main(["bench", "--dir", str(tmp_path), "--algs", "exact"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "skipping exact on n21.cd: instance too large: n=21 > limit 20\n"
    # the markdown header, its rule line and one row, n = 20 at its optimum 2k+s+1
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in captured.out.splitlines()]
    assert [row[0] for row in rows] == ["instance", "---", "n20.cd"]
    assert rows[2][1:6] == ["20", "26", "50", "exact", "27"]


def test_bench_csv_md_same_values(tmp_path, capsys):
    (tmp_path / "ex1.cd").write_text(EX1_TEXT)
    main(["bench", "--dir", str(tmp_path), "--format", "csv"])
    csv_out = capsys.readouterr().out
    main(["bench", "--dir", str(tmp_path), "--format", "md"])
    md_out = capsys.readouterr().out
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    md_rows = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in md_out.strip().splitlines()[2:]
    ]
    # timing columns differ between runs; compare everything else
    assert [r[:-1] for r in csv_rows] == [r[:-1] for r in md_rows]


def test_bench_skips_unreadable(tmp_path, capsys):
    (tmp_path / "ex1.cd").write_text(EX1_TEXT)
    (tmp_path / "junk.cd").write_text("not an instance\n")
    (tmp_path / "latin1.cd").write_bytes(b"c caf\xe9\n" + EX1_TEXT.encode())
    assert main(["bench", "--dir", str(tmp_path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "skipping junk.cd" in captured.err
    assert "skipping latin1.cd: 'utf-8' codec can't decode byte 0xe9" in captured.err
    assert "ex1.cd" in captured.out


def test_bench_ratio_never_exceeds_ratio_bound(tmp_path, capsys):
    from fractions import Fraction

    for seed in range(4):
        main(
            ["gen", "random", "--n", "5", "--m", "5", "--p", "0.4",
             "--seed", str(seed), "--out", str(tmp_path / f"r{seed}.cd")]
        )
    capsys.readouterr()
    main(["bench", "--dir", str(tmp_path), "--algs", "greedy,exact", "--format", "csv"])
    out = capsys.readouterr().out
    for line in out.strip().splitlines()[1:]:
        cols = line.split(",")
        ratio, ratio_bound = cols[8], cols[9]
        if ratio:
            assert Fraction(*map(int, ratio.split("/"))) <= Fraction(*map(int, ratio_bound.split("/")))


def test_gen_solve_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "i.cd"
    sched_path = tmp_path / "i.json"
    for alg, gen_args in [
        ("greedy", ["gen", "random", "--n", "6", "--m", "6", "--p", "0.5", "--seed", "11"]),
        ("pd2", ["gen", "d2", "--a", "5", "--b", "6", "--pendants", "1", "--seed", "11"]),
        ("exact", ["gen", "tight", "--k", "3", "--l", "2", "--s", "3"]),
    ]:
        assert main(gen_args + ["--out", str(inst_path)]) == 0
        assert main(["solve", "--alg", alg, "--in", str(inst_path), "--out", str(sched_path)]) == 0
        assert main(["verify", "--in", str(inst_path), "--schedule", str(sched_path)]) == 0


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_exact_limit_is_not_an_option(command, tf_file, capsys):
    where = ["--in", str(tf_file), "--alg", "exact"] if command == "solve" else ["--dir", str(tf_file.parent)]
    with pytest.raises(SystemExit) as exc:
        main([command, *where, "--exact-limit", "20"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --exact-limit 20" in captured.err
    assert captured.out == ""


def test_solve_exact_n14_round_trip(tmp_path, capsys):
    inst_path, sched_path = tmp_path / "tf635.cd", tmp_path / "tf635.json"
    assert main(["gen", "tight", "--k", "6", "--l", "3", "--s", "5", "--out", str(inst_path)]) == 0
    assert "n=14" in capsys.readouterr().out
    assert main(["solve", "--alg", "exact", "--in", str(inst_path), "--out", str(sched_path)]) == 0
    assert "makespan 18" in capsys.readouterr().out  # 2k + s + 1
    assert main(["verify", "--in", str(inst_path), "--schedule", str(sched_path)]) == 0
    assert "feasible, makespan 18" in capsys.readouterr().out


@pytest.mark.parametrize("k,l,s,n,opt", [(8, 4, 5, 17, 22), (10, 4, 6, 20, 27)])
def test_solve_exact_n17_to_20_by_default(k, l, s, n, opt, tmp_path, capsys):
    inst_path, sched_path = tmp_path / "tf.cd", tmp_path / "tf.json"
    assert main(["gen", "tight", "--k", str(k), "--l", str(l), "--s", str(s), "--out", str(inst_path)]) == 0
    assert f"n={n} " in capsys.readouterr().out
    assert main(["solve", "--alg", "exact", "--in", str(inst_path), "--out", str(sched_path)]) == 0
    assert capsys.readouterr().out == f"makespan {opt}\n"  # 2k + s + 1
    assert main(["verify", "--in", str(inst_path), "--schedule", str(sched_path)]) == 0
    assert capsys.readouterr().out == f"feasible, makespan {opt}\n"


def test_solve_exact_above_limit(tmp_path, capsys):
    path = tmp_path / "tf1056.cd"
    main(["gen", "tight", "--k", "10", "--l", "5", "--s", "6", "--out", str(path)])
    capsys.readouterr()
    assert main(["solve", "--alg", "exact", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: instance too large: n=21 > limit 20\n"
    assert captured.out == ""


def test_solve_rejects_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.cd"
    path.write_text("\ufeff" + EX1_TEXT, encoding="utf-8")
    assert main(["solve", "--alg", "greedy", "--in", str(path)]) == 2
    assert "non-ASCII character U+FEFF, line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("p cdock 2 2\na 1_0 1\n", "unexpected character '_', line 2"),
        ("p cdock 2 2\x1ca 1 1\n", "control character U+001C, line 1"),
        ("p cdock 1 1\ra 1 1\n", "control character U+000D, line 1"),
    ],
)
def test_solve_rejects_irregular_characters(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cd"
    path.write_text(text)
    assert main(["solve", "--alg", "greedy", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_solve_and_verify_read_crlf_files(tmp_path, capsys):
    inst_path = tmp_path / "ex1.cd"
    inst_path.write_bytes(EX1_TEXT.replace("\n", "\r\n").encode())
    sched_path = tmp_path / "ex1.json"
    assert main(["solve", "--alg", "pd2", "--in", str(inst_path), "--out", str(sched_path)]) == 0
    assert "makespan 8" in capsys.readouterr().out
    sched_path.write_bytes(sched_path.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["verify", "--in", str(inst_path), "--schedule", str(sched_path)]) == 0
    assert capsys.readouterr().out == "feasible, makespan 8\n"


@pytest.mark.parametrize("command", ["solve", "bound", "verify"])
def test_invalid_utf8_exits_2_with_path(command, ex1_file, tmp_path, capsys):
    path = tmp_path / "latin1.cd"
    path.write_bytes(b"c caf\xe9\n" + EX1_TEXT.encode())
    argv = {
        "solve": ["solve", "--alg", "greedy", "--in", str(path)],
        "bound": ["bound", "--in", str(path)],
        "verify": ["verify", "--in", str(ex1_file), "--schedule", str(path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'utf-8' codec can't decode byte 0xe9" in err


def test_bench_rejects_unknown_algorithm(ex1_file, capsys):
    assert main(["bench", "--dir", str(ex1_file.parent), "--algs", "greedy,foo"]) == 2
    captured = capsys.readouterr()
    assert "unknown algorithm 'foo'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("algs", ["", ",", "greedy,,pd2", "greedy,", " ,pd2"])
def test_bench_rejects_an_empty_algorithm_item(ex1_file, capsys, algs):
    assert main(["bench", "--dir", str(ex1_file.parent), "--algs", algs]) == 2
    captured = capsys.readouterr()
    assert f"--algs {algs!r} has an empty item" in captured.err
    assert captured.out == ""


@st.composite
def solver_instances(draw):
    if draw(st.booleans()):
        b = draw(st.integers(2, 12))
        return gen_d2(draw(st.integers(1, 12)), b, draw(st.integers(0, b - 2)), draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m))))
    return Instance(n=n, m=m, arcs=arcs)


@pytest.mark.parametrize("alg", list(_SOLVERS))
@given(inst=solver_instances())
def test_every_cli_solver_is_feasible_and_above_lower_bound(alg, inst):
    try:
        sched = _SOLVERS[alg](inst)
    except ValueError:
        return  # instance outside the solver's class, such as pd2 on a non-d2 instance
    assert check_feasible(inst, sched).ok
    assert lower_bound(inst) <= makespan(sched)


def _call(argv, capsys):
    """Exit code, stdout and stderr of one in-process call; argparse's
    SystemExit counts as the exit code it carries."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    """Start and end with no parser cached, so each test sees the first build."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(ex1_file, tmp_path, monkeypatch, capsys, fresh_parser):
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    sched = str(tmp_path / "s.json")
    assert main(["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", sched]) == 0
    assert main(["verify", "--in", str(ex1_file), "--schedule", sched]) == 0
    assert main(["bound", "--in", str(ex1_file)]) == 0
    assert main(["solve", "--alg", "greedy", "--in", str(ex1_file)]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # The public builder still gives a new parser on every call.
    assert build_parser() is not build_parser()


def test_a_usage_error_leaves_the_cached_parser_as_it_was(ex1_file, tmp_path, capsys, fresh_parser):
    sched = tmp_path / "s.json"
    solve = ["solve", "--alg", "pd2", "--in", str(ex1_file), "--out", str(sched)]
    verify = ["verify", "--in", str(ex1_file), "--schedule", str(sched)]
    fresh = []
    for argv in (solve, verify):
        cli._parser.cache_clear()
        fresh.append(_call(argv, capsys))
    fresh_bytes = sched.read_bytes()
    sched.unlink()
    cli._parser.cache_clear()
    code, out, err = _call(["solve", "--alg", "bogus", "--in", str(ex1_file)], capsys)
    assert code == 2 and out == "" and "invalid choice" in err
    assert [_call(solve, capsys), _call(verify, capsys)] == fresh
    assert fresh[0][0] == fresh[1][0] == 0
    assert sched.read_bytes() == fresh_bytes


def test_gen_bound_and_bench_read_the_same_after_a_solve(ex1_file, tmp_path, capsys, fresh_parser):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "ex1.cd").write_text(EX1_TEXT)
    calls = [
        ["gen", "d2", "--a", "5", "--b", "6", "--pendants", "1", "--seed", "3"],
        ["bound", "--in", str(ex1_file)],
        ["bench", "--dir", str(bench_dir), "--format", "csv"],
    ]

    def masked(result):
        # bench's last column is a wall time.
        code, out, err = result
        return code, [line.rsplit(",", 1)[0] for line in out.splitlines()], err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(masked(_call(argv, capsys)))
    cli._parser.cache_clear()
    assert _call(["solve", "--alg", "greedy", "--in", str(ex1_file)], capsys)[0] == 0
    assert [masked(_call(argv, capsys)) for argv in calls] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0]
