"""Command-line round trips and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcode import stage_to_data, staged_run
from orbitcode.cli import main, parse_bits
from orbitcode.injections import cycles_to_data, injection_from_pairs


def run_cli(*argv):
    return main(list(argv))


def test_successive_calls_build_one_parser_and_share_no_state(tmp_path, capsys, monkeypatch):
    """A run with trees, a usage error, a run without trees, then verify of the first trace.

    The parser is built once per process, so no call constructs one, and no
    call's flags carry over: the second run takes no tree from the first.
    """
    trees, plain = tmp_path / "trees.json", tmp_path / "plain.json"
    run = ["run", "--flavor", "plain", "--schedule", "auto:2"]
    assert run_cli(*run, "--full-trees", "2", "--seed", "5", "--out", str(trees)) == 0
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs))
    assert run_cli(*run, "--bogus") == 2
    assert run_cli(*run, "--out", str(plain)) == 0
    assert run_cli("verify", str(trees)) == 0
    assert made == []
    schedule = json.loads(plain.read_text(encoding="utf-8"))["schedule"]
    assert [entry["kind"] for entry in schedule] == ["domain_hits", "range_hits"] * 2
    assert capsys.readouterr().out.endswith("ok: 6 steps verified\n")


def test_bit_parsing_binary_and_hex():
    assert parse_bits("1011") == (1, 0, 1, 1)
    assert parse_bits("0") == (0,)
    assert parse_bits("0xb") == (1, 0, 1, 1)
    assert parse_bits("0x16") == (0, 0, 0, 1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        parse_bits("102")
    with pytest.raises(ValueError):
        parse_bits("")
    with pytest.raises(ValueError):
        parse_bits("0x")
    # not hex digits alone, though int(..., 16) reads "1_0", " 1" and "+f"
    for text in ("0x1_0", "0x 1", "0x+f", "0x-1"):
        with pytest.raises(ValueError, match="bits must be binary or 0x-hex"):
            parse_bits(text)


def test_coding_run_verify_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli(
        "run",
        "--flavor",
        "coding",
        "--bits",
        "1011",
        "--oracle",
        "trivial",
        "--schedule",
        "auto:4",
        "--out",
        str(out),
    )
    printed = capsys.readouterr().out
    assert code == 0
    assert "decoded: 1011" in printed
    assert "step 0:" in printed
    assert out.exists()

    assert run_cli("verify", str(out)) == 0
    assert "steps verified" in capsys.readouterr().out

    assert run_cli("decode", str(out), "--mode", "orbit_order", "--upto", "3") == 0
    assert capsys.readouterr().out.strip() == "1011"


def test_plain_flavor_rejects_bits(capsys):
    assert run_cli("run", "--flavor", "plain", "--bits", "1") == 2
    assert "plain" in capsys.readouterr().err


def test_coding_flavor_needs_bits(capsys):
    assert run_cli("run", "--flavor", "coding", "--schedule", "auto:2") == 2
    assert "--bits" in capsys.readouterr().err


def test_empty_schedule_is_a_usage_error(tmp_path, capsys):
    code = run_cli("run", "--flavor", "plain", "--out", str(tmp_path / "t.json"))
    assert code == 2
    assert "schedule" in capsys.readouterr().err


def test_dagger_run_with_word_list(tmp_path, capsys):
    out = tmp_path / "dagger.json"
    code = run_cli(
        "run",
        "--flavor",
        "dagger",
        "--bits",
        "11",
        "--words",
        "x,x^2,x^3",
        "--out",
        str(out),
    )
    assert code == 0
    assert "decoded: 11" in capsys.readouterr().out
    assert run_cli("decode", str(out), "--mode", "prime_parity", "--upto", "1") == 0
    assert capsys.readouterr().out.strip() == "11"


def test_inadmissible_word_fails_the_run(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run_cli("run", "--flavor", "plain", "--words", "x^-1", "--out", str(out))
    assert code == 1
    assert "x^-1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["x^0", "x.x^-1", " x^-1.x "])
def test_a_word_that_reduces_to_the_identity_is_a_usage_error(tmp_path, capsys, token):
    """Refused while the schedule is built, by the token as written, before any step runs."""
    out = tmp_path / "t.json"
    assert run_cli("run", "--flavor", "plain", "--words", f"x,{token}", "--out", str(out)) == 2
    message = f"cannot build schedule: --words token {token.strip()!r} reduces to the identity"
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("text", ["x^0", ""])
def test_a_schedule_file_word_that_reduces_to_the_identity_is_a_usage_error(
    tmp_path, capsys, text
):
    """Refused while the schedule file is read, by the text as written, before any step runs."""
    schedule, out = tmp_path / "f.json", tmp_path / "t.json"
    schedule.write_text(json.dumps([{"kind": "word_added", "word": text}]))
    assert run_cli("run", "--flavor", "plain", "--schedule", str(schedule), "--out", str(out)) == 2
    message = f"cannot build schedule: word_added word {text!r} reduces to the identity"
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--schedule", "auto:-1"], "cannot build schedule: --schedule auto:-1 is a negative count"),
        (["--words", "x", "--full-trees", "-1"], "argument --full-trees: -1 is a negative count"),
        (["--words", "x", "--sparse-trees", "-2"], "argument --sparse-trees: -2 is a negative count"),
        (["--words", "x", "--full-trees", "two"], "argument --full-trees: 'two' is not a count"),
    ],
    ids=["schedule", "full-trees", "sparse-trees", "not-a-number"],
)
def test_a_negative_count_is_a_usage_error_naming_its_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "t.json"
    assert run_cli("run", "--flavor", "plain", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "empty schedule" not in err
    assert not out.exists()


def test_zero_trees_are_no_trees(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run_cli("run", "--flavor", "plain", "--words", "x", "--full-trees", "0",
                   "--sparse-trees", "0", "--out", str(out))
    assert code == 0
    assert [entry["kind"] for entry in json.loads(out.read_text())["schedule"]] == ["word_added"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--flavor", "dagger", "--bits", "101", "--words", "x^-1"],
            "error: step 0: not an admissible word: 'x^-1'",
        ),
        (
            ["--flavor", "coding", "--bits", "1", "--schedule", "auto:3"],
            "error: step 5: target has only 1 bits",
        ),
    ],
    ids=["inadmissible-dagger-word", "coding-target-too-short"],
)
def test_a_failed_run_names_its_step(tmp_path, capsys, argv, message):
    out = tmp_path / "t.json"
    assert run_cli("run", *argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plain_run_over_translations_with_trees(tmp_path, capsys):
    out = tmp_path / "plain.json"
    code = run_cli(
        "run",
        "--flavor",
        "plain",
        "--oracle",
        "translation",
        "--schedule",
        "auto:3",
        "--sparse-trees",
        "2",
        "--seed",
        "5",
        "--out",
        str(out),
    )
    assert code == 0
    assert run_cli("verify", str(out)) == 0
    capsys.readouterr()


def test_verify_missing_file_is_a_usage_error(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "nope.json")) == 2
    capsys.readouterr()


def test_verify_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("verify", str(bad)) == 2
    capsys.readouterr()


# each reader's argv, given the file it reads and where a run writes its trace
READERS = {
    "verify": lambda path, out: ["verify", path],
    "decode": lambda path, out: ["decode", path, "--mode", "orbit_order"],
    "run-schedule": lambda path, out: [
        "run", "--flavor", "coding", "--bits", "1", "--schedule", path, "--out", out],
    "run-staged-oracle": lambda path, out: [
        "run", "--flavor", "dagger", "--bits", "1", "--schedule", "auto:1",
        "--oracle", f"staged:{path}", "--out", out],
}
HOSTILE = {"not-utf8": b"\xff\xfe", "too-deep": b"[" * 200_000 + b"]" * 200_000}


@pytest.mark.parametrize("content", HOSTILE.values(), ids=HOSTILE.keys())
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_a_json_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, reader, content):
    """Every reader of a JSON file exits 2, with no traceback, on one that is not UTF-8 or nests
    arrays 200,000 deep."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    _assert_usage_error(capsys, *reader(str(bad), str(tmp_path / "t.json")))


@pytest.mark.parametrize("schedule, steps", [(3, 5), ([], 5), (3, [])])
def test_verify_reports_a_schedule_or_steps_that_is_not_a_list(
    tmp_path, capsys, schedule, steps
):
    bad = tmp_path / "bad.json"
    trace = {"oracle": {"kind": "trivial"}, "flavor": "plain", "schedule": schedule}
    trace["steps"] = steps
    bad.write_text(json.dumps(trace), encoding="utf-8")
    assert run_cli("verify", str(bad)) == 1
    assert "error: verification failed: malformed trace: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("format_version", 1), ("format_version", 2), ("format_version", 3),
     ("format_version", 4), ("format_version", 5), ("format_version", 6),
     ("format_version", 7), ("format_version", 8), ("format_version", 9),
     ("format_version", 99),
     ("prime_indexing", "p1=2")],
)
def test_verify_rejects_a_trace_with_other_conventions(tmp_path, capsys, key, value):
    out = tmp_path / "trace.json"
    args = ["run", "--flavor", "coding", "--bits", "10", "--schedule", "auto:2"]
    assert run_cli(*args, "--out", str(out)) == 0
    capsys.readouterr()
    data = json.loads(out.read_text(encoding="utf-8"))
    data["conventions"][key] = value
    out.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("verify", str(out)) == 1
    assert "format version 10" in capsys.readouterr().err


def test_verify_flags_a_tampered_pair(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert (
        run_cli(
            "run",
            "--flavor",
            "coding",
            "--bits",
            "10",
            "--schedule",
            "auto:2",
            "--out",
            str(out),
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(out.read_text(encoding="utf-8"))
    data["final"]["injection"][0][1] += 1
    out.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("verify", str(out)) == 1
    assert "verification failed" in capsys.readouterr().err


def test_verify_flags_a_changed_delta_pair(tmp_path, capsys):
    """As the installed console script's smoke test does: one delta pair changed, exit 1."""
    out = tmp_path / "t.json"
    args = ["run", "--flavor", "coding", "--bits", "1011", "--schedule", "auto:4"]
    assert run_cli(*args, "--out", str(out)) == 0
    assert run_cli("verify", str(out)) == 0
    capsys.readouterr()
    data = json.loads(out.read_text(encoding="utf-8"))
    step = next(step for step in data["steps"] if step["pairs"])
    step["pairs"][0][1] += 1
    out.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("verify", str(out)) == 1
    err = capsys.readouterr().err
    assert "step 0: pair (0, 1) is not in the final condition, which maps 0 to 0" in err


def test_decode_needs_a_bound_for_prime_parity(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": [[0, 1]]}), encoding="utf-8")
    assert run_cli("decode", str(stage), "--mode", "prime_parity") == 2
    capsys.readouterr()
    assert run_cli("decode", str(stage), "--mode", "prime_parity", "--upto", "0") == 0
    assert capsys.readouterr().out.strip() == "1"


def test_decode_refuses_a_point_that_is_not_a_json_integer(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": [[0.0, 1]]}), encoding="utf-8")
    assert run_cli("decode", str(stage), "--mode", "prime_parity", "--upto", "0") == 2
    assert capsys.readouterr().err == "error: malformed injection: 0.0 is not an integer\n"


def test_decode_refuses_a_stage_cycle_not_in_the_writers_form(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": [[1, 0]]}), encoding="utf-8")
    assert run_cli("decode", str(stage), "--mode", "prime_parity", "--upto", "0") == 2
    err = capsys.readouterr().err
    assert err == "error: malformed injection: cycle [1, 0] does not start at its minimum\n"


def _assert_usage_error(capsys, *argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_decode_rejects_a_negative_orbit_order_bound(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli(
        "run", "--flavor", "coding", "--bits", "1011", "--schedule", "auto:4", "--out", str(out)
    )
    assert code == 0
    capsys.readouterr()
    _assert_usage_error(capsys, "decode", str(out), "--mode", "orbit_order", "--upto", "-2")


def test_decode_rejects_a_negative_prime_parity_bound(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": [[0, 1]]}), encoding="utf-8")
    _assert_usage_error(capsys, "decode", str(stage), "--mode", "prime_parity", "--upto", "-1")


def test_decode_rejects_an_injection_that_is_not_a_pair_list(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": 5}), encoding="utf-8")
    _assert_usage_error(capsys, "decode", str(stage), "--mode", "orbit_order")


def test_decode_rejects_a_final_condition_that_is_not_an_object(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"final": 3}), encoding="utf-8")
    _assert_usage_error(capsys, "decode", str(trace), "--mode", "orbit_order")


def test_decode_rejects_unanchored_injections(tmp_path, capsys):
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"cycles": [[5, 6]]}), encoding="utf-8")
    assert run_cli("decode", str(stage), "--mode", "orbit_order") == 1
    capsys.readouterr()


def test_decode_rejects_files_without_injections(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    assert run_cli("decode", str(other), "--mode", "orbit_order") == 2
    capsys.readouterr()


def test_unknown_oracle_is_a_usage_error(tmp_path, capsys):
    code = run_cli(
        "run",
        "--flavor",
        "plain",
        "--oracle",
        "what",
        "--schedule",
        "auto:2",
        "--out",
        str(tmp_path / "t.json"),
    )
    assert code == 2
    capsys.readouterr()


def test_malformed_stage_file_is_a_usage_error(tmp_path, capsys):
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([[1, 2]]), encoding="utf-8")
    _assert_usage_error(
        capsys, "run", "--flavor", "plain", "--oracle", f"staged:{stages}",
        "--schedule", "auto:2", "--out", str(tmp_path / "t.json"),
    )


def test_malformed_schedule_inputs_are_usage_errors(tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([[1, 2]]), encoding="utf-8")
    out = str(tmp_path / "t.json")
    _assert_usage_error(
        capsys, "run", "--flavor", "plain", "--schedule", str(schedule), "--out", out
    )
    _assert_usage_error(
        capsys, "run", "--flavor", "plain", "--oracle", "translation", "--words", "gfoo.x",
        "--out", out,
    )


@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"kind": "domain_hits", "n": -1}, "negative point -1"),
        ({"kind": "range_hits", "m": -3}, "negative point -3"),
        ({"kind": "orbit_coded", "index": -1}, "negative orbit index -1"),
    ],
    ids=["domain", "range", "orbit-index"],
)
def test_a_negative_requirement_point_is_a_usage_error(tmp_path, capsys, entry, reason):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([entry]), encoding="utf-8")
    out = tmp_path / "t.json"
    assert run_cli("run", "--flavor", "plain", "--schedule", str(schedule), "--out", str(out)) == 2
    assert f"error: cannot build schedule: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "nodes, reason",
    [([[], [-1]], "negative value in node [-1]"), ([[], [1.5]], "1.5 is not an integer")],
    ids=["negative", "float"],
)
def test_an_explicit_tree_off_the_naturals_is_a_usage_error(tmp_path, capsys, nodes, reason):
    schedule = tmp_path / "schedule.json"
    entry = {"kind": "tree_diagonalized", "tree": {"kind": "explicit", "nodes": nodes}, "node": []}
    schedule.write_text(json.dumps([entry]), encoding="utf-8")
    out = tmp_path / "t.json"
    assert run_cli("run", "--flavor", "plain", "--schedule", str(schedule), "--out", str(out)) == 2
    assert f"error: cannot build schedule: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "tree, node",
    [({"kind": "full"}, [1, 1]), ({"kind": "sparse", "seed": 1, "modulus": 7}, [0])],
    ids=["full", "sparse"],
)
def test_a_tree_step_that_starts_off_its_tree_fails_the_run(tmp_path, capsys, tree, node):
    schedule = tmp_path / "schedule.json"
    entry = {"kind": "tree_diagonalized", "tree": tree, "node": node}
    schedule.write_text(json.dumps([entry]), encoding="utf-8")
    out = tmp_path / "t.json"
    assert run_cli("run", "--flavor", "plain", "--schedule", str(schedule), "--out", str(out)) == 1
    assert f"error: step 0: node {node} is not in the tree" in capsys.readouterr().err
    assert not out.exists()


def test_stage_word_naming_its_own_generator_is_a_usage_error(tmp_path, capsys):
    stage = {"cycles": [[0, 1]], "words": ["g0.x", "x"], "target_bits": [1]}
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")
    _assert_usage_error(
        capsys, "run", "--flavor", "plain", "--oracle", f"staged:{stages}",
        "--schedule", "auto:2", "--out", str(tmp_path / "t.json"),
    )


def test_a_stage_file_with_a_malformed_cycle_is_a_usage_error(tmp_path, capsys):
    stage = {"cycles": [[1, 0]], "words": [], "target_bits": []}
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")
    argv = ("run", "--flavor", "plain", "--oracle", f"staged:{stages}", "--schedule", "auto:2")
    assert run_cli(*argv, "--out", str(tmp_path / "t.json")) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: cannot load oracle: stage 0: cycle [1, 0] does not start at its minimum"


def test_a_stage_file_with_a_key_outside_the_format_is_a_usage_error(tmp_path, capsys):
    stage = {"cycles": [[0, 1]], "words": ["x"], "target_bits": [1]}
    stages = tmp_path / "stages.json"
    argv = ("run", "--flavor", "plain", "--oracle", f"staged:{stages}", "--schedule", "auto:2")
    stages.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")
    assert run_cli(*argv, "--out", str(tmp_path / "t.json")) == 0
    capsys.readouterr()
    stage["note"] = "forged"
    stages.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")
    assert run_cli(*argv, "--out", str(tmp_path / "t.json")) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: cannot load oracle: oracle stage 0 has keys")


def test_usage_errors_from_argparse_exit_two(capsys):
    assert run_cli("run", "--flavor", "nonsense") == 2
    assert run_cli() == 2
    capsys.readouterr()


def test_staged_oracle_file_round_trip(tmp_path, capsys):
    first = tmp_path / "stage0.json"
    code = run_cli(
        "run",
        "--flavor",
        "dagger",
        "--bits",
        "1",
        "--words",
        "x,x^2",
        "--out",
        str(first),
    )
    assert code == 0
    capsys.readouterr()
    trace = json.loads(first.read_text(encoding="utf-8"))
    stage = {
        "cycles": cycles_to_data(injection_from_pairs(trace["final"]["injection"])),
        "words": trace["final"]["words"],
        "target_bits": trace["target"],
    }
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps({"stages": [stage]}), encoding="utf-8")

    out = tmp_path / "stage1.json"
    code = run_cli(
        "run",
        "--flavor",
        "plain",
        "--oracle",
        f"staged:{stages}",
        "--schedule",
        "auto:2",
        "--out",
        str(out),
    )
    assert code == 0
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 0
    capsys.readouterr()


def test_run_prints_each_growth_by_its_step_and_need(tmp_path, capsys):
    """The first tree step, step 9, takes (4, 5): index 4 is the first outside the domain
    {0..3}, and 5 is the avoidance bound, which clears the map and g0's images of it.
    The step's one check evaluates g0 at 5, which needs a window of 6."""
    stages = tmp_path / "stages.json"
    data = [stage_to_data(stage) for stage in staged_run([(1,), (0,)])]
    stages.write_text(json.dumps(data), encoding="utf-8")
    argv = ("run", "--flavor", "plain", "--words", "g0.x", "--full-trees", "2",
            "--schedule", "auto:4", "--oracle", f"staged:{stages}")
    assert run_cli(*argv, "--out", str(tmp_path / "t.json")) == 0
    assert "\ngrowth at step 9 (needed 6)\n" in capsys.readouterr().out
    assert run_cli("verify", str(tmp_path / "t.json")) == 0
    capsys.readouterr()


def _fresh_process(argv, cwd):
    """Exit code, stdout and stderr of `python -m orbitcode.cli argv` in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "orbitcode.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_answer_as_fresh_processes_would(tmp_path, capsys, monkeypatch):
    """A usage error, a good trace, a refused one, then --help, all in one process."""
    monkeypatch.setenv("COLUMNS", "80")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert run_cli("run", "--flavor", "coding", "--bits", "1011", "--schedule", "auto:4",
                   "--out", str(good)) == 0
    data = json.loads(good.read_text(encoding="utf-8"))
    step = next(step for step in data["steps"] if step["pairs"])
    step["pairs"][0][1] += 1
    bad.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()

    monkeypatch.chdir(tmp_path)
    calls = [(("run", "--flavor", "nonsense"), 2), (("verify", "good.json"), 0),
             (("verify", "bad.json"), 1), (("--help",), 0)]
    for argv, expected in calls:
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert code == expected, argv
        assert (code, out, err) == _fresh_process(argv, tmp_path), argv
