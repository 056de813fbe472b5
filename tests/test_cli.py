"""Exit codes, flag overrides, and output routing for the `lenequiv` CLI."""

import importlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lenequiv
from lenequiv import cli, pipeline
from lenequiv.pipeline import CurvePair
from lenequiv.reports import SCC_WORD_BOUND_MAX, TASKS, TRACE_N_MAX, RunConfig, emit, run
from lenequiv.word_algebra import compose, parse_word


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TRACE_CFG = {
    "surface": {"genus": 1, "boundary_components": 1},
    "task": "trace-id",
    "n_range": [1, 2],
}


def test_run_writes_report_to_stdout(tmp_path, capfdbinary):
    path = write_config(tmp_path, TRACE_CFG)
    assert cli.main(["run", path]) == 0
    out = capfdbinary.readouterr().out
    expected = emit(run(RunConfig.from_dict(TRACE_CFG)), "json")
    assert out == expected
    assert out.endswith(b"\n")


def test_out_flag_routes_to_file(tmp_path, capfdbinary):
    path = write_config(tmp_path, TRACE_CFG)
    target = tmp_path / "report.json"
    assert cli.main(["run", path, "--out", str(target)]) == 0
    assert capfdbinary.readouterr().out == b""
    payload = json.loads(target.read_bytes())
    assert payload["task"] == "trace-id"
    assert payload["payload"]["all_hold"] is True


def test_format_flag(tmp_path, capfdbinary):
    path = write_config(tmp_path, TRACE_CFG)
    assert cli.main(["run", path, "--format", "text"]) == 0
    text = capfdbinary.readouterr().out.decode()
    assert text.startswith("lenequiv")
    assert "all hold: True" in text
    assert cli.main(["run", path, "--format", "csv"]) == 0
    assert capfdbinary.readouterr().out.decode().splitlines()[0] == "n,holds"


def test_seed_flag_replaces_config_seeds(tmp_path, capfdbinary):
    cfg = {"surface": {"genus": 1, "boundary_components": 1}, "task": "sample-reps"}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--seed", "2", "--seed", "5"]) == 0
    payload = json.loads(capfdbinary.readouterr().out)
    assert payload["config"]["seeds"] == [2, 5]
    assert [r["seed"] for r in payload["payload"]["representations"]] == [2, 5]


def test_task_flag_override(tmp_path, capfdbinary):
    path = write_config(tmp_path, TRACE_CFG)
    assert cli.main(["run", path, "--task", "sample-reps"]) == 0
    assert json.loads(capfdbinary.readouterr().out)["task"] == "sample-reps"
    assert cli.main(["run", path, "--task", "bogus"]) == 2


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["run", str(tmp_path / "nul\0.json")]) == 2  # open() raises ValueError
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["run", str(bad)]) == 2
    path = write_config(tmp_path, dict(TRACE_CFG, seeds=[]))
    assert cli.main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_regression_config_not_utf8_exits_2(tmp_path, capsys):
    # a byte-order mark of UTF-16 raised UnicodeDecodeError out of main
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", str(bad)]) == 2
    assert "config error: config %s is not readable JSON" % bad in capsys.readouterr().err


def test_regression_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    # raised RecursionError out of main
    depth = 100_000
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
    assert cli.main(["run", str(bad)]) == 2
    assert "is not readable JSON" in capsys.readouterr().err


def test_regression_config_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # a 5,000-digit bound raised ValueError (int's string-conversion limit) out of main
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(TRACE_CFG).replace("[1, 2]", "[1, %s]" % ("9" * 5000)))
    assert cli.main(["run", str(bad)]) == 2
    assert "is not readable JSON" in capsys.readouterr().err


def test_output_path_not_a_string_exits_2(tmp_path, capfd):
    path = write_config(tmp_path, dict(TRACE_CFG, output_path=["report.json"]))
    assert cli.main(["run", path]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "config error: output_path must be a string" in err


def test_unwritable_output_path_exits_2(tmp_path, capfd):
    target = str(tmp_path / "missing-dir" / "report.json")
    path = write_config(tmp_path, dict(TRACE_CFG, output_path=target))
    assert cli.main(["run", path]) == 2
    assert "config error: cannot write report to %s" % target in capfd.readouterr().err
    path = write_config(tmp_path, TRACE_CFG)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2  # a directory
    out, err = capfd.readouterr()
    assert out == ""
    assert "config error: cannot write report" in err


def test_degenerate_input_exits_2(tmp_path, capsys):
    cfg = {
        "surface": {"genus": 1, "boundary_components": 1},
        "task": "pairs",
        "words": {"alpha": "ab"},  # simple here, so no self-intersection witness
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_with_one_point_named_twice_exits_2(tmp_path, capsys):
    # b lies in <B>, so g = '' and h = b name one point of ab and BB, and
    # every row's members were one class; verify said ok
    cfg = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab", "beta": "BB", "g": "", "h": "b"},
        "n_range": [1, 3],
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "one intersection point" in capsys.readouterr().err


def test_unsupported_surface_exits_2(tmp_path, capfd):
    cfg = {
        "surface": {"genus": 2, "boundary_components": 1},
        "task": "bracket-self",
        "words": {"alpha": "ab"},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "genus 2" in err


def test_hypothesis_violation_exits_4(tmp_path, capsys):
    cfg = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab", "beta": "aab", "g": "a", "h": "A"},
        "n_range": [1, 2],
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 4
    assert "verification failure" in capsys.readouterr().err


def test_verify_not_ok_exits_4(tmp_path, capsys, monkeypatch):
    # negative control: a scrambled right member has a different length
    build = pipeline.build_pair_self

    def scrambled(alpha, g, n):
        good = build(alpha, g, n)
        return CurvePair(good.left, compose(good.right, parse_word("b")), n, good.provenance)

    monkeypatch.setattr(pipeline, "build_pair_self", scrambled)
    cfg_data = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab"},
        "seeds": [0, 1, 2, 3, 4],
        "n_range": [2, 2],
    }
    p = run(RunConfig.from_dict(cfg_data)).payload
    assert p["equal_length_all"] is False and p["ok"] is False
    assert p["max_rel_dev"] > 1e-3
    path = write_config(tmp_path, cfg_data)
    assert cli.main(["run", path]) == 4
    assert "exceed tolerance" in capsys.readouterr().err


def test_regression_verify_lengths_of_long_words_stay_finite(tmp_path, capfdbinary):
    # the matrix of (ab)^n (ab)^a overflowed to Mat2(-inf, -inf, inf, inf)
    # from n = 207 on seed 0 (182 on seed 1, 165 on seed 2), and verify
    # exited 4 with "translation length needs a hyperbolic matrix"
    cfg_data = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab"},
        "seeds": [0, 1, 2],
        "n_range": [200, 210],
    }
    path = write_config(tmp_path, cfg_data)
    assert cli.main(["run", path]) == 0
    report = json.loads(capfdbinary.readouterr().out)
    p = report["payload"]
    assert p["ok"] is True and p["symbolic_ok"] is True
    assert p["max_rel_dev"] <= report["config"]["tol"]
    assert len(p["rows"]) == 33
    assert all(r["tau_left"] > 0 for r in p["rows"])


@pytest.mark.parametrize("task", ["trace-id", "verify"])
def test_n_range_past_the_trace_bound_exits_2(task, tmp_path, capfd):
    # the bound keeps the report size and run time in check: the identity
    # pass does O(n) work per n, and trace-id prints two polynomials of
    # about n terms
    cfg = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": task,
        "words": {"alpha": "ab"},
        "n_range": [1, 1000],
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "config error: task %r takes n_range up to %d, got 1000\n" % (task, TRACE_N_MAX)
    assert TRACE_N_MAX >= 400  # the benchmark's trace-id run reaches n = 400
    RunConfig.from_dict(dict(cfg, n_range=[1, TRACE_N_MAX]))
    # the bound holds when the task comes from the command line too
    path = write_config(tmp_path, dict(cfg, task="pairs"), name="pairs.json")
    assert cli.main(["run", path, "--task", task]) == 2
    assert "takes n_range up to" in capfd.readouterr().err


@pytest.mark.parametrize("task", ["filling", "verify"])
def test_scc_word_bound_past_the_cap_exits_2(task, tmp_path, capfd):
    # the simple-class scan triples its cost per letter of the bound
    cfg = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": task,
        "words": {"w": "aabb", "alpha": "ab"},
        "n_range": [1, 2],
        "scc_word_bound": SCC_WORD_BOUND_MAX + 1,
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "config error: scc_word_bound must lie in [1, %d], got %d\n" % (
        SCC_WORD_BOUND_MAX, SCC_WORD_BOUND_MAX + 1)
    assert SCC_WORD_BOUND_MAX >= 4  # tests and goldens run filling at up to 4
    RunConfig.from_dict(dict(cfg, scc_word_bound=SCC_WORD_BOUND_MAX))


def run_module(args, **kwargs):
    # the child imports the same lenequiv as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(lenequiv.__file__)))
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-m", "lenequiv", *args], text=True, timeout=120, env=env, **kwargs
    )


def test_console_script_end_to_end(tmp_path):
    path = write_config(tmp_path, TRACE_CFG)
    proc = run_module(["run", path, "--format", "text"], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert "all hold: True" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_exits_2_without_traceback(tmp_path):
    path = write_config(tmp_path, TRACE_CFG)
    with open("/dev/full", "w") as full:
        proc = run_module(["run", path], stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write report to standard output: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_failed_stdout_write_exits_2(tmp_path, capsys, monkeypatch):
    class FullBuffer:
        def write(self, data):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    class FullStdout:
        buffer = FullBuffer()

    path = write_config(tmp_path, TRACE_CFG)
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot write report to standard output: [Errno 28] No space left on device\n"
    )


def test_main_module_import_does_not_run_the_cli():
    # package walkers import every submodule; only `python -m` may run main
    importlib.import_module("lenequiv.__main__")


def test_run_subcommand_required():
    with pytest.raises(SystemExit):
        cli.main([])


# ------------------------------------------------------------------ fuzzing


_fuzz_word = st.text(alphabet="abAB", max_size=8)

# mostly configs that reach the engines, some that the config check refuses
_fuzz_config = st.fixed_dictionaries(
    {
        "surface": st.sampled_from([
            {"genus": 0, "boundary_components": 3},
            {"genus": 1, "boundary_components": 1},
            {"genus": 2, "boundary_components": 1},
        ]),
        "task": st.sampled_from(TASKS),
        "words": st.fixed_dictionaries(
            {"alpha": _fuzz_word, "beta": _fuzz_word, "w": _fuzz_word},
            optional={"g": _fuzz_word, "h": _fuzz_word},
        ),
        "seeds": st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
        "n_range": st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=2).map(sorted)
        | st.lists(st.integers(min_value=-1, max_value=20), min_size=2, max_size=2),
    },
    optional={
        "scc_word_bound": st.integers(min_value=0, max_value=4),
        "tol": st.sampled_from([0.0, 1e-9, 1e-3]),
    },
)


# the command-line overrides: a format, maybe a task (or an unknown one),
# and zero or more --seed flags
_fuzz_flags = st.tuples(
    st.sampled_from(["json", "csv", "text"]),
    st.none() | st.sampled_from(TASKS + ("bogus",)),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
).map(
    lambda t: ["--format", t[0]]
    + (["--task", t[1]] if t[1] is not None else [])
    + [arg for seed in t[2] for arg in ("--seed", str(seed))]
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_fuzz_config, flags=_fuzz_flags)
def test_random_configs_exit_0_2_or_4(cfg, flags):
    # every failure maps to a documented exit code, never to a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, output_path=os.path.join(tmp, "report.json"))
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main(["run", path, *flags])
        assert code in (0, 2, 4)
        if code == 0:
            assert os.path.exists(cfg["output_path"])
