"""Exit codes, flag overrides, and output routing for the `lenequiv` CLI."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import lenequiv
from lenequiv import cli, reports
from lenequiv.pipeline import CurvePair
from lenequiv.reports import TRACE_N_MAX, RunConfig, emit, run
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
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["run", str(bad)]) == 2
    path = write_config(tmp_path, dict(TRACE_CFG, seeds=[]))
    assert cli.main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


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
    build = reports.build_pair_self

    def scrambled(alpha, g, n):
        good = build(alpha, g, n)
        return CurvePair(good.left, compose(good.right, parse_word("b")), n, good.provenance)

    monkeypatch.setattr(reports, "build_pair_self", scrambled)
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


@pytest.mark.parametrize("task", ["trace-id", "verify"])
def test_n_range_past_the_trace_bound_exits_2(task, tmp_path, capfd):
    # a^n b past the bound would end in a RecursionError traceback
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
