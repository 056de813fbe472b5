"""Config validation, task payloads, and deterministic emission."""

import importlib
import json
import math

import pytest

from lenequiv import __version__, cli, intersections, pipeline, trace_poly
from lenequiv.errors import ConfigError
from lenequiv.reports import Report, RunConfig, emit, load_config, round9, run

# the package exports the function bracket under the submodule's name
bracket_module = importlib.import_module("lenequiv.bracket")

TORUS_SURFACE = {"genus": 1, "boundary_components": 1}
PANTS_SURFACE = {"genus": 0, "boundary_components": 3}


def make_config(**overrides):
    data = {"surface": dict(TORUS_SURFACE), "task": "trace-id"}
    data.update(overrides)
    return RunConfig.from_dict(data)


# -------------------------------------------------------------------- round9


def test_round9():
    assert round9(1.0 / 3.0) == 0.333333333
    assert round9(math.pi) == 3.14159265
    assert round9(-0.0) == 0.0
    assert math.copysign(1.0, round9(-0.0)) == 1.0  # -0.0 never serialized
    assert round9(1e-15) == 1e-15


# ------------------------------------------------------------- config parsing


def test_config_defaults():
    cfg = make_config()
    assert cfg.seeds == (0,)
    assert cfg.spread == 3.0
    assert cfg.n_range == (1, 8)
    assert cfg.tol == 1e-9
    assert cfg.scc_word_bound is None
    assert cfg.words == {}


def test_config_parses_words_with_surface_rank():
    cfg = make_config(words={"alpha": "ab", "beta": "aB"})
    assert str(cfg.words["alpha"]) == "ab"
    with pytest.raises(ConfigError):
        make_config(words={"alpha": "ac"})  # rank 2 surface has no letter c
    with pytest.raises(ConfigError):
        make_config(words={"alpha": "a-b"})


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        RunConfig.from_dict([])
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"task": "trace-id"})  # no surface
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"surface": {}, "task": "trace-id"})  # no genus
    for shape in ({"n_range": 5}, {"n_range": [1, 2, 3]}, {"words": ["w"]}, {"words": "ab"}):
        with pytest.raises(ConfigError):
            make_config(**shape)
    with pytest.raises(ConfigError):
        make_config(task="no-such-task")
    with pytest.raises(ConfigError):
        make_config(typo_field=1)


def test_config_rejects_non_string_output_path():
    for target in (7, True, ["report.json"], {"path": "report.json"}):
        with pytest.raises(ConfigError):
            make_config(output_path=target)  # open(7) would write to file descriptor 7
    assert make_config(output_path="report.json").output_path == "report.json"
    assert make_config(output_path=None).output_path is None


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        make_config(seeds=[])
    with pytest.raises(ConfigError):
        make_config(seeds=["0"])
    with pytest.raises(ConfigError):
        make_config(seeds=[True])  # bools are not seeds
    with pytest.raises(ConfigError):
        make_config(spread=1.0)  # below the sampler floor
    with pytest.raises(ConfigError):
        make_config(n_range=[2, 1])
    with pytest.raises(ConfigError):
        make_config(n_range=[0, 3])
    with pytest.raises(ConfigError):
        make_config(tol=0.0)
    with pytest.raises(ConfigError):
        make_config(tol=0.01)
    with pytest.raises(ConfigError):
        make_config(scc_word_bound=0)
    with pytest.raises(ConfigError):
        make_config(surface={"genus": 0, "boundary_components": 1})  # not hyperbolic
    unreadable = (
        {"tol": "x"}, {"scc_word_bound": "x"}, {"spread": "x"},
        {"n_range": ["a", 3]}, {"n_range": [1, None]},
        {"spread": "nan"}, {"spread": float("inf")}, {"spread": 10**400},
    )
    for value in unreadable:
        with pytest.raises(ConfigError):
            make_config(**value)


@pytest.mark.parametrize(
    "fields",
    [
        {"n_range": [1, 2.5]},  # int() would run n = 1..2
        {"n_range": ["1", "2"]},
        {"n_range": [True, 2]},
        {"spread": "4.5"},  # float() would run spread 4.5
        {"spread": " 4.5 "},
        {"tol": "1e-6"},
        {"spread": True},
        {"scc_word_bound": 3.5},
        {"scc_word_bound": True},
        {"scc_word_bound": "3"},
        {"surface": {"genus": 1.5, "boundary_components": 1}},  # int() would run the torus
        {"surface": {"genus": "1", "boundary_components": 1}},
        {"surface": {"genus": 1, "boundary_components": True}},
        {"surface": {"genus": 0, "boundary_components": 3.0}},
        {"surface": {"genus": 0, "boundary_components": 2, "punctures": 1.0}},
        {"surface": {"genus": 0, "boundary_components": 2, "punctures": "1"}},
    ],
)
def test_config_integer_fields_must_be_json_integers(fields, tmp_path, capsys):
    # and number fields must be JSON numbers: no field parses a string or a bool
    with pytest.raises(ConfigError):
        make_config(**fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict({"surface": TORUS_SURFACE, "task": "trace-id"}, **fields)))
    assert cli.main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_naming_word_bound_exits_2(tmp_path, capsys):
    # intersection records are exact, so no field bounds their enumeration
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surface": TORUS_SURFACE, "task": "trace-id", "word_bound": 6}))
    assert cli.main(["run", str(path)]) == 2
    assert "unknown config fields: word_bound" in capsys.readouterr().err


@pytest.mark.parametrize("text", [True, None, 12, ["a", "b"]])
def test_config_word_values_must_be_json_strings(text):
    # rank 22: str(True) and str(None) would parse as the words "True", "None"
    surface = {"genus": 11, "boundary_components": 1}
    with pytest.raises(ConfigError):
        make_config(surface=surface, words={"alpha": text})


def test_config_echo_shape():
    cfg = make_config(words={"b_word": "b", "a_word": "a"}, seeds=[3, 1])
    echoed = cfg.echo()
    assert echoed["surface"] == {"genus": 1, "boundary_components": 1, "punctures": 0}
    assert list(echoed["words"]) == ["a_word", "b_word"]  # sorted
    assert echoed["seeds"] == [3, 1]
    assert echoed["tol"] == 1e-9


# ------------------------------------------------------------- task payloads


def test_trace_id_payload():
    report = run(make_config(n_range=[1, 3]))
    p = report.payload
    assert [r["n"] for r in p["rows"]] == [1, 2, 3]
    assert p["all_hold"] is True
    assert p["sample_polynomials"]["left_n3"] == "x^2*z - x*y - z"
    assert p["sample_polynomials"]["right_n3"] == "y^2*z - x*y - z"
    assert report.task == "trace-id"
    assert report.versions == {"lenequiv": __version__}
    assert report.wall_time_s >= 0.0


def test_sample_reps_payload():
    report = run(make_config(task="sample-reps", seeds=[0, 1]))
    reps = report.payload["representations"]
    assert len(reps) == 2
    base = reps[0]
    assert base["certified"] is True and base["k_scale"] == 1.0
    assert base["matrices"][0] == [3.0, 0.0, 0.0, 0.333333333]
    assert base["matrices"][1] == [1.66666667, 1.33333333, 1.33333333, 1.66666667]
    assert reps[1]["seed"] == 1
    assert reps[1]["matrices"] != base["matrices"]


def test_bracket_payload_and_need():
    report = run(make_config(task="bracket", words={"alpha": "a", "beta": "b"}))
    (entry,) = report.payload["per_seed"]
    assert entry["terms"] == [["ab", -1]]
    assert entry["term_count"] == 1 and entry["is_zero"] is False
    with pytest.raises(ConfigError):
        run(make_config(task="bracket", words={"alpha": "a"}))  # beta missing


def test_bracket_self_payload():
    cfg = RunConfig.from_dict(
        {"surface": PANTS_SURFACE, "task": "bracket-self", "words": {"alpha": "ab"}}
    )
    (entry,) = run(cfg).payload["per_seed"]
    assert entry["pre_cancellation"] == [["aabb", 1], ["aabb", -1]]
    assert entry["folded"] == [] and entry["is_zero"] is True


@pytest.mark.parametrize(
    "task, words, module, name",
    [
        ("bracket", {"alpha": "ab", "beta": "aabb"}, bracket_module, "exact_intersections"),
        ("bracket-self", {"alpha": "aabab"}, bracket_module, "exact_intersections"),
        ("pairs", {"alpha": "aabab"}, intersections, "exact_intersections"),
        ("filling", {"w": "aabb"}, pipeline, "is_filling"),
    ],
    ids=["bracket", "bracket-self", "pairs", "filling"],
)
def test_exact_answer_computed_once_per_run(task, words, module, name, monkeypatch):
    # the answer reads only the cyclic order, which every seed shares
    calls = []
    exact = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(module, name, counted)
    cfg = RunConfig.from_dict(
        {"surface": PANTS_SURFACE, "task": task, "words": words, "seeds": [0, 1, 2], "n_range": [1, 3]}
    )
    entries = run(cfg).payload["per_seed"]
    assert len(calls) == 1
    assert [entry["seed"] for entry in entries] == [0, 1, 2]
    bodies = [{k: v for k, v in entry.items() if k != "seed"} for entry in entries]
    assert bodies[0] and bodies[1:] == bodies[:1] * 2


def test_verify_exact_columns_computed_once_per_n(monkeypatch):
    calls = {
        name: 0
        for name in ("check_nonconjugate", "check_equal_length_symbolic", "is_filling", "trace_identity")
    }
    for name in calls:
        module = trace_poly if name == "trace_identity" else pipeline
        exact = getattr(module, name)

        def counted(*args, name=name, exact=exact):
            calls[name] += 1
            return exact(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = RunConfig.from_dict({
        "surface": PANTS_SURFACE, "task": "verify", "words": {"alpha": "ab"},
        "seeds": [0, 1, 2], "n_range": [2, 4], "scc_word_bound": 3,
    })
    rows = run(cfg).payload["rows"]
    assert len(rows) == 9  # 3 seeds x 3 exponents
    assert calls == {
        "check_nonconjugate": 3, "check_equal_length_symbolic": 3, "is_filling": 6, "trace_identity": 1,
    }
    assert len({row["tau_left"] for row in rows if row["n"] == 2}) == 3  # lengths stay per seed


@pytest.mark.parametrize(
    "task, words",
    [("trace-id", {}), ("verify", {"alpha": "ab"})],
    ids=["trace-id", "verify"],
)
def test_trace_identity_computed_once_per_run(task, words, monkeypatch):
    # one pass over the whole n_range, and no word goes through the matrix
    # walk of trace_polynomial
    identity_calls, walk_calls = [], []
    identity, walk = trace_poly.trace_identity, trace_poly.trace_polynomial

    def counted_identity(*args):
        identity_calls.append(args)
        return identity(*args)

    def counted_walk(*args):
        walk_calls.append(args)
        return walk(*args)

    monkeypatch.setattr(trace_poly, "trace_identity", counted_identity)
    monkeypatch.setattr(trace_poly, "trace_polynomial", counted_walk)
    cfg = RunConfig.from_dict(
        {"surface": PANTS_SURFACE, "task": task, "words": words, "seeds": [0, 1], "n_range": [2, 30]}
    )
    payload = run(cfg).payload
    assert identity_calls == [(2, 30)]
    assert walk_calls == []
    rows = payload["rows"]
    assert [r["n"] for r in rows] == list(range(2, 31)) * (2 if task == "verify" else 1)
    assert payload["all_hold" if task == "trace-id" else "symbolic_ok"] is True


def test_pairs_payload():
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "pairs",
            "words": {"alpha": "ab"},
            "n_range": [1, 4],
        }
    )
    (entry,) = run(cfg).payload["per_seed"]
    assert entry["witness"] == "a"
    assert entry["self_intersection_count"] == 1
    assert entry["n_observed"] == 1
    assert [r["nonconjugate"] for r in entry["table"]] == [False, True, True, True]


def test_pairs_needs_a_self_intersecting_word():
    cfg = RunConfig.from_dict(
        {"surface": TORUS_SURFACE, "task": "pairs", "words": {"alpha": "ab"}}
    )
    from lenequiv.errors import DegenerateInputError

    with pytest.raises(DegenerateInputError):
        run(cfg)  # "ab" is simple on the one-holed torus


def test_verify_payload_self_family():
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "verify",
            "words": {"alpha": "ab"},
            "seeds": [0, 1],
            "n_range": [1, 3],
        }
    )
    p = run(cfg).payload
    assert p["witness"] == "a"
    assert len(p["rows"]) == 6  # 2 seeds x 3 exponents
    assert p["equal_length_all"] is True and p["symbolic_ok"] is True
    assert p["ok"] is True
    assert p["max_rel_dev"] <= 1e-9
    row = p["rows"][0]
    assert row["filling_left"] == "skipped"
    assert set(row) == {
        "seed", "n", "tau_left", "tau_right", "rel_dev",
        "nonconjugate", "filling_left", "filling_right",
    }


def test_verify_payload_general_family():
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "verify",
            "words": {"alpha": "ab", "beta": "aab", "g": "a", "h": "b"},
            "n_range": [2, 4],
        }
    )
    p = run(cfg).payload
    assert p["witness"] == "a"  # the g member names the family
    assert p["ok"] is True


def test_verify_payload_with_filling():
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "verify",
            "words": {"alpha": "ab"},
            "n_range": [2, 2],
            "scc_word_bound": 4,
        }
    )
    (row,) = run(cfg).payload["rows"]
    assert row["filling_left"] == "yes" and row["filling_right"] == "yes"


def test_filling_payload_word_fallback():
    for words in ({"w": "a"}, {"alpha": "a"}):
        cfg = RunConfig.from_dict(
            {"surface": TORUS_SURFACE, "task": "filling", "words": words}
        )
        p = run(cfg).payload
        assert p["word"] == "a"
        (entry,) = p["per_seed"]
        assert entry["verdict"] == "no"
        assert entry["witnesses"] == ["a"]


# ----------------------------------------------------------------- emission


def test_json_emission_is_byte_deterministic_and_round_trips():
    cfg_data = {
        "surface": PANTS_SURFACE,
        "task": "verify",
        "words": {"alpha": "ab"},
        "n_range": [1, 2],
    }
    blobs = []
    for _ in range(2):
        report = run(RunConfig.from_dict(cfg_data))
        blobs.append(emit(report, "json"))
    assert blobs[0] == blobs[1]
    parsed = json.loads(blobs[0])
    assert set(parsed) == {"config", "task", "versions", "payload"}
    assert parsed == report.to_json_obj()
    assert b"wall_time" not in blobs[0]  # timing never serialized


def test_csv_verify_columns_pinned():
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "verify",
            "words": {"alpha": "ab"},
            "n_range": [1, 2],
        }
    )
    lines = emit(run(cfg), "csv").decode().splitlines()
    assert lines[0] == "seed,n,tau_left,tau_right,rel_dev,nonconjugate,filling_left,filling_right"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,")


def test_csv_bracket_and_empty_sum():
    report = run(make_config(task="bracket", words={"alpha": "a", "beta": "b"}))
    lines = emit(report, "csv").decode().splitlines()
    assert lines == ["seed,term,coefficient", "0,ab,-1"]
    cfg = RunConfig.from_dict(
        {"surface": PANTS_SURFACE, "task": "bracket-self", "words": {"alpha": "ab"}}
    )
    lines = emit(run(cfg), "csv").decode().splitlines()
    assert lines == ["seed,term,coefficient", "0,,0"]  # zero sum still yields a row


def test_csv_sample_reps_columns():
    report = run(make_config(task="sample-reps"))
    lines = emit(report, "csv").decode().splitlines()
    assert lines[0] == "seed,generator,a,b,c,d"
    assert len(lines) == 3  # two generators


def test_text_rendering():
    report = run(make_config(n_range=[1, 2]))
    text = emit(report, "text").decode()
    assert text.startswith("lenequiv %s  task=trace-id" % __version__)
    assert "all hold: True" in text
    cfg = RunConfig.from_dict(
        {
            "surface": PANTS_SURFACE,
            "task": "pairs",
            "words": {"alpha": "ab"},
            "n_range": [1, 3],
        }
    )
    text = emit(run(cfg), "text").decode()
    assert "N_observed=1" in text
    assert "witness g=a" in text


def test_emit_rejects_unknown_format():
    report = run(make_config(n_range=[1, 1]))
    with pytest.raises(ConfigError):
        emit(report, "yaml")


# -------------------------------------------------------------- config files


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surface": TORUS_SURFACE, "task": "trace-id"}))
    cfg = load_config(str(path))
    assert cfg.task == "trace-id"
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
