"""The value types' contract: equality within one class only, hash of the
field tuple, no assignment on the frozen types, and the repr text.

These records are plain NamedTuple or __slots__ classes so that importing
the package stays cheap; the tests pin what their callers (set and dict
order, report bytes, the CLI's config overrides) rely on.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import lenequiv
from lenequiv.fuchsian import Arc, PingPongCertificate
from lenequiv.intersections import IntersectionRecord
from lenequiv.pipeline import CurvePair
from lenequiv.reports import Report, RunConfig
from lenequiv.sl2 import Axis, Mat2
from lenequiv.word_algebra import CyclicWord, SurfaceSpec, Word

W = Word((1, -2))
PANTS = SurfaceSpec(0, 3)

# (instance, an equal instance, its field tuple, its repr)
FROZEN = [
    (W, Word((1, -2)), ((1, -2),), "Word(letters=(1, -2))"),
    (CyclicWord((1, 2)), CyclicWord((1, 2)), ((1, 2),), "CyclicWord(letters=(1, 2))"),
    (
        PANTS,
        SurfaceSpec(genus=0, boundary_components=3),
        (0, 3, 0),
        "SurfaceSpec(genus=0, boundary_components=3, punctures=0)",
    ),
    (
        Mat2(1.0, 2.0, 0.5, 2.0),
        Mat2(1.0, 2.0, 0.5, 2.0),
        (1.0, 2.0, 0.5, 2.0),
        "Mat2(a=1.0, b=2.0, c=0.5, d=2.0)",
    ),
    (
        Axis(-1.0, float("inf"), 0.5),
        Axis(-1.0, float("inf"), 0.5),
        (-1.0, float("inf"), 0.5),
        "Axis(repelling=-1.0, attracting=inf, translation_length=0.5)",
    ),
    (Arc(0.25, 1.5), Arc(0.25, 1.5), (0.25, 1.5), "Arc(start=0.25, span=1.5)"),
    (
        IntersectionRecord(W, -1),
        IntersectionRecord(Word((1, -2)), -1),
        (W, -1),
        "IntersectionRecord(witness=Word(letters=(1, -2)), sign=-1)",
    ),
    (
        CurvePair(W, Word((2,)), 3, ("self", W, Word(()))),
        CurvePair(W, Word((2,)), 3, ("self", W, Word(()))),
        (W, Word((2,)), 3, ("self", W, Word(()))),
        "CurvePair(left=Word(letters=(1, -2)), right=Word(letters=(2,)), n=3, "
        "provenance=('self', Word(letters=(1, -2)), Word(letters=())))",
    ),
]
IDS = [type(case[0]).__name__ for case in FROZEN]


@pytest.mark.parametrize("value, same, fields, text", FROZEN, ids=IDS)
def test_equal_to_its_own_class_only(value, same, fields, text):
    assert value == same and not value != same
    assert value != fields and fields != value
    assert not value == fields and not fields == value
    assert value != object()


@pytest.mark.parametrize("value, same, fields, text", FROZEN, ids=IDS)
def test_hash_is_the_hash_of_the_fields(value, same, fields, text):
    assert hash(value) == hash(same) == hash(fields)


@pytest.mark.parametrize("value, same, fields, text", FROZEN, ids=IDS)
def test_frozen_fields_refuse_assignment(value, same, fields, text):
    name = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == same


@pytest.mark.parametrize("value, same, fields, text", FROZEN, ids=IDS)
def test_repr_text(value, same, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, fields, text", FROZEN, ids=IDS)
def test_copy_and_pickle_round_trip(value, same, fields, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_word_and_cyclic_word_never_compare_equal():
    assert Word((1,)) != CyclicWord((1,))
    assert not Word((1,)) == CyclicWord((1,))
    assert len({Word((1,)), CyclicWord((1,)), (1,), ((1,),)}) == 4
    assert Word() == Word(()) and len(Word()) == 0


def test_named_tuple_records_differ_across_classes():
    # two records whose fields hold the same values are still not equal
    assert Arc(0.25, 1.5) != IntersectionRecord(0.25, 1.5)
    assert not Arc(0.25, 1.5) == IntersectionRecord(0.25, 1.5)
    assert not IntersectionRecord(0.25, 1.5) == Arc(0.25, 1.5)


def test_ping_pong_certificate_contract():
    arcs = {"a": Arc(0.0, 0.5)}
    cert = PingPongCertificate(arcs, 0.7)
    assert cert == PingPongCertificate({"a": Arc(0.0, 0.5)}, 0.7)
    assert cert != (arcs, 0.7)
    assert repr(cert) == "PingPongCertificate(arcs={'a': Arc(start=0.0, span=0.5)}, k_scale=0.7)"
    with pytest.raises(AttributeError):
        cert.k_scale = 1.0
    with pytest.raises(TypeError):  # a dict field has no hash
        hash(cert)


@pytest.mark.parametrize("args", [(0, 0), (1, 0), (0, 2), (-1, 3), (0, 3, -1), (2, 0)])
def test_surface_spec_refuses_invalid_parameters(args):
    with pytest.raises(ValueError):
        SurfaceSpec(*args)


def test_run_config_is_mutable_and_unhashable():
    config = RunConfig(PANTS, "filling")
    assert repr(config) == (
        "RunConfig(surface=SurfaceSpec(genus=0, boundary_components=3, punctures=0), "
        "task='filling', words={}, seeds=(0,), spread=3.0, n_range=(1, 8), tol=1e-09, "
        "output_path=None, scc_word_bound=None)"
    )
    other = RunConfig(PANTS, "filling")
    assert config == other and config.words is not other.words
    config.task = "pairs"
    config.seeds = (3,)
    assert config.task == "pairs" and config != other
    with pytest.raises(TypeError):
        hash(config)
    assert config != ()
    assert pickle.loads(pickle.dumps(config)) == config == copy.deepcopy(config)


def test_report_is_mutable_and_unhashable():
    report = Report({"task": "x"}, "x", {}, {"lenequiv": "0"})
    assert report == Report({"task": "x"}, "x", {}, {"lenequiv": "0"})
    assert repr(report) == (
        "Report(config={'task': 'x'}, task='x', payload={}, versions={'lenequiv': '0'}, "
        "wall_time_s=0.0)"
    )
    report.wall_time_s = 1.5
    assert report != Report({"task": "x"}, "x", {}, {"lenequiv": "0"})
    with pytest.raises(TypeError):
        hash(report)


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # the value types are not built by the standard library's record
    # decorator, whose import loads inspect, ast, dis and tokenize
    src = os.path.dirname(os.path.dirname(os.path.abspath(lenequiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, lenequiv.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env, check=True
    )
    loaded = set(proc.stdout.split())
    assert "lenequiv.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}
