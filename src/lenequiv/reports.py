"""Run configurations, task dispatch and deterministic report emission.

Reports are experiment artifacts: every float is rounded to 9 significant
digits when the payload is built, dict keys are emitted sorted, and wall
time is kept on the Report object but never serialized, so identical
configs produce byte-identical output.
"""

from __future__ import annotations

import io
import json
import math
import time
from typing import Optional

from . import __version__
from ._records import Record
from .errors import AlphabetError, ConfigError, DegenerateInputError
from .word_algebra import SPREAD_FLOOR, SurfaceSpec, Word, parse_word

# Each task imports the engines it runs in its own body, so a run loads (and,
# without cached bytecode, compiles) only those: trace-id never loads the
# sampler, filling never loads the Fricke polynomials.

TASKS = ("bracket", "bracket-self", "pairs", "verify", "trace-id", "filling", "sample-reps")

# trace-id and verify check the trace identity for every n in n_range in
# one pass, at O(n) work per n, and trace-id prints the polynomials of a^n b
# and b^n a at the top of the range, about n terms each; so the cap bounds
# report size and run time: trace-id at n = 500 takes about 0.1 s in
# process and prints about 114 kB of JSON
TRACE_N_MAX = 500

# filling prints a table that counts w against every simple class of up to
# scc_word_bound + 1 letters, and verify counts each pair member against
# it; the classes come in closed form, about (6 / pi^2) (bound + 1)^2 of
# them on the torus and three on the pants, so the cap bounds table size
SCC_WORD_BOUND_MAX = 8

_CSV_VERIFY_COLUMNS = (
    "seed", "n", "tau_left", "tau_right", "rel_dev",
    "nonconjugate", "filling_left", "filling_right",
)


def round9(x: float) -> float:
    """Canonical float for serialization: 9 significant digits, -0.0 folded
    to 0.0."""
    return float(f"{x:.9g}") + 0.0


def _json_int(name: str, value) -> int:
    """An integer config field as given: a JSON integer, never a bool, a
    float or a string that int() would round or parse."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    return value


def _json_number(name: str, value) -> float:
    """A number config field as given: a JSON integer or float, never a
    bool or a string that float() would parse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number, got %r" % (name, value))
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise ConfigError("%s is out of range: %s" % (name, exc)) from exc


def _check_trace_bound(task: str, n_range) -> None:
    if task in ("trace-id", "verify") and n_range[1] > TRACE_N_MAX:
        raise ConfigError("task %r takes n_range up to %d, got %d" % (task, TRACE_N_MAX, n_range[1]))


class RunConfig(Record):
    """A validated run configuration; mutable, so the CLI can override the
    task, seeds and output path after loading."""

    __slots__ = (
        "surface", "task", "words", "seeds", "spread", "n_range", "tol",
        "output_path", "scc_word_bound",
    )

    def __init__(
        self,
        surface: SurfaceSpec,
        task: str,
        words: Optional[dict] = None,  # name -> Word; None for a new empty dict
        seeds: tuple = (0,),
        spread: float = 3.0,
        n_range: tuple = (1, 8),
        tol: float = 1e-9,
        output_path: Optional[str] = None,
        scc_word_bound: Optional[int] = None,
    ):
        self.surface = surface
        self.task = task
        self.words = {} if words is None else words
        self.seeds = seeds
        self.spread = spread
        self.n_range = n_range
        self.tol = tol
        self.output_path = output_path
        self.scc_word_bound = scc_word_bound

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {
            "surface", "task", "words", "seeds", "spread", "n_range", "tol",
            "output_path", "scc_word_bound",
        }
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        try:
            sdata = data["surface"]
            surface = SurfaceSpec(
                genus=_json_int("genus", sdata["genus"]),
                boundary_components=_json_int("boundary_components", sdata.get("boundary_components", 0)),
                punctures=_json_int("punctures", sdata.get("punctures", 0)),
            )
        except KeyError as exc:
            raise ConfigError("surface requires a genus field") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("invalid surface: %s" % exc) from exc
        task = data.get("task")
        if task not in TASKS:
            raise ConfigError("unknown task %r (expected one of %s)" % (task, ", ".join(TASKS)))
        words_data = data.get("words", {})
        if not isinstance(words_data, dict):
            raise ConfigError("words must be an object mapping names to words")
        words = {}
        for name, text in words_data.items():
            if not isinstance(text, str):
                raise ConfigError("word %r must be a string, got %r" % (name, text))
            try:
                words[name] = parse_word(text, rank=surface.rank)
            except AlphabetError as exc:
                raise ConfigError("word %r does not parse: %s" % (name, exc)) from exc
        seeds = data.get("seeds", [0])
        if not isinstance(seeds, (list, tuple)) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            raise ConfigError("seeds must be a nonempty list of integers")
        n_range = data.get("n_range", (1, 8))
        if not isinstance(n_range, (list, tuple)) or len(n_range) != 2:
            raise ConfigError("n_range must be [lo, hi] with 1 <= lo <= hi")
        n_range = (_json_int("n_range", n_range[0]), _json_int("n_range", n_range[1]))
        scc = data.get("scc_word_bound")
        scc = None if scc is None else _json_int("scc_word_bound", scc)
        spread = _json_number("spread", data.get("spread", 3.0))
        tol = _json_number("tol", data.get("tol", 1e-9))
        if not (math.isfinite(spread) and spread >= SPREAD_FLOOR):
            raise ConfigError("spread must be a finite number of at least %s" % SPREAD_FLOOR)
        if not 1 <= n_range[0] <= n_range[1]:
            raise ConfigError("n_range must be [lo, hi] with 1 <= lo <= hi")
        _check_trace_bound(task, n_range)
        if not (0.0 < tol <= 1e-3):
            raise ConfigError("tol must lie in (0, 1e-3]")
        if scc is not None and not 1 <= scc <= SCC_WORD_BOUND_MAX:
            raise ConfigError("scc_word_bound must lie in [1, %d], got %d" % (SCC_WORD_BOUND_MAX, scc))
        output_path = data.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output_path must be a string path")
        return cls(
            surface=surface,
            task=task,
            words=words,
            seeds=tuple(seeds),
            spread=spread,
            n_range=n_range,
            tol=tol,
            output_path=output_path,
            scc_word_bound=scc,
        )

    def echo(self) -> dict:
        return {
            "surface": {
                "genus": self.surface.genus,
                "boundary_components": self.surface.boundary_components,
                "punctures": self.surface.punctures,
            },
            "task": self.task,
            "words": {name: str(w) for name, w in sorted(self.words.items())},
            "seeds": list(self.seeds),
            "spread": round9(self.spread),
            "n_range": list(self.n_range),
            "tol": round9(self.tol),
            "scc_word_bound": self.scc_word_bound,
        }


class Report(Record):
    __slots__ = ("config", "task", "payload", "versions", "wall_time_s")

    def __init__(self, config: dict, task: str, payload: dict, versions: dict, wall_time_s: float = 0.0):
        self.config = config
        self.task = task
        self.payload = payload
        self.versions = versions
        self.wall_time_s = wall_time_s  # informational; never serialized

    def to_json_obj(self) -> dict:
        return {
            "config": self.config,
            "task": self.task,
            "versions": self.versions,
            "payload": self.payload,
        }


def _need(config: RunConfig, *names: str) -> list:
    out = []
    for group in names:
        for name in group.split("|"):
            if name in config.words:
                out.append(config.words[name])
                break
        else:
            raise ConfigError("task %r needs word %r in the config words map" % (config.task, group))
    return out


def _reps(config: RunConfig):
    from .fuchsian import sample_representation

    return [sample_representation(config.surface, seed, spread=config.spread) for seed in config.seeds]


def _serialize_sum(s):
    return [[key, coeff] for key, coeff in s.serialize()]


def _task_trace_id(config: RunConfig) -> dict:
    from .trace_poly import trace_identity

    lo, hi = config.n_range
    holds, left, right = trace_identity(lo, hi)
    rows = [{"n": n, "holds": h} for n, h in zip(range(lo, hi + 1), holds)]
    polys = {"left_n%d" % hi: str(left), "right_n%d" % hi: str(right)}
    return {"rows": rows, "all_hold": all(r["holds"] for r in rows), "sample_polynomials": polys}


def _task_sample_reps(config: RunConfig) -> dict:
    entries = []
    for rep in _reps(config):
        info = rep.summary()
        info["matrices"] = [[round9(v) for v in row] for row in info["matrices"]]
        info["spread"] = round9(info["spread"])
        info["certified"] = rep.certificate is not None
        if rep.certificate is not None:
            info["k_scale"] = round9(rep.certificate.k_scale)
        entries.append(info)
    return {"representations": entries}


def _per_seed(reps, body: dict) -> list:
    """One report entry per seed, each holding the same exact body.

    Exact answers read only the cyclic order of the ping-pong arcs, which
    the certificate fixes per layout: every certified seed of a surface
    gives the same order, so an answer computed once holds for every seed.
    Every seed is still sampled, so one that fails certification fails the
    run."""
    return [dict(seed=rep.seed, **body) for rep in reps]


def _task_bracket(config: RunConfig) -> dict:
    from .bracket import bracket
    from .intersections import cyclic_order

    alpha, beta = _need(config, "alpha", "beta")
    reps = _reps(config)
    s = bracket(alpha, beta, cyclic_order(reps[0]))
    body = {"terms": _serialize_sum(s), "term_count": len(s.terms), "is_zero": s.is_zero()}
    return {"alpha": str(alpha), "beta": str(beta), "per_seed": _per_seed(reps, body)}


def _task_bracket_self(config: RunConfig) -> dict:
    from .bracket import FormalSum, bracket_self_terms
    from .intersections import cyclic_order

    (alpha,) = _need(config, "alpha")
    reps = _reps(config)
    terms = bracket_self_terms(alpha, cyclic_order(reps[0]))
    folded = FormalSum.fold(terms)
    body = {
        "pre_cancellation": [[cw.key, sign] for cw, sign in terms],
        "folded": _serialize_sum(folded),
        "is_zero": folded.is_zero(),
    }
    return {"alpha": str(alpha), "per_seed": _per_seed(reps, body)}


def _first_self_record(alpha: Word, rep):
    """alpha's self-intersection record with the least witness, and the
    number of records."""
    from .intersections import cyclic_order, exact_intersections

    records = exact_intersections(alpha, alpha, cyclic_order(rep))
    if not records:
        raise DegenerateInputError("word %r has no self-intersections" % str(alpha))
    return records[0], len(records)


def _task_pairs(config: RunConfig) -> dict:
    from .pipeline import find_min_N

    (alpha,) = _need(config, "alpha")
    reps = _reps(config)
    record, count = _first_self_record(alpha, reps[0])
    n_observed, table = find_min_N(alpha, record.witness, config.n_range[1])
    body = {
        "self_intersection_count": count,
        "witness": str(record.witness),
        "n_observed": n_observed,
        "table": [
            {"n": n, "nonconjugate": nc, "not_conjugate_to_inverse": ni}
            for n, nc, ni in table
        ],
    }
    return {"alpha": str(alpha), "per_seed": _per_seed(reps, body)}


def _verify_pairs(config: RunConfig, rep):
    """(witness, one pair per n in n_range): the self pair from alpha's
    first witness, or the general pair when beta, g and h are all named in
    the config."""
    from .pipeline import build_pair_self, general_family

    (alpha,) = _need(config, "alpha")
    lo, hi = config.n_range
    names = config.words
    if {"beta", "g", "h"} <= set(names):
        beta, g, h = names["beta"], names["g"], names["h"]
        family = general_family(alpha, beta, g, h)
        return str(g), [family(n) for n in range(lo, hi + 1)]
    g = _first_self_record(alpha, rep)[0].witness
    return str(g), [build_pair_self(alpha, g, n) for n in range(lo, hi + 1)]


def _task_verify(config: RunConfig) -> dict:
    from .pipeline import check_equal_length_symbolic, check_nonconjugate, is_filling
    from .sl2 import word_translation_lengths
    from .trace_poly import trace_identity

    reps = _reps(config)
    witness, pairs = _verify_pairs(config, reps[0])
    # the exact columns depend on n alone; only the lengths are per seed
    columns, symbolic = [], []
    identity_holds, _, _ = trace_identity(*config.n_range)
    for pair, holds in zip(pairs, identity_holds):
        if config.scc_word_bound is not None:
            fill_l = is_filling(pair.left, reps[0], config.scc_word_bound)[0]
            fill_r = is_filling(pair.right, reps[0], config.scc_word_bound)[0]
        else:
            fill_l = fill_r = "skipped"
        columns.append({
            "nonconjugate": all(check_nonconjugate(pair)),
            "filling_left": fill_l,
            "filling_right": fill_r,
        })
        symbolic.append(check_equal_length_symbolic(pair) and holds)
    rows = []
    max_dev_overall = 0.0
    for rep in reps:
        # consecutive members share all but a few letters: alpha^n is a
        # prefix of alpha^(n+1), and so on
        taus_l = word_translation_lengths([pair.left for pair in pairs], rep)
        taus_r = word_translation_lengths([pair.right for pair in pairs], rep)
        for pair, cols, tau_l, tau_r in zip(pairs, columns, taus_l, taus_r):
            rel = abs(tau_l - tau_r) / max(tau_l, tau_r)
            max_dev_overall = max(max_dev_overall, rel)
            rows.append(dict(
                seed=rep.seed, n=pair.n, tau_left=round9(tau_l), tau_right=round9(tau_r),
                rel_dev=round9(rel), **cols,
            ))
    all_equal = max_dev_overall <= config.tol
    symbolic_ok = all(symbolic)
    return {
        "witness": witness,
        "rows": rows,
        "equal_length_all": all_equal,
        "symbolic_ok": symbolic_ok,
        "max_rel_dev": round9(max_dev_overall),
        "ok": all_equal and symbolic_ok,
    }


def _task_filling(config: RunConfig) -> dict:
    from .pipeline import is_filling

    (w,) = _need(config, "w|alpha")
    bound = config.scc_word_bound if config.scc_word_bound is not None else 4
    reps = _reps(config)
    verdict, witnesses, table = is_filling(w, reps[0], bound)
    body = {"verdict": verdict, "witnesses": [str(z) for z in witnesses], "candidates": table}
    return {"word": str(w), "scc_word_bound": bound, "per_seed": _per_seed(reps, body)}


_DISPATCH = {
    "trace-id": _task_trace_id,
    "sample-reps": _task_sample_reps,
    "bracket": _task_bracket,
    "bracket-self": _task_bracket_self,
    "pairs": _task_pairs,
    "verify": _task_verify,
    "filling": _task_filling,
}


def run(config: RunConfig) -> Report:
    started = time.perf_counter()
    _check_trace_bound(config.task, config.n_range)  # the task may be set after from_dict
    payload = _DISPATCH[config.task](config)
    report = Report(
        config=config.echo(),
        task=config.task,
        payload=payload,
        versions={"lenequiv": __version__},
        wall_time_s=time.perf_counter() - started,
    )
    return report


def _csv_rows(report: Report):
    task = report.task
    p = report.payload
    if task == "verify":
        return _CSV_VERIFY_COLUMNS, [
            [row[c] for c in _CSV_VERIFY_COLUMNS] for row in p["rows"]
        ]
    if task == "trace-id":
        return ("n", "holds"), [[r["n"], r["holds"]] for r in p["rows"]]
    if task == "pairs":
        cols = ("seed", "n", "nonconjugate", "not_conjugate_to_inverse")
        rows = []
        for entry in p["per_seed"]:
            for r in entry["table"]:
                rows.append([entry["seed"], r["n"], r["nonconjugate"], r["not_conjugate_to_inverse"]])
        return cols, rows
    if task == "filling":
        cols = ("seed", "class", "peripheral", "count")
        rows = []
        for entry in p["per_seed"]:
            for r in entry["candidates"]:
                rows.append([entry["seed"], r["class"], r["peripheral"], r["count"]])
        return cols, rows
    if task in ("bracket", "bracket-self"):
        cols = ("seed", "term", "coefficient")
        rows = []
        for entry in p["per_seed"]:
            terms = entry["terms"] if task == "bracket" else entry["folded"]
            if not terms:
                rows.append([entry["seed"], "", 0])
            for key, coeff in terms:
                rows.append([entry["seed"], key, coeff])
        return cols, rows
    if task == "sample-reps":
        cols = ("seed", "generator", "a", "b", "c", "d")
        rows = []
        for info in p["representations"]:
            for gi, m in enumerate(info["matrices"], start=1):
                rows.append([info["seed"], gi] + list(m))
        return cols, rows
    raise ConfigError("no csv form for task %r" % task)


def _text_lines(report: Report):
    lines = []
    cfg = report.config
    lines.append("lenequiv %s  task=%s" % (report.versions["lenequiv"], report.task))
    lines.append(
        "surface genus=%d boundary=%d punctures=%d  seeds=%s spread=%s"
        % (
            cfg["surface"]["genus"],
            cfg["surface"]["boundary_components"],
            cfg["surface"]["punctures"],
            ",".join(str(s) for s in cfg["seeds"]),
            cfg["spread"],
        )
    )
    if cfg["words"]:
        lines.append("words: " + "  ".join("%s=%s" % kv for kv in cfg["words"].items()))
    p = report.payload
    task = report.task
    if task == "trace-id":
        for r in p["rows"]:
            lines.append("n=%-3d identity holds: %s" % (r["n"], r["holds"]))
        lines.append("all hold: %s" % p["all_hold"])
    elif task == "pairs":
        for entry in p["per_seed"]:
            lines.append(
                "seed %d: witness g=%s, self-intersections=%d, N_observed=%s"
                % (entry["seed"], entry["witness"], entry["self_intersection_count"],
                   entry["n_observed"])
            )
            for r in entry["table"]:
                lines.append(
                    "  n=%-3d nonconjugate=%s not_conjugate_to_inverse=%s"
                    % (r["n"], r["nonconjugate"], r["not_conjugate_to_inverse"])
                )
    elif task == "verify":
        lines.append("witness: %s" % p["witness"])
        for r in p["rows"]:
            lines.append(
                "seed %d n=%-3d tau_left=%.9g tau_right=%.9g rel_dev=%.3g nonconj=%s fill=%s/%s"
                % (r["seed"], r["n"], r["tau_left"], r["tau_right"], r["rel_dev"],
                   r["nonconjugate"], r["filling_left"], r["filling_right"])
            )
        lines.append(
            "equal_length_all=%s symbolic_ok=%s max_rel_dev=%.3g"
            % (p["equal_length_all"], p["symbolic_ok"], p["max_rel_dev"])
        )
    elif task == "filling":
        lines.append("word: %s  scc_word_bound=%d" % (p["word"], p["scc_word_bound"]))
        for entry in p["per_seed"]:
            lines.append("seed %d: verdict=%s witnesses=%s"
                         % (entry["seed"], entry["verdict"], ",".join(entry["witnesses"]) or "-"))
            for r in entry["candidates"]:
                lines.append("  z=%-8s peripheral=%-5s i(z,w)=%d"
                             % (r["class"], r["peripheral"], r["count"]))
    elif task in ("bracket", "bracket-self"):
        for entry in p["per_seed"]:
            terms = entry["terms"] if task == "bracket" else entry["folded"]
            body = " ".join("%+d*<%s>" % (coeff, key) for key, coeff in terms) or "0"
            lines.append("seed %d: %s" % (entry["seed"], body))
            if task == "bracket-self":
                lines.append("  pre-cancellation terms: %d" % len(entry["pre_cancellation"]))
    elif task == "sample-reps":
        for info in p["representations"]:
            lines.append("seed %d: certified=%s k_scale=%s"
                         % (info["seed"], info["certified"], info.get("k_scale", "-")))
            for gi, m in enumerate(info["matrices"], start=1):
                lines.append("  gen %d: [[%.9g, %.9g], [%.9g, %.9g]]" % (gi, *m))
    return lines


def emit(report: Report, fmt: str = "json") -> bytes:
    if fmt == "json":
        text = json.dumps(report.to_json_obj(), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        import csv  # only here: most runs never load it

        cols, rows = _csv_rows(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(row)
        return buf.getvalue().encode("utf-8")
    if fmt == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise ConfigError("unknown format %r (expected json, csv or text)" % fmt)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc
    return RunConfig.from_dict(data)
