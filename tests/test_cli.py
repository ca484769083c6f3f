import copy
import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submodlab
from submodlab import cli
from submodlab.cli import _build_parser, main
from submodlab.matroids import (random_graphic_matroid,
                                random_partition_matroid)
from submodlab.oracles import (BUDGET, random_coverage, random_cut,
                               random_modular, random_perturbed)
from submodlab.serialization import (canonical_json, from_doc, load,
                                     load_bundle, load_doc, save, to_doc)
from submodlab.verify import (AUDITS, PROBLEMS, audit_problem4,
                              audit_problem5, document_ratios,
                              problem_bundle, run_audit)

from helpers import DummyGreedyProcess, dag_walk, wrong_length_lists

GAMMA_CAP = BUDGET["gamma"].limit

def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


def test_gen_coverage_roundtrips(tmp_path):
    out = tmp_path / "cov.json"
    assert run(tmp_path, "gen", "--family", "coverage", "--n", "10",
               "--seed", "7", "--out", str(out)) == 0
    doc = load_doc(out)
    f = from_doc(doc)
    g = from_doc(load_doc(out))
    assert np.array_equal(f.table(), g.table())
    assert doc["measured"]["m"] == 1.0 and doc["measured"]["gamma"] == 1.0


def test_gen_perturbed_records_gamma_below_one(tmp_path):
    out = tmp_path / "pert.json"
    assert run(tmp_path, "gen", "--family", "perturbed", "--n", "8",
               "--delta", "0.2", "--seed", "3", "--out", str(out)) == 0
    doc = load_doc(out)
    assert doc["measured"]["gamma"] < 1.0


def test_gen_quadratic_dr_passes_prechecks(tmp_path):
    out = tmp_path / "quad.json"
    assert run(tmp_path, "gen", "--family", "quadratic-dr", "--n", "3",
               "--monotone", "--seed", "5", "--out", str(out)) == 0
    doc = load_doc(out)
    f = from_doc(doc)
    assert f.monotone and f.dr and list(doc["measured"]) == ["gamma"]


@pytest.mark.parametrize("k", list(PROBLEMS))
def test_gen_problem_records_its_measure(tmp_path, k):
    argv = ["gen", "--family", f"problem{k}", "--n", "5", "--seed", "3"]
    out = tmp_path / "inst.json"
    assert run(tmp_path, *argv, "--out", str(out)) == 0
    flags = cli._flags(_build_parser().parse_args(argv))
    built = PROBLEMS[k].build(flags)
    assert load_doc(out)["measured"] == (
        document_ratios(built["objective"], 3) if k != 1 else {})
    # the built components are the ones the entry declares
    declared = PROBLEMS[k].components
    assert list(built) == list(declared)
    assert all(isinstance(built[name], cls) for name, cls in declared.items())


@pytest.mark.parametrize("problem, name, cls", [
    (2, "system", "PSystem"),
    (4, "objective", "SetFunctionOracle"),
    (5, "matroid2", "Matroid"),
])
def test_bundle_component_of_the_wrong_class_exits_one(tmp_path, capsys,
                                                       problem, name, cls):
    inst = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "5",
               "--seed", "1", "--out", str(inst)) == 0
    doc = load_doc(inst)
    components = doc["components"]
    if problem == 2:  # a single matroid where a p-system belongs
        components["system"] = components["system"]["matroids"][0]
    elif problem == 4:  # a matroid where the objective belongs
        components["objective"] = {"schema": "submodlab/1", "kind": "matroid",
                                   "family": "uniform", "n": 5, "k": 2}
    else:
        del components[name]
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", str(problem),
               "--instance", str(inst)) == 1
    assert capsys.readouterr().err == \
        f"error: bundle component {name!r} must be a {cls}\n"


def test_nested_p_system_exits_one(tmp_path, capsys):
    # a p-system document among a p-system's matroids was rebuilt as one
    # matroid: p = 1's pass count, recorded as params.p = 1
    inst = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", "problem2", "--n", "6", "--p",
               "3", "--seed", "1", "--out", str(inst)) == 0
    doc = load_doc(inst)
    system = doc["components"]["system"]
    doc["components"]["system"] = dict(system, matroids=[system])
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "2",
               "--instance", str(inst)) == 1
    assert capsys.readouterr().err == \
        "error: p-system members must be matroids, not 'PSystem'\n"
    assert not (tmp_path / "traces").exists()
    assert not list(tmp_path.glob("run-*.csv"))


def _perturbed_doc(base: dict) -> dict:
    """A perturbed objective with monotone noise over the document ``base``."""
    return {"schema": "submodlab/1", "kind": "set-function",
            "family": "synthetic-perturbed", "base": base, "delta": 0.01,
            "seed": 36, "monotone_noise": True}


_NOT_COVERAGE = {
    "cut": lambda inst: to_doc(random_cut(6, 36)),
    "modular": lambda inst: to_doc(random_modular(6, 36)),
    "matroid": lambda inst: to_doc(random_partition_matroid(6, 36)),
    "bundle": load_doc,
}


@pytest.mark.parametrize("problem", [2, 4])
@pytest.mark.parametrize("base", list(_NOT_COVERAGE))
def test_perturbed_objective_over_a_non_coverage_base_exits_one(
        tmp_path, capsys, problem, base):
    # monotone noise certified a cut base monotone, and problem 2's run went
    # on to a proved violation; a matroid or bundle base raised
    # AttributeError
    inst = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "6",
               "--seed", "36", "--out", str(inst)) == 0
    doc = load_doc(inst)
    doc["components"]["objective"] = _perturbed_doc(_NOT_COVERAGE[base](inst))
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", str(problem),
               "--instance", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("unknown document kind 'bundle'" if base == "bundle" else
            "perturbed base must be a coverage oracle") in err
    assert not (tmp_path / "traces").exists()


def test_perturbed_cut_objective_no_longer_verifies_as_violated(tmp_path,
                                                                capsys):
    # gen -> run on the coverage bundle, then the objective swapped for a
    # perturbed cut: verify read it as certified monotone and exited 2
    inst = tmp_path / "p2.json"
    assert run(tmp_path, "gen", "--family", "problem2", "--n", "6", "--p",
               "2", "--seed", "36", "--out", str(inst)) == 0
    assert run(tmp_path, "run", "--problem", "2", "--epsilon", "0.25",
               "--instance", str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    doc = load_doc(inst)
    doc["components"]["objective"] = _perturbed_doc(to_doc(random_cut(6, 36)))
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 1
    assert capsys.readouterr().err == \
        "error: perturbed base must be a coverage oracle, not 'CutOracle'\n"


def test_run_problem2_logs_two_passes(tmp_path, capsys):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "8", "--p", "1",
        "--seed", "11", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "2", "--instance", str(inst),
               "--epsilon", "0.25") == 0
    summary = next(tmp_path.glob("run-*.csv")).read_text()
    assert '""rounds"": 2' in summary and "multipass-greedy" in summary


def test_run_problem2_reads_the_bundle_epsilon(tmp_path):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "7", "--seed", "3",
        "--out", str(inst))
    doc = load_doc(inst)
    trace = tmp_path / "traces" / "p2-p2-t0.json"
    # no meta.epsilon: the 0.1 default, the audits'; an explicit --epsilon
    # wins
    for epsilon, flags, want in ((None, [], 0.1), (0.4, [], 0.4),
                                 (0.4, ["--epsilon", "0.25"], 0.25)):
        if epsilon is not None:
            doc["meta"]["epsilon"] = epsilon
            inst.write_text(json.dumps(doc))
        assert run(tmp_path, "run", "--problem", "2", "--instance",
                   str(inst), *flags) == 0
        assert load(trace).params["epsilon"] == want


@pytest.mark.parametrize("value", ["0.4", True, float("nan")])
def test_malformed_bundle_epsilon_exits_one(tmp_path, capsys, value):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "5", "--seed", "3",
        "--out", str(inst))
    doc = load_doc(inst)
    doc["meta"]["epsilon"] = value
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "2",
               "--instance", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.epsilon" in err


def test_run_problem5_empty_when_no_common_singleton(tmp_path):
    doc = {
        "schema": "submodlab/1", "kind": "bundle", "problem": 5,
        "components": {
            "objective": {"schema": "submodlab/1", "kind": "set-function",
                          "family": "modular", "weights": [1.0, 1.0, 1.0]},
            "matroid1": {"schema": "submodlab/1", "kind": "matroid",
                         "family": "uniform", "n": 3, "k": 0},
            "matroid2": {"schema": "submodlab/1", "kind": "matroid",
                         "family": "uniform", "n": 3, "k": 3},
        },
        "measured": {}, "meta": {},
    }
    inst = tmp_path / "p5.json"
    inst.write_text(json.dumps(doc))
    assert run(tmp_path, "run", "--problem", "5", "--instance", str(inst)) == 0
    summary = next(tmp_path.glob("run-*.csv")).read_text()
    assert "[]" in summary


def test_run_problem4_summaries_byte_identical(tmp_path):
    inst = tmp_path / "p4.json"
    run(tmp_path, "gen", "--family", "problem4", "--n", "6", "--seed", "9",
        "--k", "2", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "4", "--instance", str(inst),
               "--trials", "50", "--seed", "1") == 0
    first = next(tmp_path.glob("run-*.csv")).read_bytes()
    assert run(tmp_path, "run", "--problem", "4", "--instance", str(inst),
               "--trials", "50", "--seed", "1") == 0
    assert next(tmp_path.glob("run-*.csv")).read_bytes() == first


def test_verify_problem3_holds(tmp_path):
    inst = tmp_path / "p3.json"
    run(tmp_path, "gen", "--family", "problem3", "--n", "4", "--seed", "4",
        "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "3", "--instance", str(inst),
               "--iterations", "200") == 0
    trace = next((tmp_path / "traces").glob("*.json"))
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace)) == 0
    report = next(tmp_path.glob("verify-*.csv")).read_text()
    assert "holds" in report and "proved" in report


def _forged_problem3_trace(tmp_path, seed, **changes):
    """gen -> run for a problem-3 instance at n = 3, then the trace with its
    meta.value set to 1e6 and the given fields replaced; returns the
    instance path, the forged trace path and the run's own value."""
    inst = tmp_path / "p3.json"
    run(tmp_path, "gen", "--family", "problem3", "--n", "3", "--seed",
        str(seed), "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "3", "--instance",
               str(inst)) == 0
    doc = load_doc(next((tmp_path / "traces").glob("*.json")))
    value = doc["meta"]["value"]
    doc["meta"]["value"] = 1e6
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc | changes))
    return inst, forged, value


def test_verify_final_outside_the_cube_exits_one(tmp_path, capsys):
    inst, trace, _ = _forged_problem3_trace(tmp_path, 4, final=[5, 5, 5])
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace)) == 1
    assert "outside the unit cube" in capsys.readouterr().err


def test_verify_nan_final_point_exits_one(tmp_path, capsys):
    # a NaN coordinate failed neither cube comparison, and the trace
    # verified as violated with exit 2
    inst, trace, _ = _forged_problem3_trace(tmp_path, 4,
                                            final=[float("nan"), 0.1, 0.1])
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err == "error: point lies outside the unit cube\n"


@pytest.mark.parametrize("element", [lambda u: u + 0.5, str],
                         ids=["float", "string"])
def test_verify_non_integer_elements_exit_one(tmp_path, capsys, element):
    # elements 0.5, 1.5, ... were truncated and "0", "1", ... parsed, so
    # such a trace verified as holds
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "6", "--p", "2",
        "--seed", "1", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "2", "--instance",
               str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    doc = load_doc(trace)
    assert doc["final"]
    doc["final"] = [element(u) for u in doc["final"]]
    doc["meta"]["independent_sets"] = [
        [element(u) for u in part] for part in doc["meta"]["independent_sets"]]
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: elements must be integers, not ")
    assert err.count("\n") == 1


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


@pytest.mark.parametrize("problem, stem", [(1, "problem1-n3-s2"),
                                           (3, "problem3-n3-s4")])
@pytest.mark.parametrize("entry", [str, bool], ids=["string", "bool"])
def test_verify_non_number_final_point_exits_one(tmp_path, capsys, problem,
                                                 stem, entry):
    # such coordinates were parsed, so the trace verified as holds
    doc = load_doc(GOLDEN_CLI / "traces" / f"{stem}-p{problem}-t0.json")
    doc["final"] = [entry(x) for x in doc["final"]]
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", str(problem), "--instance",
               str(GOLDEN_CLI / "instances" / f"{stem}.json"),
               "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: points: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("verify-*.csv"))


@pytest.mark.parametrize("parts, message", [
    (5, "5 is not a list of element lists"),
    ([5], "5 is not an element list"),
    ("015", "'015' is not a list of element lists"),
], ids=["number", "number-part", "string"])
def test_verify_malformed_independent_sets_exit_one(tmp_path, capsys, parts,
                                                    message):
    # 5 and [5] ended verify with a TypeError traceback
    doc = load_doc(GOLDEN_CLI / "traces" / "problem2-n7-s11-p2-t0.json")
    doc["meta"]["independent_sets"] = parts
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance",
               str(GOLDEN_CLI / "instances" / "problem2-n7-s11.json"),
               "--trace", str(trace)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("verify-*.csv"))


@pytest.mark.parametrize("stem, path, value, message", [
    ("modular-n5-s1", ("weights",), ["0.5", True],
     "weights: '0.5' is not a number"),
    ("cut-n5-s3", ("edges", 0, 2), "0.7",
     "edge weights: '0.7' is not a number"),
    ("cut-n5-s3", ("edges", 0, 2), True, "edge weights: True is not a number"),
    ("perturbed-n6-s4", ("delta",), True,
     "noise amplitudes: True is not a number"),
    ("perturbed-n6-s4", ("monotone_noise",), "no",
     "monotone_noise: 'no' is not a bool"),
    ("sqrt-linear-n3-s7", ("shift",), True, "shift: True is not a number"),
    ("coverage-n6-s2", ("universe_weights", 0), "0.5",
     "universe weights: '0.5' is not a number"),
], ids=["modular-weights", "cut-weight-string", "cut-weight-bool",
        "perturbed-delta", "perturbed-monotone-noise", "sqrt-linear-shift",
        "coverage-universe-weight"])
def test_non_number_document_value_exits_one(tmp_path, capsys, stem, path,
                                             value, message):
    # each loaded: weights ["0.5", true] as [0.5, 1.0], a cut weight "0.7"
    # as 0.7, delta and shift true as 1.0, monotone_noise "no" as true, a
    # universe weight "0.5" as 0.5
    doc = load_doc(GOLDEN_CLI / "instances" / f"{stem}.json")
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    target[last] = value
    if doc["kind"] == "set-function":  # problem 4 reads a bare objective
        problem = 4
    else:
        problem = 3
        bundle = load_doc(GOLDEN_CLI / "instances" / "problem3-n3-s4.json")
        bundle["components"]["objective"] = doc
        doc = bundle
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", str(problem), "--instance",
               str(inst)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("run-*.csv"))


def test_bundle_lists_of_the_wrong_length_run_or_exit_one(tmp_path, capsys):
    # every list of every problem bundle one entry short or long: run
    # exits 0 with nothing on stderr or 1 with one error line, never a
    # traceback; a ragged interaction matrix is named as such (its short
    # row was reported as "a: [...] is not a number")
    bad, mutants = [], 0
    for path in sorted(GOLDEN_CLI.glob("instances/problem*.json")):
        bundle = load_doc(path)
        for label, doc in wrong_length_lists(bundle):
            mutants += 1
            inst = tmp_path / path.name
            inst.write_text(json.dumps(doc))
            capsys.readouterr()
            try:
                code = run(tmp_path / "out", "run", "--problem",
                           str(bundle["problem"]), "--instance", str(inst))
            except Exception as exc:
                code = repr(exc)
            err = capsys.readouterr().err
            if "/a/" in label:  # a row of an interaction matrix
                ok = (code, err) == (1, "error: a must be a rectangular "
                                        "array of numbers\n")
            else:
                ok = (code, err) == (0, "") or code == 1 and err.startswith(
                    "error: ") and err.count("\n") == 1
            if not ok:
                bad.append(f"{path.name} {label}: exit {code}, {err!r}")
    assert mutants == 124
    assert bad == []


@pytest.mark.parametrize("problem", [2, 4, 5])
def test_unread_bundle_numbers_leave_run_and_verify_unchanged(tmp_path,
                                                             problem):
    # meta.p and the measured ratios of problems 2, 4 and 5 are a record of
    # gen: run and verify read none of them, so editing each one leaves
    # both CSVs byte for byte
    stem = f"problem{problem}-n6-s1"

    def csvs(doc, out):
        inst = out / "instances" / f"{stem}.json"
        inst.parent.mkdir(parents=True)
        inst.write_text(json.dumps(doc))
        trace = out / "traces" / f"{stem}-p{problem}-t0.json"
        assert run(out, "run", "--problem", str(problem),
                   "--instance", str(inst)) == 0
        assert run(out, "verify", "--problem", str(problem), "--instance",
                   str(inst), *(["--trace", str(trace)] if problem == 2
                                else [])) == 0
        return [(out / f"{command}-{stem}-p{problem}.csv").read_bytes()
                for command in ("run", "verify")]

    gen = tmp_path / "gen.json"
    assert run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "6",
               "--seed", "1", "--out", str(gen)) == 0
    base = load_doc(gen)
    want = csvs(base, tmp_path / "base")
    for field, key, value in (
            ("meta", "p", 5), ("measured", "m", 0.5),
            ("measured", "nonmonotone_caveat",
             not base["measured"]["nonmonotone_caveat"]),
            ("measured", "gamma", 0.25)):
        doc = copy.deepcopy(base)
        doc[field][key] = value
        assert csvs(doc, tmp_path / f"{field}.{key}") == want, f"{field}.{key}"


@pytest.mark.parametrize("problem", [True, 1.0, "1", None])
def test_bundle_problem_must_be_an_integer(tmp_path, capsys, problem):
    # compared with !=, "problem": true ran as problem 1 and wrote a trace
    bundle = load_doc(GOLDEN_CLI / "instances" / "problem1-n3-s2.json")
    bundle["problem"] = problem
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert run(tmp_path / "out", "run", "--problem", "1",
               "--instance", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bundle problem numbers must be integers")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_missing_document_field_is_named(tmp_path, capsys):
    # a bare KeyError repr, "error: 'universe_weights'", named nothing else
    bundle = load_doc(GOLDEN_CLI / "instances" / "problem2-n7-s11.json")
    del bundle["components"]["objective"]["universe_weights"]
    inst = tmp_path / "p2.json"
    inst.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "2", "--instance",
               str(inst)) == 1
    assert capsys.readouterr().err == (
        "error: malformed 'set-function' / 'coverage' document: "
        "missing field 'universe_weights'\n")


@pytest.mark.parametrize("resolution", ["inf", "nan"])
def test_verify_non_finite_resolution_exits_one(tmp_path, capsys,
                                                resolution):
    # before, inf printed a numpy warning and a false "contains no grid
    # point", and nan failed to convert to an integer
    inst, trace, _ = _forged_problem3_trace(tmp_path, 4)
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace), "--resolution", resolution) == 1
    err = capsys.readouterr().err
    assert err == "error: resolution must be a positive finite number\n"


def test_verify_grid_past_the_cell_cap_exits_three(tmp_path, capsys):
    # resolution 1e-9 built a 10^9-point axis, about 8 GB, and a
    # MemoryError escaped main
    inst, trace, _ = _forged_problem3_trace(tmp_path, 4)
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace), "--resolution", "1e-9") == 3
    err = capsys.readouterr().err
    assert err == "capability limit: grid optimum needs at most " \
                  "45435424 cells\n"
    assert not list(tmp_path.glob("verify-*.csv"))


def test_verify_measures_the_final_point_not_the_claimed_value(tmp_path,
                                                               capsys):
    inst, trace, value = _forged_problem3_trace(tmp_path, 4)
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace)) == 0
    assert f"measured={value!r}" in capsys.readouterr().out
    row = next(tmp_path.glob("verify-*.csv")).read_text().splitlines()[1]
    assert row.split(",")[4] == repr(value)


def test_verify_final_outside_the_polytope_is_violated(tmp_path):
    # seed 2 draws the cardinality polytope sum x <= 1; the top vertex is in
    # the cube but not in the polytope
    inst, trace, _ = _forged_problem3_trace(tmp_path, 2, final=[1.0] * 3)
    assert run(tmp_path, "verify", "--problem", "3", "--instance", str(inst),
               "--trace", str(trace)) == 2
    row = next(tmp_path.glob("verify-*.csv")).read_text().splitlines()[1]
    assert row.endswith(",violated")


def test_verify_problem1_holds(tmp_path):
    inst = tmp_path / "p1.json"
    run(tmp_path, "gen", "--family", "problem1", "--n", "3", "--seed", "2",
        "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "1", "--instance", str(inst),
               "--epsilon", "0.02") == 0
    trace = next((tmp_path / "traces").glob("*p1*.json"))
    assert run(tmp_path, "verify", "--problem", "1", "--instance", str(inst),
               "--trace", str(trace)) == 0
    report = next(tmp_path.glob("verify-*-p1.csv")).read_text()
    assert "holds" in report


def test_verify_problem5_exit_zero_regardless(tmp_path):
    inst = tmp_path / "p5.json"
    run(tmp_path, "gen", "--family", "problem5", "--n", "6", "--seed", "6",
        "--out", str(inst))
    assert run(tmp_path, "verify", "--problem", "5",
               "--instance", str(inst)) == 0
    report = next(tmp_path.glob("verify-*-p5.csv")).read_text()
    assert "claimed-flawed" in report


def test_verify_proved_violation_exits_two(tmp_path):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "8", "--p", "1",
        "--seed", "12", "--out", str(inst))
    # hand-crafted trace claiming a far-too-small value
    fake = {
        "schema": "submodlab/1", "kind": "trace",
        "algorithm": "multipass-greedy",
        "params": {"epsilon": 0.25, "p": 1}, "seed": None,
        "iterations": [], "final": [],
        "meta": {"rounds": 2, "value": 0.0, "independent_sets": [],
                 "certificate_ok": True},
    }
    trace = tmp_path / "fake-trace.json"
    trace.write_text(json.dumps(fake))
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 2


@pytest.mark.parametrize("bound, flags, header", [
    ("problem2-authors-conjecture", ["--p", "2", "--seed", "3"],
     "instance,p,epsilon,opt,rounds_conjecture"),
    ("problem2-authors-conjecture", ["--p", "3", "--n", "10"],
     "instance,p,epsilon,opt,rounds_conjecture"),
    ("problem2-bicriteria", ["--p", "3", "--n", "10"],
     "instance,measured,opt,threshold,ratio,verdict"),
], ids=["conjecture-p2", "conjecture-p3-n10", "bicriteria-p3-n10"])
def test_audit_problem2_table(tmp_path, capsys, bound, flags, header):
    # exit 0 whatever the rows say, unless a proved bound (the bicriteria
    # one, whose broken certificate would read violated) exits 2
    assert run(tmp_path, "audit", "--bound", bound, *flags,
               "--trials", "5") == 0
    table = next(tmp_path.glob(f"audit-{bound}-*.csv"))
    lines = table.read_text().splitlines()
    assert lines[0].startswith(header)
    assert len(lines) == 6


def test_audit_conjecture_violations_are_replay_documents(tmp_path, capsys):
    # the authors' conjecture fails twice at eps = 0.4, p = 2; a conjecture
    # never flips the exit code
    assert run(tmp_path, "audit", "--bound", "problem2-authors-conjecture",
               "--p", "2", "--epsilon", "0.4", "--trials", "100",
               "--seed", "0") == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["violations"] == 2
    docs = sorted((tmp_path / "violations").glob("*.json"))
    assert [p.name for p in docs] == [
        "problem2-authors-conjecture-p2-s0-v0.json",
        "problem2-authors-conjecture-p2-s0-v1.json"]
    assert [load_doc(p)["meta"]["seed"] for p in docs] == [22, 81]
    table = tmp_path / "audit-problem2-authors-conjecture-p2-s0.csv"
    short = [line.split(",")[0] for line in table.read_text().splitlines()
             if line.endswith(",False")]
    assert short == ["p2c-s0-t22", "p2c-s0-t81"]
    # each reruns at the audit's epsilon: three passes, not 0.25's four
    for doc in docs:
        assert run(tmp_path, "run", "--problem", "2",
                   "--instance", str(doc)) == 0
        trace = load(tmp_path / "traces" / f"{doc.stem}-p2-t0.json")
        assert trace.params["epsilon"] == 0.4 and trace.meta["rounds"] == 3


def test_audit_problem4_min_ratio_summary(tmp_path, capsys):
    assert run(tmp_path, "audit", "--bound", "problem4-claimed",
               "--trials", "6", "--seed", "1", "--n", "5", "--k", "2") == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[0])
    assert summary["instances"] == 6
    assert "min_ratio" in summary


def test_audit_zero_trials_empty_report(tmp_path, capsys):
    assert run(tmp_path, "audit", "--bound", "problem4-claimed",
               "--trials", "0", "--seed", "1") == 0
    table = next(tmp_path.glob("audit-problem4-claimed-*.csv"))
    assert len(table.read_text().splitlines()) == 1  # header only


@pytest.mark.parametrize("command", ["run", "audit"])
def test_negative_trials_exit_one(tmp_path, capsys, command):
    # unlike --trials 0, which writes a header-only CSV
    if command == "run":
        inst = tmp_path / "p4.json"
        assert run(tmp_path, "gen", "--family", "problem4", "--n", "5",
                   "--seed", "1", "--out", str(inst)) == 0
        argv = ["run", "--problem", "4", "--instance", str(inst),
                "--trials", "-2"]
    else:
        argv = ["audit", "--bound", "problem4-claimed", "--trials", "-3"]
    capsys.readouterr()
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("bound", list(AUDITS))
def test_audit_empty_ground_set_exits_one(tmp_path, capsys, bound):
    # as for gen: --n 0 is no request for the default size
    assert run(tmp_path, "audit", "--bound", bound, "--n", "0",
               "--trials", "1") == 1
    assert capsys.readouterr().err.startswith("error: ")


# a value for each audit flag, given to the bounds that do not read it, and
# other than every entry's default
FLAG_VALUES = {"n": "4", "p": "3", "epsilon": "0.3", "k": "3"}


@pytest.mark.parametrize("bound", list(AUDITS))
def test_audit_reads_its_entry_and_refuses_unread_flags(tmp_path, capsys,
                                                        bound):
    # no flag but --trials and --seed: the entry's defaults, its stem, its
    # columns and its rows, as run_audit gives them
    entry = AUDITS[bound]
    assert run(tmp_path, "audit", "--bound", bound, "--trials", "2",
               "--seed", "1") == 0
    report = run_audit(bound, 2, 1)
    assert json.loads(capsys.readouterr().out.splitlines()[0]) == \
        report.summary()
    stem = entry.stem.format(bound=bound, seed=1, **entry.flags)
    with (tmp_path / f"audit-{stem}.csv").open(newline="") as handle:
        assert list(csv.reader(handle)) == [entry.columns.split(",")] + [
            [str(v) for v in entry.row(r)] for r in report.rows]
    unread = [name for name in FLAG_VALUES if name not in entry.flags]
    assert unread
    for name in unread:
        out = tmp_path / name
        assert run(out, "audit", "--bound", bound, "--trials", "2",
                   f"--{name}", FLAG_VALUES[name]) == 1
        assert capsys.readouterr().err == \
            f"usage error: audit --bound {bound} reads no --{name}\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=f"takes no {name}$"):
            run_audit(bound, 2, 1,
                      **{name: cli.KINDS[name](FLAG_VALUES[name])})


# a value for every flag of the tables (None for a switch), other than
# every entry's default and the 2 trials audits run at below
ANY_VALUE = FLAG_VALUES | {"seed": "1", "delta": "0.3", "monotone": None,
                           "iterations": "7", "trials": "3",
                           "resolution": "0.3", "trace": "unread.json"}


def _unread_cases():
    """(command, selector, entry, flag) for each flag that a command offers
    and the entry does not read."""
    for command, (_, selector, entries) in cli.ENTRIES.items():
        offered = {name for flags in entries.values() for name in flags}
        for value, flags in entries.items():
            for name in sorted(offered - flags.keys()):
                yield pytest.param(command, selector, value, name,
                                   id=f"{command}-{value}-{name}")


@pytest.mark.parametrize("command, selector, value, name",
                         list(_unread_cases()))
def test_every_command_refuses_a_flag_its_entry_does_not_read(
        tmp_path, capsys, command, selector, value, name):
    # one line and no file, before the instance file (absent here) is read
    argv = [command, f"--{selector}", str(value), f"--{name}"]
    argv += [] if ANY_VALUE[name] is None else [ANY_VALUE[name]]
    if command in ("run", "verify"):
        argv += ["--instance", str(tmp_path / "absent.json")]
    assert run(tmp_path / "out", *argv) == 1
    assert capsys.readouterr().err == \
        f"usage error: {command} --{selector} {value} reads no --{name}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_offered_flag_is_read_by_some_entry():
    # the parser offers exactly the flags the entries read, each of them
    # passes the rule for an entry that reads it, and the settings are the
    # (command, entry, flag) triples the tables list (--out for gen)
    parser = _build_parser()
    commands = next(action.choices for action in parser._actions
                    if action.dest == "command")
    settings = {}
    for command, (_, selector, entries) in cli.ENTRIES.items():
        offered = {action.dest for action in commands[command]._actions
                   if action.option_strings} - {"help", selector, "instance"}
        read = {name for flags in entries.values() for name in flags}
        assert offered - {"out"} == read
        for value, flags in entries.items():
            for name in flags:
                argv = [command, f"--{selector}", str(value), f"--{name}"]
                argv += [] if ANY_VALUE[name] is None else [ANY_VALUE[name]]
                if command in ("run", "verify"):
                    argv += ["--instance", "x.json"]
                cli._refuse_unread(parser.parse_args(argv))
        settings[command] = sum(len(flags) + (command == "gen")
                                for flags in entries.values())
    assert settings == {"gen": 44, "run": 8, "verify": 6, "audit": 17}


@pytest.mark.parametrize("command, selector, value", [
    pytest.param(command, selector, value, id=f"{command}-{value}")
    for command, (_, selector, entries) in cli.ENTRIES.items()
    if command in ("gen", "audit") for value in entries])
def test_every_gen_and_audit_entry_runs_at_its_defaults(tmp_path, command,
                                                        selector, value):
    # problems 1 and 3 exited 3 at gen's n = 6, past their grid-dim cap
    assert run(tmp_path, command, f"--{selector}", str(value)) == 0


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(command, entry, flags) -> the bytes of every file the command
    writes, in sorted order: run and verify on the entry's problem
    instance at gen's defaults, verify with that instance's run trace when
    the entry reads --trace, and audits at 2 trials."""
    root = tmp_path_factory.mktemp("live")
    base = {("audit", bound): ["--trials", "2"] for bound in AUDITS}
    for k in PROBLEMS:
        inst = root / f"p{k}.json"
        assert run(root, "gen", "--family", f"problem{k}", "--out",
                   str(inst)) == 0
        trace = [] if "trace" not in PROBLEMS[k].flags["verify"] else [
            "--trace", str(root / "traces" / f"p{k}-p{k}-t0.json")]
        assert run(root, "run", "--problem", str(k), "--instance",
                   str(inst)) == 0
        base["run", k] = ["--instance", str(inst)]
        base["verify", k] = base["run", k] + trace
    calls = itertools.count()

    def files(command, value, *flags):
        out = root / f"call{next(calls)}"
        _, selector, _ = cli.ENTRIES[command]
        assert run(out, command, f"--{selector}", str(value),
                   *base.get((command, value), []), *flags) == 0
        return sorted(p.read_bytes() for p in out.rglob("*") if p.is_file())
    return files


def _settings():
    """(command, entry, flag) for each flag an entry reads, but --trace."""
    for command, (_, _, entries) in cli.ENTRIES.items():
        for value, flags in entries.items():
            for name in flags:
                if name != "trace":
                    yield pytest.param(command, value, name,
                                       id=f"{command}-{value}-{name}")


@pytest.mark.parametrize("command, value, name", list(_settings()))
def test_every_offered_setting_changes_what_its_command_writes(
        written, command, value, name):
    # run and verify --problem 3 --seed wrote the bytes they wrote without
    # it: gamma is sampled at the bundle's meta.seed
    default = cli.ENTRIES[command][2][value][name]
    flag = [f"--{name}"] + ([] if ANY_VALUE[name] is None
                            else [ANY_VALUE[name]])
    assert ANY_VALUE[name] is None or \
        cli.KINDS[name](ANY_VALUE[name]) != default
    assert written(command, value, *flag) != written(command, value)


@pytest.mark.parametrize("argv, unread", [
    (["gen", "--family", "coverage", "--n", "5", "--p", "9", "--k", "9",
      "--delta", "0.3", "--monotone"], "--p or --k or --delta or --monotone"),
    (["run", "--problem", "4", "--instance", "problem4-n6-s9.json",
      "--epsilon", "0.9", "--iterations", "7"], "--epsilon or --iterations"),
    (["verify", "--problem", "4", "--instance", "problem4-n6-s9.json",
      "--resolution", "0.3"], "--resolution"),
    (["run", "--problem", "2", "--instance", "problem2-n7-s11.json",
      "--seed", "77", "--k", "3"], "--seed or --k"),
    (["run", "--problem", "3", "--instance", "problem3-n3-s4.json",
      "--seed", "1"], "--seed"),
], ids=["gen-coverage", "run-problem4", "verify-problem4", "run-problem2",
        "run-problem3"])
def test_flags_an_entry_never_read_were_dropped_and_now_exit_one(
        tmp_path, capsys, argv, unread):
    # each exited 0 with the flags ignored, on a bundle that reads as usual
    if "--instance" in argv:
        i = argv.index("--instance") + 1
        argv[i] = str(GOLDEN_CLI / "instances" / argv[i])
    assert run(tmp_path, *argv) == 1
    selected = argv[1:3]
    assert capsys.readouterr().err == (f"usage error: {argv[0]} "
                                       f"{' '.join(selected)} reads no "
                                       f"{unread}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", list(PROBLEMS))
def test_verify_offers_no_seed(tmp_path, capsys, k):
    # no verify entry reads --seed, so the parser refuses it, before the
    # instance file (absent here) is read
    assert run(tmp_path / "out", "verify", "--problem", str(k), "--instance",
               str(tmp_path / "absent.json"), "--seed", "1") == 1
    assert capsys.readouterr().err == \
        "usage error: unrecognized arguments: --seed 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", [0, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_run_traced_problem_takes_one_trial(tmp_path, capsys, k, trials):
    # each run of problems 1-3 makes one trace: they read no --trials, so
    # any count is refused rather than read as 1
    inst = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", f"problem{k}", "--n", "3",
               "--seed", "2", "--out", str(inst)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(out, "run", "--problem", str(k), "--instance", str(inst),
               "--trials", str(trials)) == 1
    assert capsys.readouterr().err == \
        f"usage error: run --problem {k} reads no --trials\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["quadratic-dr", "sqrt-linear", "problem1"])
def test_gen_dimension_zero_exits_one(tmp_path, capsys, family):
    out = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", family, "--n", "0",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        "error: dimension needs at least one coordinate\n"
    assert not out.exists()


@pytest.mark.parametrize("n, k", [(6, 0), (4, 5)])
def test_gen_problem4_budget_outside_one_to_n_exits_one(tmp_path, capsys,
                                                        n, k):
    # as run and verify would on the bundle: one line, and no file
    assert run(tmp_path, "gen", "--family", "problem4", "--n", str(n),
               "--k", str(k)) == 1
    assert capsys.readouterr().err == \
        "error: budget k must satisfy 1 <= k <= n\n"
    assert not (tmp_path / "instances").exists()


def test_verify_certificate_with_more_parts_than_rounds_exits_two(tmp_path,
                                                                 capsys):
    # every singleton is independent, so 8 singleton parts certified all 8
    # elements although bicriteria_rounds(2, 0.1) = 6 parts are allowed
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "8", "--seed", "3",
        "--p", "2", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "2", "--instance",
               str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    doc = load_doc(trace)
    assert len(doc["meta"]["independent_sets"]) == doc["meta"]["rounds"] == 6
    doc["final"] = list(range(8))
    doc["meta"]["independent_sets"] = [[u] for u in range(8)]
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 2
    assert "verdict=violated" in capsys.readouterr().out


def _problem3_bundle_and_zero_trace(tmp_path):
    inst = tmp_path / "p3.json"
    run(tmp_path, "gen", "--family", "problem3", "--n", "3", "--seed", "1",
        "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "3", "--instance",
               str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    doc = load_doc(trace)
    doc["final"] = [0.0, 0.0, 0.0]
    trace.write_text(json.dumps(doc))
    return inst, trace


@pytest.mark.parametrize("gamma", [0, 0.5])
def test_verify_bundle_gamma_other_than_the_sampled_one_exits_one(
        tmp_path, capsys, gamma):
    # a bundle gamma of 0 dropped the threshold to zero, so the final point
    # 0 verified as holds
    inst, trace = _problem3_bundle_and_zero_trace(tmp_path)
    argv = ["verify", "--problem", "3", "--instance", str(inst),
            "--trace", str(trace)]
    assert run(tmp_path, *argv) == 2
    doc = load_doc(inst)
    doc["measured"]["gamma"] = gamma
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "measured.gamma" in err


@pytest.mark.parametrize("seed", [None, 2, "1", 1.0, True])
def test_verify_problem3_samples_gamma_from_the_bundle_seed(tmp_path, capsys,
                                                           seed):
    # no flag stands in for meta.seed: without it run and verify exit 1
    # (--seed stood in, at 0 when not given); any other seed samples another
    # gamma than gen recorded, and a non-integer is an error
    inst, trace = _problem3_bundle_and_zero_trace(tmp_path)
    doc = load_doc(inst)
    if seed is None:
        del doc["meta"]["seed"]
    else:
        doc["meta"]["seed"] = seed
    inst.write_text(json.dumps(doc))
    argv = ["verify", "--problem", "3", "--instance", str(inst),
            "--trace", str(trace)]
    commands = [argv] + [["run", "--problem", "3", "--instance",
                          str(inst)]] * (seed is None)
    capsys.readouterr()
    for argv in commands:
        assert run(tmp_path / "out", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("meta.seed" if seed in (None, "1", 1.0, True) else
                "measured.gamma") in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma", [0, 0.5])
def test_run_problem3_checks_the_bundle_gamma(tmp_path, capsys, gamma):
    # run copied an edited measured.gamma into meta.declared_gamma and
    # exited 0; only verify rejected the bundle
    inst = tmp_path / "p3.json"
    run(tmp_path, "gen", "--family", "problem3", "--n", "3", "--seed", "1",
        "--out", str(inst))
    doc = load_doc(inst)
    doc["measured"]["gamma"] = gamma
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "3", "--instance",
               str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bundle measured.gamma is ")
    assert err.count("\n") == 1
    assert not (tmp_path / "traces").exists()


def _problem2_bundle_and_trace(tmp_path):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "6", "--p", "2",
        "--seed", "1", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "2", "--instance",
               str(inst)) == 0
    return inst, next(tmp_path.glob("traces/*.json"))


def test_problem2_verifies_and_audits_up_to_the_table_cap(tmp_path, capsys):
    # the exhaustive optimum is capped by the value table alone (n <= 20)
    inst = tmp_path / "p2.json"
    assert run(tmp_path, "gen", "--family", "problem2", "--n", "20", "--p",
               "2", "--seed", "1", "--out", str(inst)) == 0
    assert run(tmp_path, "run", "--problem", "2", "--instance",
               str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 0
    assert run(tmp_path, "audit", "--bound", "problem2-authors-conjecture",
               "--n", "19", "--trials", "2") == 0
    assert capsys.readouterr().err == ""


def test_problem2_final_with_a_repeat_verifies_holds(tmp_path, capsys):
    # final is valued as a set and certified as one: a repeated element
    # once read as a broken certificate, verdict violated and exit 2
    inst, trace = _problem2_bundle_and_trace(tmp_path)
    doc = load_doc(trace)
    doc["final"] = doc["final"] + doc["final"][:1]
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 0
    assert "verdict=holds" in capsys.readouterr().out


@pytest.mark.parametrize("problem", [4, 5])
def test_verify_untraced_problem_with_a_trace_exits_one(tmp_path, capsys,
                                                        problem):
    # the trace was loaded and never read, and the report exited 0
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "5",
        "--seed", "1", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", str(problem), "--instance",
               str(inst)) == 0
    trace = next(tmp_path.glob("traces/*.json"))
    capsys.readouterr()
    _usage_error(capsys, run(tmp_path, "verify", "--problem", str(problem),
                             "--instance", str(inst), "--trace", str(trace)),
                 f"verify --problem {problem} reads no --trace")
    assert not list(tmp_path.glob("verify-*.csv"))


@pytest.mark.parametrize("other", ["bundle", "matroid"])
def test_verify_trace_that_is_no_run_trace_exits_one(tmp_path, capsys,
                                                     other):
    # a bundle came back from from_doc as a dict, and vars() of it raised
    # TypeError
    inst, _ = _problem2_bundle_and_trace(tmp_path)
    trace = inst if other == "bundle" else tmp_path / "matroid.json"
    if other == "matroid":
        save(random_partition_matroid(6, 1), trace)
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("unknown document kind 'bundle'" if other == "bundle" else
            "does not hold a run trace") in err


@pytest.mark.parametrize("meta", [[], 5, "x", None])
def test_verify_problem2_trace_meta_not_an_object_exits_one(tmp_path, capsys,
                                                             meta):
    # trace.meta.get raised AttributeError
    inst, trace = _problem2_bundle_and_trace(tmp_path)
    doc = load_doc(trace)
    doc["meta"] = meta
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "2", "--instance", str(inst),
               "--trace", str(trace)) == 1
    assert capsys.readouterr().err == \
        "error: document field 'meta' must be a JSON object\n"


@pytest.mark.parametrize("family", ["problem2", "coverage"])
def test_gen_past_the_gamma_cap_records_no_ratios(tmp_path, family):
    # every benchmark bicriteria bundle (n = 14) goes this way
    out = tmp_path / "inst.json"
    for n, empty in ((12, False), (13, True)):
        assert run(tmp_path, "gen", "--family", family, "--n", str(n),
                   "--seed", "1", "--out", str(out)) == 0
        assert (load_doc(out)["measured"] == {}) == empty


def test_float_flags_exit_zero_one_or_three_with_one_line(tmp_path, capsys):
    # every float flag at the edges of its range; 5e-324 asked for an
    # infinite round count and 1e308 for a noise range of 2e308, and both
    # raised OverflowError out of main
    bundles, traces = {}, {}
    for k in (1, 2, 3):
        bundles[k] = tmp_path / f"p{k}.json"
        assert run(tmp_path, "gen", "--family", f"problem{k}", "--n", "3",
                   "--seed", "2", "--out", str(bundles[k])) == 0
    for k in (1, 3):
        assert run(tmp_path / f"r{k}", "run", "--problem", str(k),
                   "--instance", str(bundles[k])) == 0
        traces[k] = next((tmp_path / f"r{k}" / "traces").glob("*.json"))
    cases = [(["gen", "--family", family, "--n", "4"], "--delta")
             for family in ("perturbed", "problem4", "problem5")]
    cases += [(["run", "--problem", str(k), "--instance", str(bundles[k])],
               "--epsilon") for k in (1, 2)]
    cases += [(["verify", "--problem", str(k), "--instance", str(bundles[k]),
                "--trace", str(traces[k])], "--resolution") for k in (1, 3)]
    cases += [(["audit", "--bound", bound, "--n", "4", "--trials", "1"],
               "--epsilon")
              for bound in ("problem2-bicriteria",
                            "problem2-authors-conjecture")]
    capsys.readouterr()
    bad, tried = [], 0
    for argv, flag in cases:
        for value in ("nan", "inf", "-inf", "-1", "0", "2", "5e-324",
                      "1e308", "1e-7"):
            tried += 1
            try:
                code = run(tmp_path / "sweep", *argv, f"{flag}={value}")
            except Exception as exc:
                code = type(exc).__name__
            err = capsys.readouterr().err
            if code not in (0, 1, 3) or err.count("\n") > 1:
                bad.append((argv[0], argv[2], flag, value, code))
    assert bad == []
    assert tried == 81


@pytest.mark.parametrize("k, flag, value", [
    (1, "--epsilon", "1e-7"), (1, "--epsilon", "1e-300"),
    (3, "--iterations", "1000000000")],
    ids=["epsilon-1e-7", "epsilon-1e-300", "iterations-1e9"])
def test_frank_wolfe_past_the_record_cap_exits_three(tmp_path, capsys, k,
                                                     flag, value):
    # 10^7 masked rounds ran for minutes with no output, and 10^9
    # iterations started their loop: both are refused before the first
    inst = tmp_path / "inst.json"
    assert run(tmp_path, "gen", "--family", f"problem{k}", "--n", "3",
               "--seed", "2", "--out", str(inst)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(out, "run", "--problem", str(k), "--instance", str(inst),
               flag, value) == 3
    assert capsys.readouterr().err == "capability limit: Frank-Wolfe " \
        f"needs at most {BUDGET['fw-records'].limit} rounds\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "4", "--k", "2"],
    ["run", "--problem", "5"],
    ["audit", "--bound", "problem4-claimed"],
    ["audit", "--bound", "problem2-authors-conjecture"]],
    ids=["run-problem4", "run-problem5", "audit-problem4",
         "audit-conjecture"])
def test_trials_past_the_budget_exit_three(tmp_path, capsys, argv):
    # each trial is one trace file or one audit row: 10^9 of them ran for
    # days, so they are refused before the first, with no file written
    if argv[0] == "run":
        k = argv[2]
        inst = tmp_path / "inst.json"
        assert run(tmp_path, "gen", "--family", f"problem{k}", "--n", "4",
                   "--seed", "2", "--out", str(inst)) == 0
        capsys.readouterr()
        argv = argv + ["--instance", str(inst)]
    out = tmp_path / "out"
    assert run(out, *argv, "--trials", "1000000000") == 3
    assert capsys.readouterr().err == "capability limit: a run or an " \
        f"audit takes at most {BUDGET['trials'].limit} trials\n"
    assert not out.exists()


@pytest.mark.parametrize("k, entry, line", [
    (1, "grid-dim", "grid optimum needs n <= 5"),
    (3, "grid-dim", "grid optimum needs n <= 5"),
    (2, "table", "value table needs n <= 20, got n = 21")],
    ids=["problem1", "problem3", "problem2"])
def test_gen_and_run_past_the_check_caps_exit_three(tmp_path, capsys, k,
                                                    entry, line):
    # the checks refuse these sizes (verify's grid optimum n = 6, problem
    # 2's exhaustive optimum n = 21), where gen exited 0: gen and run now
    # refuse first, as for the gamma cap, and write no file
    n = BUDGET[entry].limit + 1
    line = f"capability limit: {line}\n"
    out = tmp_path / "out"
    assert run(out, "gen", "--family", f"problem{k}", "--n", str(n)) == 3
    assert capsys.readouterr().err == line
    flags = cli._flags(_build_parser().parse_args(
        ["gen", "--family", f"problem{k}", "--n", str(n)]))
    c = PROBLEMS[k].build(flags)
    inst = tmp_path / "inst.json"
    save(problem_bundle(k, c, flags), inst)
    assert run(out, "run", "--problem", str(k), "--instance", str(inst)) == 3
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "1"], ["run", "--problem", "2"],
    ["verify", "--problem", "2"],
    ["audit", "--bound", "problem2-bicriteria", "--trials", "1"],
    ["audit", "--bound", "problem2-authors-conjecture", "--trials", "1"],
], ids=["run1", "run2", "verify2", "bicriteria", "conjecture"])
def test_infinite_round_count_exits_one(tmp_path, capsys, argv):
    # 1 / 5e-324 overflows to inf, and the round counts raised OverflowError
    if argv[0] != "audit":
        inst = tmp_path / "inst.json"
        assert run(tmp_path, "gen", "--family", f"problem{argv[2]}", "--n",
                   "4", "--seed", "1", "--out", str(inst)) == 0
        argv = [*argv, "--instance", str(inst)]
    if argv[0] == "verify":  # a trace whose params.epsilon is 5e-324
        assert run(tmp_path, "run", "--problem", "2", "--instance",
                   str(inst)) == 0
        trace = next(tmp_path.glob("traces/*.json"))
        doc = load_doc(trace)
        doc["params"]["epsilon"] = 5e-324
        trace.write_text(json.dumps(doc))
        argv += ["--trace", str(trace)]
    else:
        argv = [*argv, "--epsilon", "5e-324"]
    capsys.readouterr()
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err == \
        "error: epsilon is too small: the round count is infinite\n"


@pytest.mark.parametrize("family", ["perturbed", "problem4", "problem5"])
def test_gen_noise_range_past_the_floats_exits_one(tmp_path, capsys, family):
    # 2 * 1e308 overflows, and numpy's uniform raised OverflowError
    assert run(tmp_path, "gen", "--family", family, "--n", "4",
               "--delta", "1e308") == 1
    assert capsys.readouterr().err == \
        "error: noise amplitude must lie in [0, max float / 2]\n"


def _usage_error(capsys, code, message):
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {message}\n"


def test_cli_usage_errors(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    _usage_error(capsys, main(["--config", str(config), "gen", "--family",
                               "coverage"]),
                 "config file must hold a JSON object")
    inst = tmp_path / "p4.json"
    run(tmp_path, "gen", "--family", "problem4", "--n", "5", "--seed", "1",
        "--out", str(inst))
    capsys.readouterr()
    _usage_error(capsys, run(tmp_path, "run", "--problem", "5",
                             "--instance", str(inst)),
                 "instance file is a problem-4 bundle")
    matroid, coverage = tmp_path / "matroid.json", tmp_path / "cov.json"
    save(random_partition_matroid(5, 1), matroid)
    run(tmp_path, "gen", "--family", "coverage", "--n", "5",
        "--out", str(coverage))
    capsys.readouterr()
    for problem, instance in ((4, matroid), (2, coverage)):
        _usage_error(capsys, run(tmp_path, "run", "--problem", str(problem),
                                 "--instance", str(instance)),
                     "instance file does not match the selected problem")
    for problem in (1, 2, 3):
        bundle = tmp_path / f"p{problem}.json"
        run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "3",
            "--seed", "1", "--out", str(bundle))
        capsys.readouterr()
        _usage_error(capsys, run(tmp_path, "verify", "--problem",
                                 str(problem), "--instance", str(bundle)),
                     "problems 1-3 need --trace files to verify")


def test_usage_error_exit_one(tmp_path):
    assert main(["run", "--problem", "9", "--instance", "x.json"]) == 1
    assert main(["gen", "--family", "nonsense"]) == 1
    assert run(tmp_path, "verify", "--problem", "2",
               "--instance", "missing.json") == 1


def test_json_without_an_object_exits_one(tmp_path, capsys):
    # valid JSON that is not an object, as the instance or as a trace
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "6", "--p", "2",
        "--seed", "1", "--out", str(inst))
    run(tmp_path, "run", "--problem", "2", "--instance", str(inst))
    trace = next(tmp_path.glob("traces/*.json"))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    capsys.readouterr()
    for instance, trace_file in ((listed, trace), (inst, listed)):
        assert run(tmp_path, "verify", "--problem", "2",
                   "--instance", str(instance),
                   "--trace", str(trace_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "JSON object" in err


def test_instance_that_is_a_directory_exits_one(tmp_path, capsys):
    assert run(tmp_path, "run", "--problem", "4",
               "--instance", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_dir_that_is_a_file_exits_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out-dir", str(taken), "gen", "--family", "coverage"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_document_field_of_wrong_type_exits_one(tmp_path, capsys):
    inst = tmp_path / "cov.json"
    inst.write_text(json.dumps({
        "schema": "submodlab/1", "kind": "set-function", "family": "coverage",
        "n": 2, "covers": 5, "universe_weights": [1.0]}))
    assert run(tmp_path, "run", "--problem", "4", "--instance", str(inst),
               "--k", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'set-function'" in err \
        and "'coverage'" in err


@pytest.mark.parametrize("field, value", [
    ("components", {"objective": 5}),
    ("measured", []),
    ("meta", []),
])
def test_bundle_field_that_is_not_an_object_exits_one(tmp_path, capsys,
                                                      field, value):
    inst = tmp_path / "p4.json"
    run(tmp_path, "gen", "--family", "problem4", "--n", "5", "--k", "2",
        "--seed", "1", "--out", str(inst))
    doc = load_doc(inst)
    doc[field] = value
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "4",
               "--instance", str(inst)) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("problem, field, key, value", [
    (4, "meta", "k", "3"),
    (4, "meta", "k", True),
    (3, "measured", "gamma", "0.5"),
    (3, "measured", "gamma", float("nan")),
    (3, "measured", "gamma", 1.5),
])
def test_malformed_bundle_number_exits_one(tmp_path, capsys, command,
                                           problem, field, key, value):
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "3",
        "--seed", "4", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", str(problem),
               "--instance", str(inst)) == 0
    trace = next((tmp_path / "traces").glob("*.json"))
    doc = load_doc(inst)
    doc[field][key] = value
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = [command, "--problem", str(problem), "--instance", str(inst)]
    if command == "verify" and problem != 4:  # problem 4 reads no trace
        argv += ["--trace", str(trace)]
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}.{key}" in err


@pytest.mark.parametrize("problem, field, key, value", [
    (1, "meta", "step", -0.5),
    (1, "meta", "step", float("nan")),
    (1, "meta", "step", "abc"),
    (1, "meta", "step", None),  # None: the key is deleted
    (2, "params", "epsilon", -0.5),
    (2, "params", "epsilon", float("nan")),
    (2, "params", "epsilon", True),
    (2, "params", "epsilon", "abc"),
    (3, "params", "iterations", 0),
    (3, "params", "iterations", -3),
    (3, "params", "iterations", 2.5),
    (3, "params", "iterations", True),
    (3, "params", "iterations", "abc"),
])
def test_malformed_trace_number_exits_one(tmp_path, capsys, problem, field,
                                          key, value):
    # each number feeds a proved threshold: a step or epsilon of -0.5 or NaN
    # verified as violated (exit 2), and a string raised a traceback
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "3",
        "--seed", "4", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", str(problem),
               "--instance", str(inst)) == 0
    trace = next((tmp_path / "traces").glob("*.json"))
    doc = load_doc(trace)
    if value is None:
        del doc[field][key]
    else:
        doc[field][key] = value
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", str(problem),
               "--instance", str(inst), "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace {field}.{key} must be ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("verify-*.csv"))


@pytest.mark.parametrize("component, make, path, value", [
    ("objective", lambda: random_cut(5, 1), ("edges", 0), [0.5, 1.7, 1.0]),
    ("objective", lambda: random_coverage(5, 1), ("n",), True),
    ("objective", lambda: random_coverage(5, 1), ("covers", 0, 0), "1"),
    ("objective", lambda: random_perturbed(5, 0.3, 1), ("seed",), 1.5),
    ("matroid1", lambda: random_graphic_matroid(5, 1), ("edges", 0),
     [0.2, 1.9]),
    ("matroid1", lambda: random_graphic_matroid(5, 1), ("num_vertices",),
     2.5),
], ids=["cut-edge", "coverage-n", "cover-item", "perturbed-seed",
        "graphic-edge", "graphic-vertices"])
def test_non_integer_document_value_exits_one(tmp_path, capsys, component,
                                              make, path, value):
    # such values were truncated (edge [0.5, 1.7] read as (0, 1), seed 1.5
    # as 1, n = true as 1) or parsed (cover item "1" as 1)
    doc = to_doc(make())
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    target[last] = value
    with pytest.raises(ValueError, match="must be integers, not "):
        from_doc(doc)
    inst = tmp_path / "p5.json"
    run(tmp_path, "gen", "--family", "problem5", "--n", "5", "--seed", "1",
        "--out", str(inst))
    bundle = load_doc(inst)
    bundle["components"][component] = doc
    inst.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "5",
               "--instance", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be integers" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("problem, component, key", [
    (3, "objective", "b"),
    (1, "polytope", "upper"),
])
def test_non_finite_bundle_parameter_exits_one(tmp_path, capsys, problem,
                                               component, key):
    # json.loads accepts NaN, so a bundle can carry one
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", f"problem{problem}", "--n", "3",
        "--seed", "4", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", str(problem),
               "--instance", str(inst)) == 0
    trace = next((tmp_path / "traces").glob("*.json"))
    doc = load_doc(inst)
    doc["components"][component][key][0] = float("nan")
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", str(problem),
               "--instance", str(inst), "--trace", str(trace)) == 1
    assert capsys.readouterr().err == f"error: {key} must be finite\n"


def test_non_integer_cardinality_bound_exits_one(tmp_path, capsys):
    # seed 1 draws the cardinality polytope; k = 2.5 was read as k = 2
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", "problem1", "--n", "3", "--seed", "1",
        "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "1",
               "--instance", str(inst)) == 0
    trace = next((tmp_path / "traces").glob("*.json"))
    doc = load_doc(inst)
    assert doc["components"]["polytope"]["family"] == "cardinality"
    doc["components"]["polytope"]["k"] = 2.5
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--problem", "1", "--instance", str(inst),
               "--trace", str(trace)) == 1
    err = capsys.readouterr().err
    assert err == "error: capacities must be integers, not 2.5\n"


def test_bool_cardinality_ground_set_exits_one(tmp_path, capsys):
    # seed 1 draws the cardinality polytope; n = true was read as n = 1
    inst = tmp_path / "inst.json"
    run(tmp_path, "gen", "--family", "problem1", "--n", "3", "--seed", "1",
        "--out", str(inst))
    doc = load_doc(inst)
    assert doc["components"]["polytope"]["family"] == "cardinality"
    doc["components"]["polytope"]["n"] = True
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "1",
               "--instance", str(inst)) == 1
    err = capsys.readouterr().err
    assert err == "error: ground-set sizes must be integers, not True\n"


def test_capability_error_exit_three(tmp_path):
    inst = tmp_path / "big.json"
    doc = {"schema": "submodlab/1", "kind": "bundle", "problem": 4,
           "components": {"objective": {
               "schema": "submodlab/1", "kind": "set-function",
               "family": "modular", "weights": [1.0] * 19}},
           "measured": {}, "meta": {"k": 2}}
    inst.write_text(json.dumps(doc))
    assert run(tmp_path, "verify", "--problem", "4", "--instance", str(inst),
               "--k", "2") == 3


@pytest.mark.parametrize("k", [4, 5])
def test_gen_problem_past_gamma_limit_exits_three(tmp_path, capsys, k):
    # problems 4 and 5 check against the measured gamma, so gen refuses a
    # bundle that verify and audit would refuse, and writes no file
    def gen(n):
        return run(tmp_path, "gen", "--family", f"problem{k}", "--n", str(n),
                   "--seed", "1")

    assert gen(GAMMA_CAP + 1) == 3
    err = capsys.readouterr().err
    assert err == f"capability limit: submodularity ratio needs n <= " \
        f"{GAMMA_CAP}\n"
    assert list(tmp_path.iterdir()) == []
    assert gen(GAMMA_CAP) == 0
    inst, = (tmp_path / "instances").iterdir()
    assert set(load_doc(inst)["measured"]) == {"gamma", "m",
                                               "nonmonotone_caveat"}


def test_run_problem4_past_gamma_limit_exits_three(tmp_path, capsys):
    # a plain set-function file past the cap is a legitimate document, but
    # problem 4's check measures its ratios: run refuses it as verify
    # would, and writes no trace or CSV
    inst = tmp_path / "instances" / "perturbed.json"
    assert run(tmp_path, "gen", "--family", "perturbed", "--n",
               str(GAMMA_CAP + 1), "--seed", "1", "--monotone",
               "--out", str(inst)) == 0
    capsys.readouterr()
    assert run(tmp_path, "run", "--problem", "4", "--instance", str(inst),
               "--k", "2") == 3
    assert capsys.readouterr().err == \
        f"capability limit: submodularity ratio needs n <= {GAMMA_CAP}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "instances"]
    assert run(tmp_path, "verify", "--problem", "4", "--instance", str(inst),
               "--k", "2") == 3


def test_verify_problem4_deep_tree_is_exact(tmp_path, capsys):
    # k = 8 gives an 8^8-leaf choice tree; its memoized DAG is small, so the
    # verdict rests on the exact expectation, with no sampling interval
    inst = tmp_path / "p4big.json"
    run(tmp_path, "gen", "--family", "problem4", "--n", "10", "--seed", "13",
        "--k", "8", "--out", str(inst))
    assert run(tmp_path, "verify", "--problem", "4", "--instance", str(inst),
               "--k", "8") == 0
    report = next(tmp_path.glob("verify-*-p4.csv")).read_text()
    fields = report.splitlines()[1].split(",")
    exact = dag_walk(
        DummyGreedyProcess(load_bundle(load_doc(inst))["objective"], 8))
    assert fields[4] == repr(exact)
    assert fields[5] == ""


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "coverage", "n": 7, "seed": 21}))
    out = tmp_path / "from-config.json"
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "gen",
                 "--family", "coverage", "--out", str(out)]) == 0
    doc = load_doc(out)
    assert doc["n"] == 7


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBMODLAB_OUT", str(tmp_path / "envout"))
    assert main(["gen", "--family", "modular", "--n", "4", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "instances").exists()


def test_config_explicit_flag_equal_to_default_wins(tmp_path):
    # --n 6 is gen's default; spelling it out must still beat the config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7}))
    out = tmp_path / "cov.json"
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "gen",
                 "--family", "coverage", "--n", "6", "--out", str(out)]) == 0
    assert load_doc(out)["n"] == 6


def test_config_values_are_checked_like_flags(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a token None would name a file
    out = tmp_path / "cov.json"

    def gen_with(config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return main(["--config", str(cfg), "--out-dir", str(tmp_path), "gen",
                     "--family", "coverage", "--out", str(out)])

    assert gen_with({"n": "7"}) == 0  # read as the token --n 7
    assert load_doc(out)["n"] == 7
    assert gen_with({"n": "seven"}) == 1
    assert gen_with({"n": 7.5}) == 1
    assert gen_with({"family": "nonsense"}) == 1
    assert gen_with({"no_such_flag": 1}) == 1
    assert gen_with({"monotone": "yes"}) == 1
    assert "Traceback" not in capsys.readouterr().err
    # false is no token for a switch alone: another key is refused, not
    # dropped
    assert gen_with({"monotone": False}) == 0
    for config in ({"no_such_flag": False, "n": False}, {"n": False}):
        out.unlink(missing_ok=True)
        assert gen_with(config) == 1
        key = next(iter(config))
        assert capsys.readouterr().err == \
            f"usage error: config key {key!r} is false but no switch\n"
        assert not out.exists()
    # null is no value for any key: one line, and no file named None
    for config in ({"out": None}, {"n": None}, {"trace": None}):
        assert gen_with(config) == 1
        key = next(iter(config))
        assert capsys.readouterr().err == \
            f"usage error: config key {key!r} is null\n"
        assert not out.exists() and not (tmp_path / "None").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None}))
    assert main(["--config", str(cfg), "gen", "--family", "coverage",
                 "--n", "4"]) == 1
    assert not (tmp_path / "None").exists()


def test_config_cannot_name_a_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cov.json"
    cfg.write_text(json.dumps({"config": "nope.json", "n": 5}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "gen",
                 "--family", "coverage", "--out", str(out)]) == 1
    assert not out.exists()
    assert "'config' key" in capsys.readouterr().err


def test_config_list_only_for_repeatable_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cov.json"
    cfg.write_text(json.dumps({"n": [5, 7]}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "gen",
                 "--family", "coverage", "--out", str(out)]) == 1
    assert not out.exists()
    assert "takes one value" in capsys.readouterr().err

    assert run(tmp_path, "gen", "--family", "problem2", "--n", "6",
               "--seed", "1") == 0
    inst = str(tmp_path / "instances" / "problem2-n6-s1.json")
    assert run(tmp_path, "run", "--problem", "2", "--instance", inst) == 0
    trace = str(tmp_path / "traces" / "problem2-n6-s1-p2-t0.json")
    table = tmp_path / "verify-problem2-n6-s1-p2.csv"
    assert run(tmp_path, "verify", "--problem", "2", "--instance", inst,
               "--trace", trace, "--trace", trace) == 0
    by_flags = table.read_text()
    table.unlink()
    cfg.write_text(json.dumps({"trace": [trace, trace]}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "verify",
                 "--problem", "2", "--instance", inst]) == 0
    assert table.read_text() == by_flags
    assert len(by_flags.splitlines()) == 3


def test_config_may_supply_required_flags(tmp_path, capsys):
    # argv alone was parsed first, so a required flag given only in the
    # config failed with "the following arguments are required"
    assert run(tmp_path, "gen", "--family", "problem2", "--n", "6",
               "--seed", "1") == 0
    inst = str(tmp_path / "instances" / "problem2-n6-s1.json")
    assert run(tmp_path, "run", "--problem", "2", "--instance", inst) == 0
    trace = str(tmp_path / "traces" / "problem2-n6-s1-p2-t0.json")
    table = tmp_path / "verify-problem2-n6-s1-p2.csv"
    assert run(tmp_path, "verify", "--problem", "2", "--instance", inst,
               "--trace", trace) == 0
    by_flags = table.read_text()
    assert len(by_flags.splitlines()) == 2
    table.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": 2, "instance": inst,
                               "trace": [trace]}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path),
                 "verify"]) == 0
    assert table.read_text() == by_flags
    table.unlink()
    assert main([f"--config={cfg}", f"--out-dir={tmp_path}", "verify"]) == 0
    assert table.read_text() == by_flags
    capsys.readouterr()
    # no abbreviation of --config is taken for another token, and without
    # a command the config is never read
    assert main(["--conf", str(cfg), "--out-dir", str(tmp_path),
                 "verify"]) == 1
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error: ") == 2 and "Traceback" not in err


def test_config_out_dir_and_store_true_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "from-config"),
                               "monotone": True, "delta": 0.2}))
    assert main(["--config", str(cfg), "gen", "--family", "perturbed",
                 "--n", "5"]) == 0
    doc = load_doc(tmp_path / "from-config" / "instances"
                   / "perturbed-n5-s0.json")
    assert doc["monotone_noise"] is True and doc["delta"] == 0.2


def test_audit_proved_violation_exits_two(tmp_path, monkeypatch, capsys):
    import submodlab.verify as verify_module

    argv = ["audit", "--bound", "problem2-bicriteria", "--n", "6",
            "--trials", "2", "--seed", "1"]
    assert run(tmp_path, *argv) == 0
    real = verify_module.multipass_greedy

    def tampered(*args, **kwargs):
        # with its independent sets gone, the certificate covers nothing
        trace = real(*args, **kwargs)
        trace.meta["independent_sets"] = []
        return trace

    monkeypatch.setattr(verify_module, "multipass_greedy", tampered)
    assert run(tmp_path, *argv) == 2
    table = (tmp_path / "audit-problem2-bicriteria-s1.csv").read_text()
    assert table.count(",violated,") == 2
    assert len(list((tmp_path / "violations").glob("*.json"))) == 2


def test_audit_claimed_violation_exits_zero(tmp_path, monkeypatch):
    import submodlab.verify as verify_module

    real = verify_module.check_bound

    def violated(measured, bound, params, **kwargs):
        return real(-1.0, bound, params, **kwargs)

    monkeypatch.setattr(verify_module, "check_bound", violated)
    assert run(tmp_path, "audit", "--bound", "problem4-claimed",
               "--trials", "2", "--seed", "1") == 0
    assert len(list((tmp_path / "violations").glob("*.json"))) == 2


def test_verify_agrees_with_audit_rows(tmp_path):
    from submodlab.verify import audit_problem4, audit_problem5

    for problem, report in ((4, audit_problem4(1, 7, n=5, k=3)),
                            (5, audit_problem5(1, 8, n=6))):
        row = report.rows[0]
        inst = tmp_path / f"{row.instance_id}.json"
        inst.write_text(json.dumps(report.document(0)))
        assert run(tmp_path, "verify", "--problem", str(problem),
                   "--instance", str(inst)) == 0
        table = tmp_path / f"verify-{row.instance_id}-p{problem}.csv"
        fields = table.read_text().splitlines()[1].split(",")
        assert fields[4] == repr(row.measured)
        assert fields[6] == repr(row.threshold)
        assert fields[8] == row.verdict


@pytest.mark.parametrize("bound", list(AUDITS))
def test_every_audit_row_replays_through_the_cli(tmp_path, bound):
    flags = {"p": 2, "epsilon": 0.3, "n": 6, "k": 3}
    taken = {name: flags[name] for name in AUDITS[bound].flags}
    problem = AUDITS[bound].problem
    report = run_audit(bound, 3, 5, **taken)
    for t, row in enumerate(report.rows):
        inst = save(report.document(t), tmp_path / f"{row.instance_id}.json")
        traces = []
        if problem == 2:
            assert run(tmp_path, "run", "--problem", "2",
                       "--instance", str(inst)) == 0
            trace = tmp_path / "traces" / f"{row.instance_id}-p2-t0.json"
            traces = ["--trace", str(trace)]
        assert run(tmp_path, "verify", "--problem", str(problem),
                   "--instance", str(inst), *traces) == 0
        if bound == "problem2-authors-conjecture":
            # verify checks the bicriteria bound after every pass; the
            # rerun's own passes must match the row's
            rerun = load(trace)
            assert rerun.meta["rounds"] == row.params["rounds_multipass"]
            passes = row.params["rounds_conjecture"]
            assert rerun.iterations[passes - 1]["value"] == row.measured
            continue
        table = tmp_path / f"verify-{row.instance_id}-p{problem}.csv"
        fields = table.read_text().splitlines()[1].split(",")
        assert fields[4] == repr(row.measured)
        assert fields[6] == repr(row.threshold)
        assert fields[8] == row.verdict


def test_audit_instances_are_gen_instances(tmp_path):
    trial = 1
    rng = np.random.default_rng([3, trial])  # the problem-4 draw at seed 3
    monotone, delta = rng.random() < 0.3, float(rng.uniform(0.05, 0.6))
    rng = np.random.default_rng([4, trial])  # problem 5's at seed 4
    coverage, delta5 = rng.random() < 0.5, float(rng.uniform(0.05, 0.4))
    assert not coverage  # gen builds no coverage objective for problem 5
    # (report, seed, gen flags, whether whole documents match): a
    # problem-2 audit records the epsilon it ran at, which gen does not
    # read, so only its components match
    cases = (
        (run_audit("problem2-bicriteria", 2, 3, p=3, n=6), 3, ["--p", "3"],
         False),
        (audit_problem4(2, 3, n=6, k=3), 3,
         ["--k", "3", "--delta", repr(delta)] + ["--monotone"] * monotone,
         True),
        (audit_problem5(2, 4, n=6), 4, ["--delta", repr(delta5)], True),
    )
    for report, seed, flags, whole in cases:
        row = report.rows[trial]
        out = tmp_path / f"{row.instance_id}.json"
        problem = row.instance_id[1]
        assert run(tmp_path, "gen", "--family", f"problem{problem}",
                   "--n", "6", "--seed", str(seed * 1_000_003 + trial),
                   *flags, "--out", str(out)) == 0
        doc, replay = load_doc(out), report.document(trial)
        if not whole:
            doc, replay = doc["components"], replay["components"]
        assert canonical_json(doc) == canonical_json(replay)


@pytest.mark.parametrize("command, name", [
    *(("gen", family) for family in cli.ENTRIES["gen"][2]),
    *(("audit", bound) for bound in AUDITS)])
def test_every_document_records_the_one_measured_rule(tmp_path, command,
                                                      name):
    # gen at the family's defaults (seed 0), or two rebuilt audit documents
    if command == "gen":
        out = tmp_path / "doc.json"
        assert run(tmp_path, "gen", "--family", name, "--out", str(out)) == 0
        docs = [load_doc(out)]
    else:
        report = run_audit(name, 2, 5)
        docs = [report.document(t) for t in range(2)]
    for doc in docs:
        if doc["kind"] == "bundle":
            c = load_bundle(doc)
            f, seed = c.get("objective"), c["_meta"]["seed"]
        else:
            f, seed = from_doc(doc), 0
        assert doc["measured"] == (
            {} if f is None else document_ratios(f, seed))


# ---------------------------------------------------------------------------
# one parser per process: main may be called again and again in process


def test_parser_is_shared():
    assert _build_parser() is _build_parser()


def test_main_calls_build_the_parser_once(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    _build_parser.cache_clear()
    assert run(tmp_path, "gen", "--family", "coverage", "--n", "5") == 0
    assert built  # the first call builds it
    once = len(built)
    inst = str(tmp_path / "instances" / "coverage-n5-s0.json")
    assert run(tmp_path, "run", "--problem", "4", "--instance", inst) == 0
    assert run(tmp_path, "gen", "--family", "modular", "--n", "4") == 0
    assert len(built) == once


def _problem2_run(tmp_path):
    """A problem-2 instance and its trace, written by gen and run."""
    assert run(tmp_path, "gen", "--family", "problem2", "--n", "6",
               "--seed", "1") == 0
    inst = str(tmp_path / "instances" / "problem2-n6-s1.json")
    assert run(tmp_path, "run", "--problem", "2", "--instance", inst) == 0
    return inst, str(tmp_path / "traces" / "problem2-n6-s1-p2-t0.json")


def test_repeated_trace_flags_do_not_accumulate(tmp_path, monkeypatch):
    inst, trace = _problem2_run(tmp_path)
    p4 = tmp_path / "p4.json"
    assert run(tmp_path, "gen", "--family", "problem4", "--n", "5",
               "--out", str(p4)) == 0
    seen = []

    def recording(args):
        seen.append(list(getattr(args, "trace", [])))  # not read by 4
        return cli.cmd_verify(args)

    monkeypatch.setitem(cli.COMMANDS, "verify", recording)
    assert run(tmp_path, "verify", "--problem", "2", "--instance", inst,
               "--trace", trace, "--trace", trace) == 0
    assert run(tmp_path, "verify", "--problem", "4",
               "--instance", str(p4)) == 0
    assert run(tmp_path, "verify", "--problem", "2", "--instance", inst,
               "--trace", trace) == 0
    assert seen == [[trace, trace], [], [trace]]


def test_config_run_bytes_do_not_depend_on_earlier_commands(tmp_path):
    inst, trace = _problem2_run(tmp_path)
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"trace": [trace, trace]}))

    def config_verify(out):
        assert main(["--config", str(cfg), "--out-dir", str(out), "verify",
                     "--problem", "2", "--instance", inst]) == 0
        return (out / "verify-problem2-n6-s1-p2.csv").read_bytes()

    _build_parser.cache_clear()
    first = config_verify(tmp_path / "first")
    assert run(tmp_path, "gen", "--family", "problem4", "--n", "5",
               "--k", "3") == 0
    assert run(tmp_path, "verify", "--problem", "2", "--instance", inst,
               "--trace", trace) == 0
    assert run(tmp_path, "audit", "--bound", "problem4-claimed",
               "--trials", "1") == 0
    assert config_verify(tmp_path / "second") == first
    assert len(first.splitlines()) == 3


# one process per exit code: what an in-process call of main cannot show
# is that the module entry point hands its code and stderr to the OS
@pytest.mark.parametrize("argv, code, err", [
    (["gen", "--family", "coverage", "--n", "6", "--seed", "2"], 0, ""),
    (["gen", "--family", "coverage", "--n", "0"], 1,
     "error: ground set needs at least one element\n"),
    (["verify", "--problem", "2", "--instance",
      str(GOLDEN_CLI / "instances" / "problem2-n7-s11.json")], 2, ""),
    (["gen", "--family", "problem4", "--n", str(GAMMA_CAP + 1)], 3,
     f"capability limit: submodularity ratio needs n <= {GAMMA_CAP}\n"),
], ids=["gen-bytes", "error", "violated", "capability-limit"])
def test_python_m_submodlab_writes_the_gen_bytes(tmp_path, argv, code, err):
    if code == 2:  # an empty final falls short of the proved bound
        doc = load_doc(GOLDEN_CLI / "traces" / "problem2-n7-s11-p2-t0.json")
        doc["final"], doc["meta"]["independent_sets"] = [], []
        trace = tmp_path / "empty-final.json"
        trace.write_text(json.dumps(doc))
        argv = [*argv, "--trace", str(trace)]
    root = Path(submodlab.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "submodlab", "--out-dir", str(tmp_path),
         *argv],
        env=os.environ | {"PYTHONPATH": str(root)}, capture_output=True,
        text=True)
    assert (done.returncode, done.stderr) == (code, err)
    if code == 0:
        doc = "instances/coverage-n6-s2.json"
        assert (tmp_path / doc).read_bytes() == \
            (GOLDEN_CLI / doc).read_bytes()
    if code == 2:
        assert "verdict=violated" in done.stdout
