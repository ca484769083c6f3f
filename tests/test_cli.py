import json

import numpy as np

from submodlab.algorithms import DummyGreedyProcess
from submodlab.cli import main
from submodlab.serialization import from_doc, load_bundle, load_doc
from submodlab.verify import expected_value_exact


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
    assert doc["measured"]["monotone"] and doc["measured"]["dr"]


def test_run_problem2_logs_two_passes(tmp_path, capsys):
    inst = tmp_path / "p2.json"
    run(tmp_path, "gen", "--family", "problem2", "--n", "8", "--p", "1",
        "--seed", "11", "--out", str(inst))
    assert run(tmp_path, "run", "--problem", "2", "--instance", str(inst),
               "--epsilon", "0.25") == 0
    summary = next(tmp_path.glob("run-*.csv")).read_text()
    assert '""rounds"": 2' in summary and "multipass-greedy" in summary


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


def test_audit_conjecture_table(tmp_path, capsys):
    assert run(tmp_path, "audit", "--bound", "problem2-authors-conjecture",
               "--p", "2", "--trials", "5", "--seed", "3") == 0
    table = next(tmp_path.glob("audit-problem2-authors-conjecture-*.csv"))
    header = table.read_text().splitlines()[0]
    assert header.startswith("instance,p,epsilon,opt,rounds_conjecture")
    assert len(table.read_text().splitlines()) == 6


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


def test_usage_error_exit_one(tmp_path):
    assert main(["run", "--problem", "9", "--instance", "x.json"]) == 1
    assert main(["gen", "--family", "nonsense"]) == 1
    assert run(tmp_path, "verify", "--problem", "2",
               "--instance", "missing.json") == 1


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


def test_verify_problem4_deep_tree_is_exact(tmp_path, capsys):
    # k = 8 gives an 8^8-leaf choice tree; its memoized DAG is small, so the
    # verdict rests on the exact expectation, with no sampling interval
    inst = tmp_path / "p4big.json"
    run(tmp_path, "gen", "--family", "problem4", "--n", "10", "--seed", "13",
        "--k", "8", "--out", str(inst))
    assert run(tmp_path, "verify", "--problem", "4", "--instance", str(inst),
               "--k", "8", "--seed", "2") == 0
    report = next(tmp_path.glob("verify-*-p4.csv")).read_text()
    fields = report.splitlines()[1].split(",")
    exact = expected_value_exact(
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


def test_config_values_are_checked_like_flags(tmp_path, capsys):
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

    for problem, row in ((4, audit_problem4(1, 7, n=5, k=3).rows[0]),
                         (5, audit_problem5(1, 8, n=6).rows[0])):
        inst = tmp_path / f"{row.instance_id}.json"
        inst.write_text(json.dumps(row.doc))
        assert run(tmp_path, "verify", "--problem", str(problem),
                   "--instance", str(inst)) == 0
        table = tmp_path / f"verify-{row.instance_id}-p{problem}.csv"
        fields = table.read_text().splitlines()[1].split(",")
        assert fields[4] == repr(row.measured)
        assert fields[6] == repr(row.threshold)
        assert fields[8] == row.verdict
