import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tsallisq import (
    DensityMatrix,
    RoofConfig,
    SignScanReport,
    alpha_residual,
    ckw_check,
    concurrence_two_qubit,
    example3_state,
    example4_state,
    example5_state,
    generalized_w,
    ghz,
    hierarchical_check,
    load_state,
    random_biseparable_mixture,
    random_pure_state,
    save_state,
    tee_from_concurrence_sq,
    tee_pure,
    tsallis_entropy,
    w_indicator_closed_form,
    w_state,
)
from tsallisq import analysis, cli, verify
from tsallisq.cli import UsageError, main, parse_number, parse_range


# --- literal and range parsing ---------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("1.5", 1.5),
        ("-2e-3", -2e-3),
        ("pi", math.pi),
        ("PI", math.pi),
        ("2pi", 2 * math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/2", 3 * math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("0.5pi", 0.5 * math.pi),
    ],
)
def test_parse_number(text, expect):
    assert parse_number(text) == pytest.approx(expect, rel=1e-15)


def test_parse_number_rejects_garbage():
    with pytest.raises(UsageError):
        parse_number("two")
    with pytest.raises(UsageError):
        parse_number("pi/0")


def test_parse_range_single_value():
    out = parse_range("2.5")
    assert out.shape == (1,) and out[0] == 2.5


def test_parse_range_count_form():
    out = parse_range("0:1:4")
    assert np.allclose(out, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_parse_range_step_form():
    out = parse_range("1:2:0.25")
    assert np.allclose(out, [1.0, 1.25, 1.5, 1.75, 2.0])


def test_parse_range_step_not_landing_on_end():
    out = parse_range("0:1:0.3")
    assert np.allclose(out, [0.0, 0.3, 0.6, 0.9])


def test_parse_range_pi_bounds():
    out = parse_range("0:pi:2")
    assert np.allclose(out, [0.0, math.pi / 2, math.pi])


def test_parse_range_rejects_bad_shapes():
    with pytest.raises(UsageError):
        parse_range("1:0:4")  # reversed bounds
    with pytest.raises(UsageError):
        parse_range("0:1:-2")
    with pytest.raises(UsageError):
        parse_range("0:1:0")
    with pytest.raises(UsageError):
        parse_range("1:2:3:4")


# --- command surface ----------------------------------------------------------------


def test_tee_named_state(capsys):
    assert main(["tee", "w:3", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0.444444"


def test_tee_json_payload(capsys):
    assert main(["tee", "bell", "--q", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)
    assert payload["method"] == "pure"


def test_entropy_with_keep(capsys):
    assert main(["entropy", "ghz:3", "--q", "2", "--keep", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_concurrence_human_lambdas(capsys):
    assert main(["concurrence", "bell"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1"


def test_monogamy_human_format(capsys):
    assert main(["monogamy", "w:3", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0.0987654, SATISFIED"


def test_monogamy_variant_exclusion(capsys):
    # --ckw is q-free and has no alpha or hierarchy variant
    for flag in (["--q", "2"], ["--alpha", "3"], ["--k", "3"]):
        assert main(["monogamy", "w:3", "--ckw", *flag]) == 1, flag
        captured = capsys.readouterr()
        assert "ckw" in captured.err.lower() and captured.out == ""


def test_indicator_upper_bound_marker(tmp_path, capsys, rng):
    psi = random_pure_state((2, 2, 2), rng)
    rho = DensityMatrix((2, 2, 2), psi.to_density().matrix)
    path = tmp_path / "mixed.json"
    save_state(rho, path)
    assert main(["indicator", str(path), "--q", "2", "--restarts", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("(upper bound)")


ROOF_KEYS = {
    "converged",
    "iterations",
    "stop_reason",
    "lower",
    "gap",
    "cost_calls",
    "agreeing_restarts",
    "restarts",
    "seed",
}


def test_roof_json_reports_stop_reason(tmp_path, capsys):
    # separable qubit x ququart block: the roof stops at its floor of 0
    a = np.kron([1.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    b = np.kron([0.6, 0.8], [0.5, 0.5, 0.5, 0.5])
    mat = 0.3 * np.outer(a, a) + 0.7 * np.outer(b, b)
    path = tmp_path / "block.json"
    save_state(DensityMatrix((2, 4), mat), path)
    assert main(["concurrence", str(path), "--restarts", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "roof" and payload["stop_reason"] == "floor"
    assert payload["c"] <= 1e-7 and payload["lower"] == 0.0 and payload["gap"] == payload["c"]
    assert ROOF_KEYS <= payload.keys() and payload["restarts"] == 4
    assert main(["tee", str(path), "--q", "2", "--restarts", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "roof-2xd" and payload["stop_reason"] == "floor"
    assert ROOF_KEYS <= payload.keys() and payload["seed"] == 42


def test_roof_json_reports_the_bracket(tmp_path, capsys):
    # an entangled qubit x qutrit mixture: the Chen-Albeverio-Fei floor is
    # positive and the roof concurrence sits above it
    rng = np.random.default_rng(23)
    mats = [random_pure_state((2, 3), rng).to_density().matrix for _ in range(2)]
    path = tmp_path / "q23.json"
    save_state(DensityMatrix((2, 3), 0.6 * mats[0] + 0.4 * mats[1]), path)
    assert main(["concurrence", str(path), "--restarts", "4", "--json"]) == 0
    conc = json.loads(capsys.readouterr().out)
    assert conc["method"] == "roof" and ROOF_KEYS <= conc.keys()
    assert 0.0 < conc["lower"] <= conc["c"] and conc["gap"] == conc["c"] - conc["lower"]
    assert main(["tee", str(path), "--q", "2", "--restarts", "4", "--json"]) == 0
    tee = json.loads(capsys.readouterr().out)
    assert tee["method"] == "roof-2xd" and ROOF_KEYS <= tee.keys()
    # the tee bracket is the concurrence bracket mapped through the TEE curve
    assert tee["roof_concurrence"] == conc["c"]
    assert tee["lower"] == tee_from_concurrence_sq(conc["lower"] ** 2, 2.0)
    assert tee["gap"] == tee["value"] - tee["lower"]


def test_tee_json_bracket_is_in_tee_units(tmp_path, capsys):
    # a rank-2 qubit x qutrit mixture whose concurrence floor (0.496) lies
    # above its TEE value (0.174): lower must bracket the TEE, not the roof c
    rng = np.random.default_rng(5)
    mats = [random_pure_state((2, 3), rng).to_density().matrix for _ in range(2)]
    path = tmp_path / "q23.json"
    save_state(DensityMatrix((2, 3), 0.6 * mats[0] + 0.4 * mats[1]), path)
    assert main(["tee", str(path), "--q", "2", "--restarts", "8", "--json"]) == 0
    tee = json.loads(capsys.readouterr().out)
    assert tee["exact"] and 0.0 < tee["lower"] <= tee["value"]
    assert tee["gap"] == tee["value"] - tee["lower"]


def test_indicator_json_reports_stop_reason(tmp_path, capsys, rng):
    # biseparable mixture: the indicator roof stops at its floor of 0
    path = tmp_path / "mixed.json"
    save_state(random_biseparable_mixture(rng, members=2), path)
    args = ["indicator", str(path), "--q", "2", "--restarts", "4", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stop_reason"] == "floor" and payload["converged"]
    assert payload["upper_bound"] and payload["value"] <= 1e-7
    assert ROOF_KEYS <= payload.keys() and payload["restarts"] == 4


def test_state_writes_loadable_json(tmp_path):
    out = tmp_path / "w4.json"
    assert main(["state", "w:4", "--out", str(out)]) == 0
    back = load_state(out)
    assert back.dims == (2, 2, 2, 2)


def test_state_stdout_matches_save_state(tmp_path, capsys):
    rng = np.random.default_rng(9)
    for state in (random_pure_state((2, 3), rng), random_biseparable_mixture(rng, members=2)):
        path = str(tmp_path / "s.json")
        save_state(state, path)
        capsys.readouterr()
        assert main(["state", path]) == 0
        with open(path, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()


def test_state_resolution_errors(capsys):
    assert main(["tee", "nope:3", "--q", "2"]) == 1
    assert "unknown state" in capsys.readouterr().err


def test_pure_tee_allows_any_positive_q(capsys):
    # the pure-state value is a plain marginal entropy, no window needed
    assert main(["tee", "bell", "--q", "9"]) == 0
    assert main(["tee", "bell", "--q", "0"]) == 2


def test_mixed_tee_window_gate_and_force(tmp_path, capsys, rng):
    a = random_pure_state((2, 2), rng)
    b = random_pure_state((2, 2), rng)
    mat = 0.5 * a.to_density().matrix + 0.5 * b.to_density().matrix
    path = tmp_path / "m.json"
    save_state(DensityMatrix((2, 2), mat), path)
    assert main(["tee", str(path), "--q", "9"]) == 2
    assert main(["tee", str(path), "--q", "9", "--force-q"]) == 0


def test_force_q_help_names_the_closed_form_an_upper_bound(capsys):
    with pytest.raises(SystemExit):
        main(["tee", "--help"])
    assert "outside its window (upper bound)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "verb,cut",
    [(["tee", "--q", "2"], "9"), (["concurrence"], "-3")],
)
def test_mixed_cut_out_of_range_is_refused(tmp_path, capsys, rng, verb, cut):
    # the Wootters and closed-form paths never use the cut, but it is checked
    # as on the pure path
    path = tmp_path / "rho22.json"
    save_state(DensityMatrix((2, 2), random_pure_state((2, 2), rng).to_density().matrix), path)
    assert main([verb[0], "--in", str(path), *verb[1:], "--cut", cut, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: party {cut} out of range for 2 subsystems\n"
    assert captured.out == ""


def test_load_refuses_hermiticity_beyond_constructor_slack(tmp_path, capsys):
    # one Hermiticity tolerance, the constructor's 1e-10: 5e-9 is refused
    mat = np.eye(4) / 4
    mat[0, 1] = 5e-9
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": np.stack([mat, 0 * mat], -1).tolist()}))
    assert main(["entropy", "--in", str(path), "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: density matrix is not Hermitian (max deviation 5.000e-09)\n"
    assert captured.out == ""


def test_scan_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "tee-sq-curvature", "--x", "0:1:5", "--q", "1.2:3.8:7"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "x,q,value"
    assert len(lines) == 1 + 6 * 8


def test_scan_sign_violation_reported_but_exit_zero(capsys):
    assert main(["scan", "tee-curvature", "--x", "0.5", "--q", "4.2", "--sign", "nonnegative"]) == 0
    out = capsys.readouterr().out
    assert "1 violations (tolerance 1e-10); worst -0.0996558 at (0.5, 4.2)" in out


def test_scan_sign_json_counts_every_violation_and_lists_ten(capsys, monkeypatch):
    made = []

    def record(*args):
        made.append(SignScanReport(*args))
        return made[-1]

    monkeypatch.setattr(cli, "SignScanReport", record)
    args = ["scan", "tee-curvature", "--x", "0.3:0.7:4", "--q", "4:4.25:3", "--sign", "nonnegative"]
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_violations"] == 20 and not payload["ok"]
    assert len(payload["violations"]) == 10
    assert [(v["x"], v["q"]) for v in payload["violations"][:5]] == [
        (0.3, 4.0), (0.3, 4.083333333333333), (0.3, 4.166666666666667), (0.3, 4.25),
        (0.39999999999999997, 4.0),
    ]
    # the report holds the ten samples it shows, not one per violation
    assert len(made[0].violations) == 10 and made[0].num_violations == 20
    assert main(args) == 0
    assert "20 violations (tolerance 1e-10); worst -0.104079 at (0.7, 4.25)" in capsys.readouterr().out


@pytest.mark.parametrize("sign", [[], ["--sign", "nonnegative"]])
def test_scan_json_keys_match_across_subjects(capsys, sign):
    keys = []
    for grid in (["tee-curvature", "--x", "0:1:4", "--q", "2:3:2"], ["example4", "--q", "1.01:4.3:4"]):
        assert main(["scan", *grid, *sign, "--json"]) == 0
        keys.append(set(json.loads(capsys.readouterr().out)))
    assert keys[0] == keys[1]


def test_scan_family_csv(tmp_path, capsys):
    path = tmp_path / "w.csv"
    assert main(["scan", "w-indicator", "--n", "4", "--q", "1:4:6", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "q,value"
    assert len(lines) == 8


def test_scan_family_sign_claim(capsys):
    args = ["scan", "example3", "--theta", "0:pi/2:12", "--q", "1.01:4.3:8", "--sign", "nonnegative"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "violations" in out and "worst -0.06" in out
    assert main(["scan", "w-indicator", "--n", "4", "--q", "1:4.3:6", "--sign", "nonnegative"]) == 0
    assert "claimed nonnegative: ok" in capsys.readouterr().out


def test_scan_gw_grid(tmp_path, capsys):
    path = tmp_path / "gw.csv"
    args = [
        "scan", "gw-indicator",
        "--theta", "0.3:2.8:3",
        "--phi", "0:2pi:4",
        "--q", "2",
        "--csv", str(path),
    ]
    assert main(args) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,value"
    assert len(lines) == 1 + 4 * 5


@pytest.mark.parametrize(
    "fault,message",
    [
        (
            ["--theta", "0:1:2", "--phi", "pi/2", "--q", "2"],
            "generalized_w amplitudes vanish at theta=np.float64(0.0), "
            "phi=np.float64(1.5707963267948966)",
        ),
        (["--q", "5"], "q=5 is outside the window where pair terms are exact"),
        (["--q", "2", "--focus", "3"], "focus 3 out of range for 3 qubits"),
    ],
)
def test_scan_gw_single_faults(capsys, fault, message):
    grid = [] if "--theta" in fault else ["--theta", "0.02:3.12:32", "--phi", "0:2pi:64"]
    assert main(["scan", "gw-indicator", *grid, *fault]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["monogamy", "w:4", "--q", "2", "--alpha", "nan"], "alpha must be >= 2, got nan"),
        (
            ["scan", "tee-curvature", "--x", "nan", "--q", "2", "--sign", "nonnegative"],
            "squared concurrence must lie in [0, 1]",
        ),
    ],
)
def test_nan_range_values_are_refused(capsys, argv, message):
    # a NaN exponent or squared concurrence used to print a verdict and exit 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "example3", "--theta", "nan", "--q", "2"], "--theta must be finite, got 'nan'"),
        (
            ["scan", "gw-indicator", "--theta", "nan", "--phi", "0", "--q", "2"],
            "--theta must be finite, got 'nan'",
        ),
        (
            ["scan", "gw-indicator", "--theta", "0.5", "--phi", "inf", "--q", "2"],
            "--phi must be finite, got 'inf'",
        ),
        (
            ["scan", "example3", "--theta", "0:inf:4", "--q", "2"],
            "range endpoints must be finite, got '0:inf:4'",
        ),
        (
            ["scan", "tee-curvature", "--x", "0:1:nan", "--q", "2"],
            "range step must be finite, got '0:1:nan'",
        ),
    ],
)
def test_non_finite_axes_are_refused(capsys, argv, message):
    # an angle axis used to scan NaN and print min nan, max nan with numpy
    # warnings; a NaN step raised a traceback and an infinite one made a
    # one-point grid
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_indicator_pure_n_qubits(capsys):
    assert main(["indicator", "w:4", "--q", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(w_indicator_closed_form(4, 2.0), abs=1e-12)
    assert payload["upper_bound"] is False


def test_verify_exit_codes(capsys):
    assert main(["verify", "appendix-a"]) == 0
    out = capsys.readouterr().out
    assert "4/4 checks passed" in out
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_examples_fails_by_design(capsys):
    # the family residual does dip negative inside the window, so this suite
    # must report the counterexample and exit 3
    assert main(["verify", "examples"]) == 3
    out = capsys.readouterr().out
    assert "FAIL examples/example3-grid-nonnegative" in out


def test_verify_examples_names_the_smaller_of_two_tied_thetas(capsys, monkeypatch):
    # theta = 0.7534 and its mirror 0.8174 tie to rounding at q = 3.3924;
    # raising the 0.7534 value by one ulp must not move the named point
    residual = cli.example3_residual

    def nudged(thetas, qs):
        values = residual(thetas, qs)
        i, j = np.argwhere(np.isclose(thetas, 0.7534, atol=5e-5) & np.isclose(qs, 3.3924, atol=5e-5))[0]
        values[i, j] = np.nextafter(values[i, j], np.inf)
        return values

    monkeypatch.setattr(cli, "example3_residual", nudged)
    assert main(["verify", "examples"]) == 3
    out = capsys.readouterr().out
    line = "FAIL examples/example3-grid-nonnegative: min residual -0.0660406 at theta=0.7534, q=3.3924"
    assert line in out.splitlines()


VERIFY_INVENTORY = [
    ("appendix-a", "critical-q-roots"),
    ("appendix-a", "limit-sign-change"),
    ("appendix-a", "window-convexity-grid"),
    ("appendix-a", "vn-branch-continuity"),
    ("appendix-b", "sq-curvature-nonnegative"),
    ("appendix-b", "constant-curvature-q2-q3"),
    ("appendix-b", "q4-left-endpoint"),
    ("appendix-b", "finite-difference-agreement"),
    ("appendix-c", "concave-low-band"),
    ("appendix-c", "convex-middle-band"),
    ("appendix-c", "concave-high-band"),
    ("appendix-c", "special-q-values"),
    ("appendix-c", "finite-difference-agreement"),
    ("appendix-d", "example3-theta-pi4-q2"),
    ("appendix-d", "example4-q2"),
    ("appendix-d", "example5-q2"),
    ("appendix-d", "example5-q3"),
    ("appendix-d", "w3-q2"),
    ("appendix-d", "ghz3-q2"),
    ("appendix-d", "w3-alpha3-q2"),
    ("appendix-d", "example4-root"),
    ("appendix-d", "example5-root"),
    ("theorem3-sweep", "alpha2-reduces-to-squared"),
    ("theorem3-sweep", "alpha-monogamy-sweep"),
    ("theorem3-sweep", "hierarchical-k3"),
    ("theorem3-sweep", "hierarchical-k-equals-n"),
    ("theorem3-sweep", "power-inequalities"),
    ("examples", "example4-root"),
    ("examples", "example5-root"),
    ("examples", "example3-grid-nonnegative"),
    ("examples", "gw-separable-zeros"),
    ("examples", "gw-regression-values"),
    ("examples", "gw-grid-nonnegative"),
]


def test_verify_all_inventory(capsys):
    # every suite's checks in order; only the whole-window 4x2x2 claim fails
    outputs = []
    for _ in range(2):
        assert main(["verify", "all", "--json"]) == 3
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert (payload["passed"], payload["total"], payload["ok"]) == (32, 33, False)
    got = [(s["suite"], c["name"], c["passed"]) for s in payload["suites"] for c in s["checks"]]
    failing = ("examples", "example3-grid-nonnegative")
    assert got == [(*key, key != failing) for key in VERIFY_INVENTORY]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "warp-core"]) == 1


def test_missing_file_exit(capsys):
    assert main(["entropy", "/does/not/exist.json", "--q", "2"]) == 1


def test_malformed_state_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["entropy", str(path), "--q", "2"]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"dims": [2, 2], "amplitudes": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        {"dims": [2, 2], "matrix": [[[math.nan, 0.0]] + [[0.0, 0.0]] * 3] + [[[0.0, 0.0]] * 4] * 3},
    ],
)
def test_non_finite_state_file(tmp_path, capsys, payload):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tee", "--in", str(path), "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "entries must be finite" in captured.err


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert main(["tee", "w:3", "--q", "2", "--out", str(out)]) == 0
    assert out.read_text().strip() == "0.444444"


def test_json_output_sorted_keys(capsys):
    assert main(["monogamy", "ghz:3", "--q", "2", "--json"]) == 0
    payload = capsys.readouterr().out
    data = json.loads(payload)
    assert list(data.keys()) == sorted(data.keys())


def test_python_dash_m_package_runs_the_cli():
    # `python -m tsallisq` and `python -m tsallisq.cli` are the same command line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "verify", "appendix-a"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for module in ("tsallisq", "tsallisq.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != ""


# --- rules the parser owns, and paths no other test reaches ---------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["scan", "example4", "--q", "1:2:2", "--theta", "5", "--focus", "9", "--n", "77"],
            "unrecognized arguments: --theta 5 --focus 9 --n 77",
        ),
        (
            ["scan", "tee-curvature", "--x", "0:1:4", "--q", "2", "--n", "4"],
            "unrecognized arguments: --n 4",
        ),
        (
            ["scan", "example3", "--theta", "0:1:2", "--q", "2", "--phi", "0"],
            "unrecognized arguments: --phi 0",
        ),
        (["scan", "--json", "example4", "--q", "1:2:2"], "unrecognized arguments: --json"),
        (
            ["scan", "gw-indicator", "--theta", "0:1:2", "--q", "2"],
            "the following arguments are required: --phi",
        ),
        (["scan", "tee-sq-curvature", "--q", "2"], "the following arguments are required: --x"),
    ],
)
def test_scan_subjects_take_only_their_own_flags(capsys, argv, message):
    # each subject's parser declares the flags it reads: an ignored flag used
    # to be accepted silently, and the grid printed as if it were absent
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["monogamy", "w:3", "--q", "2", "--alpha", "3", "--k", "3"],
            "argument --k: not allowed with argument --alpha",
        ),
        (["monogamy", "w:3"], "--q is required (or pass --ckw)"),
        (["scan", "tee-curvature", "--x", "0:1:-0.5", "--q", "2"], "step must be positive, got -0.5"),
        (
            ["entropy", "ghz:3", "--q", "2", "--keep", "0,a"],
            "--keep wants comma-separated indices, got '0,a'",
        ),
        (["entropy", "--q", "2"], "provide exactly one of a state spec or --in FILE"),
        (["tee", "gw:pi/2", "--q", "2"], "gw needs two angles, e.g. gw:pi/2:pi/4"),
        (["tee", "example3", "--q", "2"], "example3 needs an angle, e.g. example3:pi/4"),
        (["tee", "ghz:x", "--q", "2"], "bad qubit count in 'ghz:x'"),
    ],
)
def test_usage_errors_exit_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_infinite_alpha_is_refused(capsys):
    # alpha >= 2 was the whole rule, so inf printed "0, SATISFIED" and its
    # --json payload read "alpha": Infinity, which is not JSON
    for extra in ([], ["--json"]):
        assert main(["monogamy", "ghz:3", "--q", "2", "--alpha", "inf", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: alpha must be finite, got inf\n" and captured.out == ""


@pytest.mark.parametrize("suite", sorted(verify._SUITES) + ["all"])
def test_verify_refuses_a_negative_seed_before_any_suite(capsys, suite):
    # theorem3-sweep used to end in numpy's traceback and appendix-a to pass
    assert main(["verify", suite, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be nonnegative\n" and captured.out == ""


def test_a_drifted_critical_q_root_fails_its_check(capsys, monkeypatch):
    # critical_q returns its bisection roots and the verify check judges them;
    # a drift used to raise a RuntimeError that escaped as a traceback
    find_root = analysis.find_root_q
    monkeypatch.setattr(analysis, "find_root_q", lambda *a, **kw: find_root(*a, **kw) + 1e-9)
    assert main(["verify", "appendix-a"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL appendix-a/critical-q-roots: ")
    assert lines[-1] == "3/4 checks passed"


@pytest.mark.parametrize(
    "verb,message",
    [
        (["concurrence"], "concurrence for mixed states needs a bipartite density matrix"),
        (
            ["tee", "--q", "2"],
            "tee for mixed states supports (2,2) and qubit-qudit bipartitions only",
        ),
        (
            ["monogamy", "--q", "2"],
            "monogamy checks take pure states; use the indicator command for "
            "mixed three-qubit input",
        ),
    ],
)
def test_mixed_three_qubit_input_is_refused_where_no_route_takes_it(
    tmp_path, capsys, rng, verb, message
):
    path = tmp_path / "bisep.json"
    save_state(random_biseparable_mixture(rng, members=2), path)
    assert main([verb[0], str(path), *verb[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "spec,state",
    [
        ("gw:pi/2:pi/4", generalized_w(math.pi / 2, math.pi / 4)),
        ("example3:pi/4", example3_state(math.pi / 4)),
        ("example4", example4_state()),
        ("example5", example5_state()),
    ],
)
def test_family_shorthands_resolve_to_the_library_states(capsys, spec, state):
    assert main(["tee", spec, "--q", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == tee_pure(state, 0, 2.0)


def test_concurrence_of_a_two_qubit_file_reports_wootters_lambdas(tmp_path, capsys, rng):
    a, b = (random_pure_state((2, 2), rng).to_density().matrix for _ in range(2))
    path = tmp_path / "rho22.json"
    save_state(DensityMatrix((2, 2), 0.7 * a + 0.3 * b), path)
    assert main(["concurrence", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = concurrence_two_qubit(load_state(path))
    assert payload["method"] == "wootters" and payload["c"] == want.c
    assert payload["lambdas"] == list(want.lambdas)


def test_entropy_keeps_a_marginal_of_a_mixed_file(tmp_path, capsys, rng):
    path = tmp_path / "bisep.json"
    save_state(random_biseparable_mixture(rng, members=2), path)
    assert main(["entropy", "--in", str(path), "--q", "2", "--keep", "0,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [2, 2] and payload["keep"] == [0, 2]
    assert payload["value"] == tsallis_entropy(load_state(path).partial_trace((0, 2)), 2.0)


@pytest.mark.parametrize(
    "argv,variant,report",
    [
        (
            ["w:4", "--q", "2", "--alpha", "3"],
            "alpha",
            lambda: alpha_residual(w_state(4), 0, 3.0, 2.0),
        ),
        (
            ["w:5", "--q", "2", "--k", "3"],
            "hierarchical",
            lambda: hierarchical_check(w_state(5), 0, 3, 2.0, RoofConfig()),
        ),
        (["ghz:3", "--ckw"], "ckw", lambda: ckw_check(ghz(3), 0)),
    ],
)
def test_monogamy_variants_report_the_library_values(capsys, argv, variant, report):
    assert main(["monogamy", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = report()
    assert payload["variant"] == variant
    got = (payload["lhs"], payload["terms"], payload["residual"])
    assert got == (want.lhs, list(want.terms), want.residual)
    assert main(["monogamy", *argv]) == 0
    verdict = "SATISFIED" if want.satisfied else "VIOLATED"
    assert capsys.readouterr().out == f"{want.residual:.6g}, {verdict}\n"


def _route_input(tmp_path, rng, kind: str) -> str:
    """A state argument for one command route: a shorthand, or a mixed file."""
    if kind == "22":
        a, b = (random_pure_state((2, 2), rng).to_density().matrix for _ in range(2))
        state = DensityMatrix((2, 2), 0.6 * a + 0.4 * b)
    elif kind == "23":
        a, b = (random_pure_state((2, 3), rng).to_density().matrix for _ in range(2))
        state = DensityMatrix((2, 3), 0.6 * a + 0.4 * b)
    elif kind == "bisep":
        state = random_biseparable_mixture(rng, members=2)
    else:
        return kind
    path = tmp_path / f"{kind}.json"
    save_state(state, path)
    return str(path)


@pytest.mark.parametrize(
    "flag,message",
    [
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--restarts", "0"], "need at least one restart"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["concurrence", "bell"],
        ["concurrence", "22"],
        ["concurrence", "23"],
        ["concurrence", "bisep"],
        ["concurrence", "w:3", "--json"],
        ["tee", "bell", "--q", "2"],
        ["tee", "22", "--q", "2"],
        ["tee", "23", "--q", "2"],
        ["tee", "bisep", "--q", "2"],
        ["monogamy", "w:3", "--q", "2"],
        ["monogamy", "w:3", "--q", "2", "--alpha", "3"],
        ["monogamy", "w:4", "--q", "2", "--k", "3"],
        ["monogamy", "w:3", "--ckw"],
        ["monogamy", "bisep", "--q", "2"],
        ["indicator", "w:4", "--q", "2"],
        ["indicator", "bisep", "--q", "2"],
    ],
)
def test_roof_arguments_are_checked_on_every_route(tmp_path, capsys, rng, argv, flag, message):
    # only a route that ran a roof used to build RoofConfig, so the pure,
    # Wootters and closed-form routes printed a value and exited 0
    verb, kind, *rest = argv
    assert main([verb, _route_input(tmp_path, rng, kind), *rest, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_state_errors_come_before_the_roof_arguments(capsys):
    assert main(["tee", "nosuch", "--q", "2", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown state spec 'nosuch' (not a shorthand, not a file)\n"
    assert captured.out == ""


def test_empty_keep_is_a_usage_error(capsys):
    # an empty --keep used to read as no --keep and print the whole state's entropy
    assert main(["entropy", "ghz:3", "--q", "2", "--keep", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --keep wants comma-separated indices, got ''\n"
    assert captured.out == ""
