import configparser
import dataclasses
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg

import indefbc.cli
from indefbc.cli import CSV_HEADER, main
from indefbc.config import config_from_dict, load_config
import indefbc.continuation
from indefbc.continuation import continue_branch
from indefbc.domain import build_domain
from indefbc.errors import ConfigError, ShapeMismatch
from indefbc.problem import ProblemSpec
from indefbc.spectral import weighted_steklov_spectrum

INTERVAL_INI = """\
[domain]
kind = interval
m = 2

[problem]
p = 2.0
form = w-form
g = 1.0, -4.0

[lambda]
window = 0.05, 0.7
samples = 3

[run]
seed = 0
n_inits = 8
"""

LOGISTIC_INI = INTERVAL_INI.replace("form = w-form", "form = logistic") \
                           .replace("g = 1.0, -4.0", "r = -1.0, 4.0")

DISK_INI = ("[domain]\nkind = unit-disk\nm = 32\n\n"
            "[problem]\np = 2.0\ng_terms = 1:1.0:0.0; 0:-0.3:0.0\n")


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_eig_reports_principal_eigenvalue_and_sign_law(tmp_path, capsys):
    cfg = _write(tmp_path, INTERVAL_INI)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "eig.json").read_text())
    assert payload["lambda1"] == pytest.approx(0.75)
    rows = {row["lambda"]: row["sigma1"] for row in payload["sigma1_rows"]}
    assert abs(rows[0.0]) < 1e-10
    assert abs(rows[0.75]) < 1e-8
    assert all(v > 0.0 for lam, v in rows.items() if 0.0 < lam < 0.75)
    assert "lambda1 = 0.75" in capsys.readouterr().out


def test_branch_csv_header_and_sentinels(tmp_path):
    cfg = _write(tmp_path, INTERVAL_INI)
    assert main(["branch", "--config", cfg, "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "branch.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == CSV_HEADER
    in_window = 0
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 10
        lam = float(cols[0])
        if 0.0 <= lam < 0.75:
            assert cols[7] == "+inf"  # 2x2 pencil has no second eigenvalue
            in_window += 1
        assert cols[8] == "N-minus"
    assert in_window >= 5
    diagram = (tmp_path / "branch_diagram.csv").read_text().splitlines()
    assert diagram[0] == "lambda,sup_norm"


def test_solve_probe_and_asympt_verdicts(tmp_path):
    cfg = _write(tmp_path, INTERVAL_INI)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    solved = json.loads((tmp_path / "solve.json").read_text())
    assert not solved["incomplete"]
    assert all(rec["membership"] == "N-minus" for rec in solved["solutions"])

    assert main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe["verdict"]["all_empty"]
    for rec in probe["probes"]:
        assert len(rec["findings"]) + rec["joined"] + sum(rec["failures"].values()) \
            == rec["n_inits"]

    asympt_ini = INTERVAL_INI.replace("0.05, 0.7", "0.001, 0.1")
    cfg2 = _write(tmp_path, asympt_ini, "asympt.ini")
    assert main(["asympt", "--config", cfg2, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "asympt.json").read_text())
    assert fit["verdict"]["within_band"]


def test_oracle1d_counts_and_scaling(tmp_path):
    cfg = _write(tmp_path, LOGISTIC_INI)
    assert main(["oracle1d", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oracle1d.json").read_text())
    for rec in payload["enumerations"]:
        assert len(rec["lam_u_scaling"]) == 1  # unique state above one


def test_sweep_verdict_monotone(tmp_path):
    ini = INTERVAL_INI.replace("g = 1.0, -4.0", "g = 1.0, -1.0") + \
        "\n[sweep]\ndeltas = 4.0, 2.0\n"
    cfg = _write(tmp_path, ini)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    verdict = payload["verdict"]
    assert verdict["lambda1_decreasing"] and verdict["unique_everywhere"]
    assert verdict["m_delta_nondecreasing"] and verdict["c_delta_decreasing"]
    assert all(rec["m_delta"] == "+inf" for rec in payload["sweep"])


def test_reruns_are_byte_identical(tmp_path):
    """Every command that writes a report writes the same bytes when rerun."""
    sweep = INTERVAL_INI.replace("g = 1.0, -4.0", "g = 1.0, -1.0") + \
        "\n[sweep]\ndeltas = 4.0, 2.0\n"
    asympt = INTERVAL_INI.replace("0.05, 0.7", "0.001, 0.1")
    runs = [("probe", INTERVAL_INI, ["probe.json"]), ("eig", INTERVAL_INI, ["eig.json"]),
            ("solve", INTERVAL_INI, ["solve.json"]), ("asympt", asympt, ["asympt.json"]),
            ("oracle1d", LOGISTIC_INI, ["oracle1d.json"]), ("sweep", sweep, ["sweep.json"]),
            ("branch", DISK_INI, ["branch.csv", "branch_diagram.csv", "branch.json"])]
    for command, text, names in runs:
        cfg = _write(tmp_path, text, f"{command}.ini")
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        for out in (out1, out2):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_report_echoes_raw_config_and_seed_override(tmp_path):
    cfg = _write(tmp_path, INTERVAL_INI)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "7"]) == 0
    payload = json.loads((tmp_path / "eig.json").read_text())
    echo = payload["config"]
    assert echo["problem"]["g"] == "1.0, -4.0"
    assert echo["run"]["seed"] == "7"
    # the echo round-trips through INI text
    reparsed = config_from_dict(echo)
    writer = configparser.ConfigParser()
    writer.read_dict(echo)
    buffer = io.StringIO()
    writer.write(buffer)
    reloaded = config_from_dict(_parse_ini(buffer.getvalue()))
    assert reloaded == reparsed


def _parse_ini(text):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def test_exit_codes(tmp_path, capsys):
    # 2: unreadable config
    assert main(["eig", "--config", str(tmp_path / "missing.ini")]) == 2
    # 2: invalid values
    bad = INTERVAL_INI.replace("form = w-form", "form = cubic")
    assert main(["eig", "--config", _write(tmp_path, bad, "bad.ini"),
                 "--out", str(tmp_path)]) == 2
    # 3: solver failure (no bifurcation when the weight integral is >= 0)
    nobranch = INTERVAL_INI.replace("g = 1.0, -4.0", "g = 2.0, -1.0")
    assert main(["branch", "--config", _write(tmp_path, nobranch, "nb.ini"),
                 "--out", str(tmp_path)]) == 3
    # 2: a malformed weight term, found only when the command builds the weight
    badterm = ("[domain]\nkind = unit-disk\nm = 16\n\n"
               "[problem]\np = 2.0\ng_terms = x:1:0\n")
    assert main(["branch", "--config", _write(tmp_path, badterm, "badterm.ini"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "solver error" in err
    # 2: a resolution that build_domain rejects, on the disk and on the interval
    for i, text in enumerate((DISK_INI.replace("m = 32", "m = 6"),
                              INTERVAL_INI.replace("m = 2", "m = 3"))):
        assert main(["eig", "--config", _write(tmp_path, text, f"resolution{i}.ini"),
                     "--out", str(tmp_path)]) == 2
    assert "solver error" not in capsys.readouterr().err
    # 2: inputs a command would otherwise drop: the f-form in sweep and oracle1d,
    # p != 2 under the logistic form, and keys that nothing reads
    f_interval = INTERVAL_INI.replace("form = w-form", "form = f-form") \
                             .replace("g = 1.0, -4.0", "g = 1.0, -4.0\nf = 1.0, 1.0")
    logistic = INTERVAL_INI.replace("form = w-form", "form = logistic") \
                           .replace("g = 1.0", "r = 1.0")
    dropped = [("sweep", f_interval + "\n[sweep]\ndeltas = 4.0, 2.0\n"),
               ("oracle1d", f_interval),
               ("eig", logistic.replace("p = 2.0", "p = 3.0"))]
    for typo in ("[tolerances]\nstep_mim = 0.05\n", "[tolerances]\nstep_min = 0.05\n",
                 "[run]\nseeds = 3\n", "[solver]\nmax_iter = 5\n"):
        dropped.append(("eig", INTERVAL_INI + "\n" + typo))
    for i, (command, text) in enumerate(dropped):
        assert main([command, "--config", _write(tmp_path, text, f"dropped{i}.ini"),
                     "--out", str(tmp_path / "dropped")]) == 2
    assert not list((tmp_path / "dropped").glob("*"))


F_FORM_DISK_INI = """\
[domain]
kind = unit-disk
m = 32

[problem]
p = 2.0
form = f-form
g_terms = 1:1.0:0.0; 0:-0.3:0.0
f_terms = 1:1.0:0.0; 0:-0.3:0.0; 2:0.5:0.0
"""


def test_f_form_branch_reports_the_f_pencil(tmp_path):
    """The mu_2^+ column of an f-form branch.csv is the f-pencil's, point by point
    (f = g + cos(2 theta) / 2 changes sign, so the branch runs past lambda = 0),
    each root warm from the last point's eigenvector as in ``cmd_branch``."""
    cfg = _write(tmp_path, F_FORM_DISK_INI)
    assert main(["branch", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "branch.csv").read_text().splitlines()[1:]]
    config = load_config(cfg)
    spec = config.build_spec(config.domain)
    branch = continue_branch(spec)
    lam1 = branch.bifurcation_lambda
    assert len(rows) == len(branch.points)
    compared = 0
    guess = None
    for cols, point in zip(rows, branch.points):
        assert float(cols[0]) == point.lam
        if 0.0 <= point.lam < lam1:
            mu = weighted_steklov_spectrum(spec.domain, spec.g, point.lam, point.w, spec.p,
                                           h=spec.f, guess=guess)
            assert float(cols[7]) == mu.mu2_plus
            guess = mu.mu2_vector
            compared += 1
    assert compared >= 10


def test_branch_mu2_column_costs_one_eigh(tmp_path, monkeypatch):
    """cmd_branch's mu_2^+ column on an m = 32 disk branch costs one scipy eigh in
    all: the first point's, and every later root is warm from the point before.
    Each value matches the full spectrum's mu_2^+ to 1e-12 relative, and the
    interval's column stays +inf."""
    eigh = scipy.linalg.eigh
    spectrum = indefbc.cli.weighted_steklov_spectrum
    inside, calls, pairs = [], [], []

    def counted_eigh(*args, **kwargs):
        if inside:
            calls.append(1)
        return eigh(*args, **kwargs)

    def recorded(*args, **kwargs):
        inside.append(1)
        try:
            mu = spectrum(*args, **kwargs)
        finally:
            inside.clear()
        positive = mu.mu_values[mu.mu_values > 1e-12]
        pairs.append((mu.mu2_plus, float(positive[1]) if len(positive) > 1 else math.inf))
        return mu

    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(indefbc.cli, "weighted_steklov_spectrum", recorded)
    assert main(["branch", "--config", _write(tmp_path, DISK_INI),
                 "--out", str(tmp_path / "disk")]) == 0
    assert len(pairs) >= 15 and len(calls) == 1
    for warm, full in pairs:
        assert abs(warm - full) <= 1e-12 * full
    pairs.clear()
    assert main(["branch", "--config", _write(tmp_path, INTERVAL_INI, "interval.ini"),
                 "--out", str(tmp_path / "interval")]) == 0
    assert pairs and all(warm == full == math.inf for warm, full in pairs)


def test_config_validation_messages(tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict({"lambda": {"window": "0.5, 0.1"}})
    with pytest.raises(ConfigError):
        config_from_dict({"domain": {"kind": "triangle"}})
    for section, key, value in (("problem", "p", "nan"), ("lambda", "window", "0, nan")):
        with pytest.raises(ConfigError):
            config_from_dict({section: {key: value}})
    interval = config_from_dict({"problem": {"g": "nan, -4"}})
    with pytest.raises(ConfigError):
        interval.build_weight(interval.domain, "g")
    for key, value in (("g_terms", "x:1:0"), ("g_terms", "1:nan:0"),
                       ("g_plateaus", "0:inf"), ("g_transition_width", "nan"),
                       ("g_transition_width", "0")):
        disk = config_from_dict({"domain": {"kind": "unit-disk", "m": "16"},
                                 "problem": {"g_terms": "1:1:0; 0:-0.3:0", key: value}})
        with pytest.raises(ConfigError):
            disk.build_weight(disk.domain, "g")
    with pytest.raises(ShapeMismatch):
        ProblemSpec(build_domain("interval", 2), math.nan, np.array([1.0, -4.0]))
    # weight keys the form or the domain kind does not read
    disk = {"kind": "unit-disk", "m": "16"}
    for domain, problem in (({}, {"form": "w-form", "g": "1, -4", "f": "1, 1"}),
                            ({}, {"form": "logistic", "r": "-1, 4", "g": "1, -4"}),
                            ({}, {"form": "f-form", "g": "1, -4", "f": "1, 1", "r": "1, 1"}),
                            ({}, {"form": "w-form", "g": "1, -4", "g_terms": "1:1:0"}),
                            (disk, {"g_terms": "1:1:0", "g": "1, -4"})):
        with pytest.raises(ConfigError):
            config_from_dict({"domain": domain, "problem": problem})
    for kind in ("disk", "unit_disk", "unit-disk"):
        config = config_from_dict({"domain": {**disk, "kind": kind},
                                   "problem": {"form": "f-form", "g_terms": "1:1:0; 0:-0.3:0",
                                               "f_terms": "0:1:0", "f_plateaus": "0:0.5",
                                               "f_transition_width": "0.1"}})
        assert config.domain.kind == "unit-disk"
    assert config_from_dict({"problem": {"form": "logistic", "p": "2", "r": "-1, 4"}}).p == 2.0
    cfg = load_config(_write(tmp_path, INTERVAL_INI))
    assert cfg.lam_window == (0.05, 0.7)
    assert cfg.n_inits == 8


def test_branch_reports_step_underflow_as_incomplete(tmp_path, monkeypatch):
    """DS_MIN above the initial step (0.02) stops the disk branch after its seed
    points, next to lambda_1: branch.json says why, is incomplete, and the exit is 3.
    The same disk with the real DS_MIN runs to the lambda floor."""
    cfg = _write(tmp_path, DISK_INI)
    with monkeypatch.context() as patch:
        patch.setattr(indefbc.continuation, "DS_MIN", 0.05)
        assert main(["branch", "--config", cfg, "--out", str(tmp_path / "under")]) == 3
    payload = json.loads((tmp_path / "under" / "branch.json").read_text())
    assert payload["incomplete"] and payload["termination"] == "step-underflow"
    assert payload["lam_range"][0] > 0.9 * payload["lambda1"]
    assert main(["branch", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    payload = json.loads((tmp_path / "full" / "branch.json").read_text())
    assert not payload["incomplete"] and payload["termination"] == "lam-floor"
    assert payload["lam_range"][0] < 0.0


def test_asympt_reads_the_step_options(tmp_path, monkeypatch):
    """asympt traces its branch with continuation's step bounds: DS_MIN above the
    initial step (0.02) stops the trace after its seed points, so asympt.json is
    incomplete, says why, holds no fit, and the exit is 3."""
    cfg = _write(tmp_path, INTERVAL_INI.replace("0.05, 0.7", "0.001, 0.1"))
    assert main(["asympt", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    payload = json.loads((tmp_path / "full" / "asympt.json").read_text())
    assert not payload["incomplete"] and payload["termination"] == "lam-floor"
    monkeypatch.setattr(indefbc.continuation, "DS_MIN", 0.05)
    assert main(["asympt", "--config", cfg, "--out", str(tmp_path / "under")]) == 3
    payload = json.loads((tmp_path / "under" / "asympt.json").read_text())
    assert payload["incomplete"] and payload["termination"] == "step-underflow"
    assert "verdict" not in payload and "lams" not in payload


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_eig_rows_ignore_lambda1_rounding(tmp_path, monkeypatch, direction):
    """A window grid point at the exact lambda_1 = 0.75 of g = (1, -4) stays one
    row, with the same sigma_1, when lambda_1 comes out one ulp low or high."""
    cfg = _write(tmp_path, INTERVAL_INI.replace("0.05, 0.7", "0.05, 0.75"))
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "exact")]) == 0
    principal = indefbc.cli.principal_eigenvalue

    def nudged(domain, g):  # one ulp off the closed form (g0 + g1) / (g0 g1), exact here
        exact = (g[0] + g[1]) / (g[0] * g[1])
        return dataclasses.replace(principal(domain, g),
                                   value=float(np.nextafter(exact, direction)))

    monkeypatch.setattr(indefbc.cli, "principal_eigenvalue", nudged)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "nudged")]) == 0
    exact, moved = (json.loads((tmp_path / out / "eig.json").read_text())
                    for out in ("exact", "nudged"))
    assert moved["lambda1"] != exact["lambda1"] == 0.75
    assert moved["sigma1_rows"] == exact["sigma1_rows"]
    lams = [row["lambda"] for row in exact["sigma1_rows"]]
    assert len(lams) == 4 and lams[-1] == 0.75
