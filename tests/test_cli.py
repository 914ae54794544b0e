"""Command-line interface: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from simplexwalk.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_predict_json(capsys):
    code, out, _ = _run(capsys, "predict", "--M", "1000", "--w", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["t1"] == pytest.approx(24836.47, abs=0.01)
    assert payload["gamma_c1"] == 0.002
    assert payload["validity_margin"] == pytest.approx(31.62, abs=0.01)


def test_predict_w3_gamma(capsys):
    code, out, _ = _run(capsys, "predict", "--M", "1000", "--w", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["gamma_c1"] == pytest.approx(0.001333333, rel=1e-6)


def test_predict_rejects_small_m(capsys):
    code, _, err = _run(capsys, "predict", "--M", "2", "--w", "1")
    assert code == 2
    assert "M must be" in err


def test_predict_rejects_nonpositive_w(capsys):
    for command, w in (("predict", "0"), ("predict", "inf"), ("evolve", "inf")):
        code, out, err = _run(capsys, command, "--M", "10", "--w", w)
        assert code == 2
        assert out == ""
        assert "w must be" in err


def test_sweep_csv_schema(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--M", "1000", "--w", "1",
        "--lo", "0.0005", "--hi", "0.003", "--points", "40",
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert len(header) == 22
    assert header[0] == "gamma"
    assert header[1:8] == [f"s_{k}" for k in range(7)]
    assert len(rows) == 40
    for row in rows:
        s_total = sum(float(x) for x in row[1:8])
        assert s_total == pytest.approx(1.0, abs=1e-9)


def test_sweep_crossing_positions(capsys):
    _, out, _ = _run(
        capsys, "sweep", "--M", "1000", "--w", "1",
        "--lo", "0.0005", "--hi", "0.003", "--points", "200",
    )
    _, rows = _csv_rows(out)
    data = np.array([[float(x) for x in row] for row in rows])
    diff = data[:, 1] - data[:, 2]  # s_0 - s_1
    (idx,) = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    crossing = 0.5 * (data[idx[0], 0] + data[idx[0] + 1, 0])
    assert crossing == pytest.approx(0.002, rel=0.05)


def test_sweep_rejects_inverted_range(capsys):
    code, _, err = _run(
        capsys, "sweep", "--M", "1000", "--w", "1", "--lo", "0.003", "--hi", "0.001"
    )
    assert code == 2
    assert "lo < hi" in err


def test_evolve_csv(capsys):
    code, out, _ = _run(capsys, "evolve", "--M", "1000", "--w", "1", "--samples", "50")
    assert code == 0
    assert "# stage_end_times: 24836.4706645,24886.1436058" in out
    header, rows = _csv_rows(out)
    assert header == ["t", "prob_a", "prob_b", "norm"]
    assert len(rows) == 101
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-10)
    assert float(rows[-1][1]) > 0.99


def test_evolve_w3_stage_boundary(capsys):
    _, out, _ = _run(capsys, "evolve", "--M", "1000", "--w", "3", "--samples", "10")
    assert "# stage_end_times: 12418.2353322," in out


def test_evolve_rejects_negative_duration(capsys):
    code, _, err = _run(
        capsys, "evolve", "--M", "1000", "--w", "1", "--t1", "-5"
    )
    assert code == 2
    assert "durations" in err


def test_verify_passes_small_instances(capsys):
    for argv in (
        ["verify", "--M", "5", "--w", "2", "--gamma", "0.4"],
        ["verify", "--M", "3", "--w", "1", "--gamma", "0.6667"],
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out


def test_verify_refuses_large_m(capsys):
    code, _, err = _run(capsys, "verify", "--M", "50", "--w", "1")
    assert code == 2
    assert "M <= 30" in err


def test_census_output(capsys):
    code, out, _ = _run(capsys, "census", "--M", "5")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["class_pair", "weight_tier", "count"]
    assert len(rows) == 12
    table = {(r[0], r[1]): int(r[2]) for r in rows}
    assert table[("a~c", "w")] == 1
    assert table[("g~g", "w")] == 6
    assert table[("g~g", "1")] == 12


def test_connectivity_json(capsys):
    code, out, _ = _run(capsys, "connectivity", "--M", "6", "--w", "2.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(payload["lambda1_closed_form"], abs=1e-8)
    assert payload["op_norm"] == pytest.approx(7.5, abs=1e-8)
    assert payload["normalized_connectivity"] == pytest.approx(
        payload["lambda1"] / 7.5, rel=1e-9
    )


def test_width_csv(capsys):
    code, out, _ = _run(
        capsys, "width", "--M", "250", "--w", "1", "--stage", "2", "--offsets", "5"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["epsilon", "p_peak"]
    assert len(rows) == 5
    eps = [float(r[0]) for r in rows]
    assert 0.0 in eps
    assert eps == sorted(eps)
    peaks = {float(r[0]): float(r[1]) for r in rows}
    assert peaks[0.0] > 0.9


def test_width_rejects_even_offsets(capsys):
    code, _, err = _run(
        capsys, "width", "--M", "250", "--w", "1", "--stage", "2", "--offsets", "4"
    )
    assert code == 2
    assert "odd" in err


def test_output_file_and_determinism(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code = main(
            ["sweep", "--M", "500", "--w", "2", "--lo", "0.001", "--hi", "0.005",
             "--points", "25", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIMPLEXWALK_OUTDIR", str(tmp_path))
    code = main(["predict", "--M", "10", "--w", "1", "--out", "pred.json"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "pred.json").exists()
    payload = json.loads((tmp_path / "pred.json").read_text())
    assert payload["gamma_c2"] == 0.1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
