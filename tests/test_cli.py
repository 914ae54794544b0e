"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexwalk
from simplexwalk import cli, csvformat, dynamics, spectral, subspace
from simplexwalk.cli import _csv_doc, _fmt, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_sweep_refuses_a_generator_that_overflows(capsys):
    code, out, err = _run(capsys, "sweep", "--M", "10", "--w", "1e308", "--lo", "1", "--hi", "2")
    _assert_refused(code, out, err)
    assert "gamma=2 at w=1e+308 overflows" in err


def test_sweep_rejects_inverted_range(capsys):
    for lo, hi in (("0.003", "0.001"), ("0.001", "inf")):
        code, out, err = _run(
            capsys, "sweep", "--M", "1000", "--w", "1", "--lo", lo, "--hi", hi
        )
        _assert_refused(code, out, err)
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


def test_evolve_overrides_land_in_their_stage(capsys):
    # each given value replaces only its own default from two_stage_schedule
    for argv, stages in (
        (["--gamma1", "0.0021", "--t2", "60"],
         "gamma_1=0.0021 t_1=24836.4706645 gamma_2=0.001 t_2=60"),
        (["--gamma2", "0.0011", "--t1", "20000"],
         "gamma_1=0.002 t_1=20000 gamma_2=0.0011 t_2=49.672941329"),
    ):
        _, out, _ = _run(capsys, "evolve", "--M", "1000", "--samples", "2", *argv)
        assert f"# stages: {stages}\n" in out


def test_evolve_rejects_negative_duration(capsys):
    for flag, value in (("--t1", "-5"), ("--t1", "inf"), ("--t2", "nan"),
                        ("--t1", "1e300")):
        code, out, err = _run(capsys, "evolve", "--M", "1000", "--w", "1", flag, value)
        _assert_refused(code, out, err)
        assert "durations" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--M", "10", "--gamma", "nan"],
    ["verify", "--M", "10", "--gamma", "inf"],
    ["evolve", "--M", "1000", "--gamma1", "inf"],
])
def test_nonfinite_gamma_is_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    _assert_refused(code, out, err)
    assert "finite" in err


def test_schedule_and_verify_refuse_a_gamma_with_one_message(capsys):
    refusals = [_run(capsys, "evolve", "--M", "5", "--gamma1", "0"),
                _run(capsys, "verify", "--M", "5", "--gamma", "0")]
    for code, out, err in refusals:
        _assert_refused(code, out, err)
    assert refusals[0][2] == refusals[1][2] == "error: gamma must be finite and > 0\n"


def test_verify_passes_small_instances(capsys):
    # tolerances grow as 100 eps ||H|| (projection) and 100 eps t ||H||
    # (dynamics, leakage) once that exceeds the 1e-10 and 1e-8 floors
    for argv, tols in (
        (["verify", "--M", "5", "--w", "2", "--gamma", "0.4"], ("1e-10", "1e-8")),
        (["verify", "--M", "3", "--w", "1", "--gamma", "0.6667"], ("1e-10", "1e-8")),
        (["verify", "--M", "10", "--gamma", "1e6"], ("2.22e-7", "2.22e-6")),
        # both tolerances round to 1.00 at three digits
        (["verify", "--M", "10", "--gamma", "4504"], ("1e-9", "1e-8")),
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out
        assert out.count(f"(tol {tols[0]})") == 1
        assert out.count(f"(tol {tols[1]})") == 2
    for x, text in ((1.0001e-8, "1e-8"), (2.2204e-7, "2.22e-7"), (1e-10, "1e-10")):
        assert cli._sci(x) == text


def test_verify_defaults_to_the_schedules_stage1_rate(capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "two_stage_schedule",
                        lambda spec: [dynamics.Stage(0.3, 1.0), dynamics.Stage(0.1, 1.0)])
    code, out, _ = _run(capsys, "verify", "--M", "6", "--w", "2")
    assert code == 0
    assert out.startswith("# verify M=6 w=2 gamma=0.3\n")


def test_verify_refuses_large_m(capsys):
    code, _, err = _run(capsys, "verify", "--M", "50", "--w", "1")
    assert code == 2
    assert "M <= 30" in err


def test_python_m_entry_point(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["simplexwalk", "census", "--M", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("simplexwalk", run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert main(["census", "--M", "3"]) == 0
    assert out == capsys.readouterr().out
    assert out.splitlines()[1] == "class_pair,weight_tier,count"


def test_csv_doc_cells_match_fmt():
    values = [0.0, -0.0, 5e-324, 1 / 3, 0.1 + 0.2, 1e-5, 1e16, 123456789012.5,
              np.inf, -np.inf, np.nan]
    doc = _csv_doc(["# one row"], "h", [np.array([values])])
    assert doc == "# one row\nh\n" + ",".join(_fmt(x) for x in values) + "\n"
    doc = _csv_doc([], "x,y", [np.array(values), np.array(values[::-1])])
    rows = doc.splitlines()[1:]
    assert rows == [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(values, values[::-1])]


def _per_row_csv_doc(comments, header, columns):
    """The per-row formatter that ``_csv_doc`` replaced, kept as its reference."""
    rows = np.column_stack(columns).tolist()
    row_fmt = ",".join(["%.12g"] * len(rows[0]))
    return "\n".join(comments + [header] + [row_fmt % tuple(row) for row in rows]) + "\n"


# rows of width 4 on either side of the first block boundary
_BLOCK_ROWS = csvformat._BLOCK_CELLS // 4


@pytest.mark.parametrize(
    "rows", [1, 255, 256, 257, 513, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 10_001])
@pytest.mark.parametrize("width", [4, 22])
def test_csv_doc_blocks_match_the_per_row_formatter(rows, width):
    rng = np.random.default_rng(rows + width)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    table[rng.random((rows, width)) < 0.01] = np.nan
    comments = ["# 100% of % signs stay %s literal", "# second"]
    columns = [table[:, 0], table[:, 1:]]
    doc = _csv_doc(comments, "h,%d", columns)
    assert doc == _per_row_csv_doc(comments, "h,%d", columns)
    assert doc.count("\n") == rows + 3


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                           min_size=1, max_size=40)))
def test_csv_doc_equals_the_per_row_formatter_on_any_float(rows):
    columns = [np.array(rows)]
    assert _csv_doc(["# h"], "h", columns) == _per_row_csv_doc(["# h"], "h", columns)


def _csv_edge_values():
    """Values at each decision of the vectorised cell formatter."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-310, 309):
        tens = float(f"1e{k}")
        values += [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]
        # the mantissa carries into the exponent; ties at the 12th digit
        for digits in ("9.9999999999995", "9.99999999999949", "9.999999999995",
                       "1.234567890125", "1.2345678901249999", "1.2345678901250001",
                       "5.0000000000005", "1.0000000000005"):
            values.append(float(f"{digits}e{k}"))
    # the switches between fixed and scientific notation at e = -5/-4 and 11/12
    values += [1e-5, 9.99999999999e-6, 9.999999999995e-5, 9.99999999999949e-5,
               1.00000000000001e-4, 99999999999.95, 99999999999.94, 999999999999.5,
               999999999999.4, 999999999999.0, 1e12, 123456789012.5, 0.1 + 0.2]
    values = np.array(values)
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


@pytest.mark.parametrize("width", [1, 3])
def test_csv_doc_equals_the_per_row_formatter_at_edge_values(width):
    values = _csv_edge_values()
    values = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    assert _csv_doc([], "h", [values]) == _per_row_csv_doc([], "h", [values])


def test_csv_tables_are_built_on_the_first_csv_not_at_import(tmp_path):
    # a fresh interpreter: --help neither imports the formatter nor builds its
    # tables, a sweep builds them
    code = (
        "import sys, simplexwalk.cli\n"
        "simplexwalk.cli.main(['--help'])\n"
        "print('simplexwalk.csvformat' in sys.modules)\n"
        "import simplexwalk.csvformat as f\n"
        "print(f._tables.cache_info().currsize)\n"
        "simplexwalk.cli.main(['sweep', '--M', '10', '--lo', '1', '--hi', '2', '--out', sys.argv[1]])\n"
        "print(f._tables.cache_info().currsize)\n"
    )
    src = str(Path(simplexwalk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "sweep.csv")], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60,
    ).stdout
    assert out.startswith("usage: simplexwalk")
    assert out.splitlines()[-3:] == ["False", "0", "1"]


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


@pytest.mark.parametrize("M, w", [
    ("13", "1e15"),     # lambda1 ~ (M + 1) / 2 = 7 is within a few eps ||A||
    ("3", "1e300"),     # the old closed form overflowed to -inf here
    ("13", "3e12"),     # 15 eps ||A|| = 0.00999 > 1e-3 lambda1
    ("1000", "1e-9"),   # lambda1 ~ w, 15 eps ||A|| = 3.3e-12
    ("9007199254740992", "2"),  # lambda1 ~ 2, 15 eps ||A|| = 30
])
def test_connectivity_refuses_a_lambda1_below_its_error_bound(capsys, monkeypatch, M, w):
    monkeypatch.setattr(subspace, "connectivity_and_norm", None)
    code, out, err = _run(capsys, "connectivity", "--M", M, "--w", w)
    _assert_refused(code, out, err)
    assert "15 eps ||A||" in err and "must be below 1e-3 of" in err


@pytest.mark.parametrize("M, w", [
    ("13", "1e12"), ("1000", "1e-8"), ("3", "1e-9"), ("1001", "2"), ("1000000", "2"),
])
def test_connectivity_accepts_a_lambda1_above_its_error_bound(capsys, M, w):
    code, out, _ = _run(capsys, "connectivity", "--M", M, "--w", w)
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(
        payload["lambda1_closed_form"], abs=15 * np.finfo(float).eps * payload["op_norm"]
    )


def test_predict_warning_is_one_plain_line_on_every_request(capsys):
    with warnings.catch_warnings():
        # the CLI's stderr does not depend on the process's warning filters
        warnings.simplefilter("ignore")
        runs = [_run(capsys, "predict", "--M", "6", "--w", "3") for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0 and json.loads(out)["w"] == 3.0
    assert err == (
        "warning: w=3.0 is not below sqrt(M)=2.449; the two critical jumping "
        "rates collide and the two-stage predictions degrade\n"
    )
    # width asks theory.predict twice (its gamma_c and the scan): still one line
    code, _, err = _run(capsys, "width", "--M", "6", "--w", "3", "--stage", "2",
                        "--offsets", "3")
    assert code == 0 and err.count("\n") == 1 and err.startswith("warning: w=3.0")


def test_predict_warns_in_one_line_at_w_below_one_over_m(capsys):
    code, out, err = _run(capsys, "predict", "--M", "1000", "--w", "0.001")
    assert code == 0 and json.loads(out)["gamma_c1"] == pytest.approx(1.001, rel=1e-12)
    assert err == (
        "warning: w=0.001 is not above 1/M=0.001; the leading-order gamma_c1=1.001 "
        "is far from the degeneracy root gamma_c1_exact=0.5025\n"
    )


def test_connectivity_accepts_m_beyond_the_dense_limit(capsys):
    code, out, _ = _run(capsys, "connectivity", "--M", "101", "--w", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(payload["lambda1_closed_form"], abs=1e-9)


@pytest.mark.filterwarnings("ignore:w=.* is not below sqrt")
def test_verify_refuses_a_tolerance_that_cannot_fail(capsys, monkeypatch):
    # ||H|| ~ 2e13, so the evolution tolerance 100 eps 10 ||H|| is 4.44 while
    # the leakage of a unit state never exceeds 1
    monkeypatch.setattr(subspace, "class_basis", None)
    monkeypatch.setattr(subspace, "full_hamiltonian", None)
    code, out, err = _run(capsys, "verify", "--M", "5", "--w", "1e14")
    _assert_refused(code, out, err)
    assert "tolerance 4.44e+0" in err


# a library call stands in for an allocation too large for memory: with
# overcommit, a real one of that size could start to succeed
@pytest.mark.parametrize("owner, name, argv", [
    (spectral, "gamma_sweep", ["sweep", "--M", "5", "--lo", "1", "--hi", "2"]),
    (dynamics, "run_schedule", ["evolve", "--M", "5"]),
    (dynamics, "width_scan", ["width", "--M", "5", "--stage", "1"]),
], ids=["sweep", "evolve", "width"])
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.28 TiB",
     "error: the request does not fit in memory: Unable to allocate 7.28 TiB"),
    ("", "error: the request does not fit in memory"),
], ids=["numpy-message", "no-message"])
def test_a_request_too_large_for_memory_is_refused(capsys, monkeypatch, owner, name, argv,
                                                   message, line):
    def allocate(*args, **kwargs):
        warnings.warn("dropped with the refusal")
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, allocate)
    code, out, err = _run(capsys, *argv)
    _assert_refused(code, out, err)
    assert err == line + "\n"


@pytest.mark.parametrize("argv", [
    ["predict", "--M", str(2**53 + 1)],
    ["predict", "--M", "1" + "0" * 320],
    ["evolve", "--M", "1" + "0" * 160, "--samples", "3"],
])
def test_m_beyond_float64_integers_is_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    _assert_refused(code, out, err)
    assert "M <= 2**53" in err


def test_predict_accepts_the_largest_float64_integer(capsys):
    code, out, _ = _run(capsys, "predict", "--M", str(2**53))
    assert code == 0
    assert json.loads(out)["M"] == 2**53


@pytest.mark.filterwarnings("ignore:w=.* is not below sqrt")
@pytest.mark.parametrize("argv", [
    ["predict", "--M", "10", "--w", "1e160"],
])
def test_nonfinite_json_value_is_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    _assert_refused(code, out, err)
    assert "JSON has no non-finite numbers" in err


@pytest.mark.filterwarnings("ignore:w=.* is not below sqrt")
@pytest.mark.parametrize("argv", [
    ["evolve", "--M", "10", "--w", "1e160", "--samples", "3"],
    ["width", "--M", "10", "--w", "1e160", "--stage", "1", "--offsets", "3"],
])
def test_huge_w_gives_finite_csv(capsys, argv):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    _, rows = _csv_rows(out)
    assert rows and all(np.isfinite(float(cell)) for row in rows for cell in row)


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


def test_width_refuses_a_detuning_that_reaches_gamma_c(capsys):
    # gamma_c2 = 1/250, so the offset -0.004 drives stage 2's gamma to 0
    _assert_refused(*_run(
        capsys, "width", "--M", "250", "--stage", "2", "--offsets", "5", "--eps-hi", "0.004"
    ))
    _assert_refused(*_run(
        capsys, "width", "--M", "250", "--stage", "2", "--offsets", "5", "--eps-hi", "inf"
    ))


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


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "taken").write_text("")
    for out in (tmp_path, tmp_path / "taken" / "x.csv"):
        code, out_text, err = _run(capsys, "census", "--M", "5", "--out", str(out))
        _assert_refused(code, out_text, err)
        assert f"--out {out}:" in err
    # an unset variable in --out "$OUT": not the current directory
    monkeypatch.chdir(tmp_path)
    code, out_text, err = _run(capsys, "census", "--M", "5", "--out", "")
    _assert_refused(code, out_text, err)
    assert "--out is empty" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cached_parser_leaks_no_state_between_calls(capsys):
    # overrides and optional flags of one call must not reach the next
    common = ["--M", "200", "--w", "1.5"]
    calls = [
        ["evolve", "--gamma1", "0.004", "--samples", "40"] + common,
        ["evolve", "--samples", "40"] + common,
        ["width", "--stage", "2", "--offsets", "7", "--eps-lo", "1e-6"] + common,
        ["width", "--stage", "2", "--offsets", "7"] + common,
        ["evolve", "--bogus"] + common,
        ["sweep", "--lo", "0.001", "--hi", "0.01", "--points", "30"] + common,
    ]
    cli._build_parser.cache_clear()
    cached = [_run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    for argv, result in zip(calls, cached):
        cli._build_parser.cache_clear()
        assert _run(capsys, *argv) == result
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 0]
    assert cached[0][1] != cached[1][1] and cached[2][1] != cached[3][1]
