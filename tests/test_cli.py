"""End-to-end tests for the guesslab command line interface.

Each subcommand is driven through ``dispatch`` with temporary JSON source
configs, and every CSV/JSON cell is checked against a direct library call.
Cells carry 17 significant digits, so float comparisons are exact
round-trips, not approximations.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import guesslab
from guesslab import cli
from guesslab import guesswork as guesswork_module
from guesslab.cli import dispatch
from guesslab.entropy import conditional_renyi_arimoto, renyi_entropy
from guesslab.guesswork import (
    BUDGET_CAP,
    guess_rank_indices,
    guesswork_distribution,
    moment_bounds,
)
from guesslab.ldp import RateFunction, empirical_exponent, scgf_derivative, scgf_limit
from guesslab.model import Distribution, load_source_file
from guesslab.montecarlo import estimate_log_guesswork_rate, estimate_moment
from guesslab.parallel import (
    UserEnsemble,
    kmin_distribution,
    rate_parallel,
    rate_parallel_iid,
    scgf_parallel,
    scgf_parallel_iid,
)

import _oracle

LN2 = math.log(2.0)

BSC_CONFIG = {
    "x_symbols": ["0", "1"],
    "y_symbols": ["0", "1"],
    "joint": [[0.45, 0.05], [0.05, 0.45]],
}
UNIFORM_CONFIG = {
    "x_symbols": ["0", "1"],
    "y_symbols": ["y"],
    "joint": [[0.5], [0.5]],
}


@pytest.fixture()
def bsc_path(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps(BSC_CONFIG))
    return str(path)


@pytest.fixture()
def uniform_path(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(UNIFORM_CONFIG))
    return str(path)


def q_ary_symmetric_config(q: int, eps: float) -> dict:
    """Uniform q-ary input through a q-ary symmetric channel that errs with probability eps."""
    hit, miss = (1.0 - eps) / q, eps / (q - 1) / q
    symbols = [str(i) for i in range(q)]
    return {"x_symbols": symbols, "y_symbols": symbols,
            "joint": [[hit if x == y else miss for y in range(q)] for x in range(q)]}


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_csv_and_stderr_manifest(capsys, bsc_path):
    code, out, err = run_cli(
        capsys, ["entropy", "--source", bsc_path, "--orders", "0.5,1,2"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["order", "conditional", "unconditional"]
    assert len(rows) == 3

    source = load_source_file(bsc_path)
    marginal = Distribution(source.x_alphabet, source.joint.sum(axis=1))
    for row, order in zip(rows, (0.5, 1.0, 2.0)):
        assert float(row[0]) == order
        assert float(row[1]) == conditional_renyi_arimoto(source, order)
        assert float(row[2]) == renyi_entropy(marginal, order)

    manifest = json.loads(err)
    assert manifest["subcommand"] == "entropy"
    assert manifest["outputs"] == []
    assert manifest["sources"] == {bsc_path: file_digest(bsc_path)}
    params = manifest["parameters"]
    assert params["orders"] == [0.5, 1.0, 2.0]
    assert params["bits"] is False
    assert params["source"] == bsc_path
    assert "handler" not in params
    assert "out" not in params  # None-valued flags are dropped


def test_entropy_bits_divides_by_ln2(capsys, bsc_path):
    code, out, _ = run_cli(
        capsys, ["entropy", "--source", bsc_path, "--orders", "2", "--bits"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    source = load_source_file(bsc_path)
    assert float(rows[0][1]) == conditional_renyi_arimoto(source, 2.0) / LN2


def test_cached_parser_keeps_no_flags_between_calls(capsys, bsc_path, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    source = load_source_file(bsc_path)
    argv = ["entropy", "--source", bsc_path, "--orders", "2"]
    _, bits_out, _ = run_cli(capsys, argv + ["--bits"])
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert float(csv_rows(bits_out)[1][0][1]) == conditional_renyi_arimoto(source, 2.0) / LN2
    assert float(csv_rows(out)[1][0][1]) == conditional_renyi_arimoto(source, 2.0)
    assert json.loads(err)["parameters"]["bits"] is False

    path = str(tmp_path / "entropy.csv")
    assert run_cli(capsys, argv + ["--out", path]) == (0, "", "")
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out == open(path, encoding="utf-8").read()
    manifest = json.loads(err)
    assert manifest["outputs"] == [] and "out" not in manifest["parameters"]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_table_and_bound_cells(capsys, bsc_path):
    code, out, _ = run_cli(
        capsys,
        ["moments", "--source", bsc_path, "--n", "4", "--alphas", "-0.5,1,2"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "alpha", "exact", "lower", "upper", "scgf_empirical"]
    assert len(rows) == 3

    source = load_source_file(bsc_path)
    dist = guesswork_distribution(source, 4)
    for row, alpha in zip(rows, (-0.5, 1.0, 2.0)):
        assert int(row[0]) == 4
        assert float(row[1]) == alpha
        assert float(row[2]) == dist.moment(alpha)
        assert float(row[5]) == dist.scgf_empirical(alpha)

    # bounds are emitted only on -1 < alpha < 0; elsewhere the cells are blank
    lower, upper = moment_bounds(source, 4, -0.5)
    assert float(rows[0][3]) == lower
    assert float(rows[0][4]) == upper
    assert lower <= float(rows[0][2]) <= upper
    for row in rows[1:]:
        assert row[3] == ""
        assert row[4] == ""


def test_moments_without_bound_orders_skip_the_bounds_pass(monkeypatch, capsys, bsc_path):
    scgf, calls = guesswork_module._scgf, []
    monkeypatch.setattr(guesswork_module, "_scgf", lambda *args: calls.append(args[1]) or scgf(*args))
    _, with_bounds, _ = run_cli(capsys, ["moments", "--source", bsc_path, "--n", "5", "--alphas", "-0.5,0.5,1"])
    assert len(calls) == 1  # the bounds' orders in one pass
    calls.clear()
    code, without, _ = run_cli(capsys, ["moments", "--source", bsc_path, "--n", "5", "--alphas", "0.5,1"])
    assert code == 0 and calls == []
    assert csv_rows(without)[1] == csv_rows(with_bounds)[1][1:]


@pytest.mark.parametrize("value, text", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0"), (-0.0, "-0"),
    (1e-320, "9.9998886718268301e-321"), (sys.float_info.max, "1.7976931348623157e+308"),
])
def test_format_cell_writes_17_significant_digits(value, text):
    assert cli._format_cell(value) == text
    assert cli._format_cell(np.float64(value)) == text


def test_moments_bits_scales_only_the_log_scale_column(capsys, bsc_path):
    argv = ["moments", "--source", bsc_path, "--n", "6", "--alphas", "-0.5,1"]
    _, nats_out, _ = run_cli(capsys, argv)
    code, bits_out, _ = run_cli(capsys, argv + ["--bits"])
    assert code == 0
    dist = guesswork_distribution(load_source_file(bsc_path), 6)
    for nats, bits, alpha in zip(csv_rows(nats_out)[1], csv_rows(bits_out)[1], (-0.5, 1.0)):
        assert float(nats[5]) == dist.scgf_empirical(alpha)
        assert float(bits[5]) == float(nats[5]) / LN2
        assert bits[:5] == nats[:5]  # moments and their bounds are not logs


def test_budget_exceeded_reports_json_error(capsys, bsc_path, tmp_path):
    float33 = tmp_path / "float33.json"
    float33.write_text(json.dumps({"x_symbols": ["a", "b", "c"], "y_symbols": ["u", "v", "w"],
                                   "joint": _oracle.float_source(7, 3, 3).joint.tolist()}))
    q8 = tmp_path / "q8.json"
    q8.write_text(json.dumps(q_ary_symmetric_config(8, 0.125)))
    # bsc01 past 10**8 words; nine distinct cells, C(48, 8); dist's rows: C(107, 7) y-types of 101 blocks
    for argv, required in ((["moments", "--source", bsc_path, "--n", "100000", "--alphas", "1"], 100_001 * 1563),
                           (["moments", "--source", str(float33), "--n", "40", "--alphas", "1"], math.comb(48, 8)),
                           (["dist", "--source", str(q8), "--n", "100"], math.comb(107, 7) * 101),
                           # sample's draw matrices: 100 draws of 10**8 pairs, and 10**11 draws of 10
                           (["sample", "--source", bsc_path, "--n", "100000000", "--samples", "100", "--seed", "1"],
                            10**10),
                           (["sample", "--source", bsc_path, "--n", "10", "--samples", "100000000000", "--seed", "1"],
                            10**12)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "budget_exceeded"
        assert payload["cap"] == BUDGET_CAP == 10**8
        assert payload["required"] == required
        assert "message" in payload


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def test_dist_uniform_single_block(capsys, uniform_path):
    code, out, _ = run_cli(capsys, ["dist", "--source", uniform_path, "--n", "3"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["y_type", "y_mass", "start", "count", "level"]
    assert rows == [["y:3", "1", "1", "8", "0.125"]]


def test_dist_rows_match_library_blocks(capsys, bsc_path):
    code, out, _ = run_cli(capsys, ["dist", "--source", bsc_path, "--n", "1"])
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 4
    assert {row[0] for row in rows} == {"0:1;1:0", "0:0;1:1"}

    dist = guesswork_distribution(load_source_file(bsc_path), 1)
    for row, (y_counts, y_mass, start, count, level) in zip(rows, dist.blocks):
        assert row[0] == ";".join(f"{s}:{c}" for s, c in zip(dist.y_symbols, y_counts))
        assert float(row[1]) == y_mass
        assert int(row[2]) == start
        assert int(row[3]) == count
        assert float(row[4]) == level


# ---------------------------------------------------------------------------
# scgf
# ---------------------------------------------------------------------------


def test_scgf_derivative_blank_on_plateau(capsys, bsc_path):
    code, out, _ = run_cli(
        capsys, ["scgf", "--source", bsc_path, "--alphas", "-2,-1,0.5"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["alpha", "scgf_limit", "derivative"]

    source = load_source_file(bsc_path)
    for row, alpha in zip(rows, (-2.0, -1.0, 0.5)):
        assert float(row[0]) == alpha
        assert float(row[1]) == scgf_limit(source, alpha)
    assert rows[0][2] == ""
    assert rows[1][2] == ""
    assert float(rows[2][2]) == scgf_derivative(source, 0.5)


def test_comma_list_starting_with_negative_number_parses(capsys, bsc_path):
    # a leading negative element must not be mistaken for an option flag
    code, out, _ = run_cli(
        capsys, ["scgf", "--source", bsc_path, "--alphas", "-0.9,-0.5,-0.1"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(row[0]) for row in rows] == [-0.9, -0.5, -0.1]


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_grid_row_count_and_inf_sentinel(capsys, uniform_path):
    code, out, _ = run_cli(
        capsys, ["rate", "--source", uniform_path, "--xgrid", "0:0.7:0.01"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "rate"]
    assert len(rows) == 71

    rate = RateFunction.from_source(load_source_file(uniform_path))
    inf_cells = 0
    for row in rows:
        x = float(row[0])
        value = rate(x)
        if math.isinf(value):
            assert row[1] == "inf"
            inf_cells += 1
        else:
            assert float(row[1]) == value
    # only the final grid point (0.7 + fp noise) exceeds log 2
    assert inf_cells == 1
    assert rows[-1][1] == "inf"


def test_rate_bits_scaling(capsys, uniform_path):
    code, out, _ = run_cli(
        capsys, ["rate", "--source", uniform_path, "--xgrid", "0:0:0.1", "--bits"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["0", "1"]]  # rate(0) = ln 2 exactly, i.e. one bit


# ---------------------------------------------------------------------------
# ldp
# ---------------------------------------------------------------------------


def test_ldp_rows_match_library(capsys, uniform_path):
    code, out, _ = run_cli(
        capsys,
        ["ldp", "--source", uniform_path, "--x", "0.3", "--eps", "0.05", "--nmax", "4"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "x", "eps", "empirical_exponent", "rate_function", "gap"]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]

    source = load_source_file(uniform_path)
    limit = RateFunction.from_source(source)(0.3)
    saw_empty_window = False
    for row, n in zip(rows, range(1, 5)):
        assert float(row[1]) == 0.3
        assert float(row[2]) == 0.05
        assert float(row[4]) == limit
        empirical = empirical_exponent(source, 0.3, 0.05, n)
        if math.isinf(empirical):
            assert row[3] == ("inf" if empirical > 0 else "-inf")
            assert row[5] == ""  # gap is blank when either side is infinite
            saw_empty_window = True
        else:
            assert float(row[3]) == empirical
            assert float(row[5]) == empirical - limit
    # at small n the target window contains no achievable rank
    assert saw_empty_window


def test_ldp_window_past_the_rank_range(capsys, bsc_path):
    # x - eps past log|X| is an empty window and x + eps = inf takes every rank;
    # neither may build a rank integer longer than |X|**n
    for eps, empty in (("1", True), ("1e308", False)):
        argv = ["ldp", "--source", bsc_path, "--x", "1e308", "--eps", eps, "--nmax", "2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and "Traceback" not in err
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["1", "2"]
        for row in rows:
            assert row[4] == "inf"
            if empty:
                assert row[3] == "inf"
            else:  # -n^-1 log of the whole law's float mass
                assert abs(float(row[3])) <= 1e-15


# ---------------------------------------------------------------------------
# parallel
# ---------------------------------------------------------------------------


def test_parallel_long_format_table(capsys, bsc_path):
    code, out, _ = run_cli(
        capsys,
        [
            "parallel",
            "--sources",
            f"{bsc_path},{bsc_path}",
            "--k",
            "1",
            "--n",
            "2",
            "--alphas",
            "1",
            "--xgrid",
            "0:0.6:0.3",
        ],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["quantity", "n", "alpha", "x", "value"]
    assert [row[0] for row in rows] == [
        "kmin_moment",
        "kmin_scgf_empirical",
        "scgf_parallel",
        "rate_parallel",
        "rate_parallel",
        "rate_parallel",
    ]

    source = load_source_file(bsc_path)
    ensemble = UserEnsemble((source, source), 1)
    dist = kmin_distribution(ensemble, 2)
    assert int(rows[0][1]) == 2
    assert float(rows[0][2]) == 1.0
    assert rows[0][3] == ""
    assert float(rows[0][4]) == dist.moment(1.0)
    assert float(rows[1][4]) == dist.scgf_empirical(1.0)

    assert rows[2][1] == ""
    assert float(rows[2][4]) == scgf_parallel(ensemble, 1.0)

    for row, x in zip(rows[3:], (0.0, 0.3, 0.6)):
        assert row[1] == "" and row[2] == ""
        assert float(row[3]) == x
        assert float(row[4]) == rate_parallel(ensemble, x)


def test_parallel_iid_uses_closed_form(capsys, bsc_path):
    code, out, _ = run_cli(
        capsys,
        ["parallel", "--sources", bsc_path, "--k", "1", "--iid", "--m", "2",
         "--alphas", "1"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert [row[0] for row in rows] == ["scgf_parallel"]
    source = load_source_file(bsc_path)
    assert float(rows[0][4]) == scgf_parallel_iid(source, 1, 2, 1.0)
    assert float(rows[0][4]) == pytest.approx(0.41305297631942955, abs=1e-12)


def test_parallel_iid_rate_rows_match_the_closed_form_and_the_general_path(capsys, bsc_path):
    grid = cli._grid("0:0.69:0.01")
    source = load_source_file(bsc_path)
    # at m = 7, k = 2 the assignment path's sums of seven rates differ from the closed form in the last bit
    for m, k in ((2, 1), (7, 2)):
        code, out, _ = run_cli(capsys, ["parallel", "--sources", bsc_path, "--iid", "--m", str(m), "--k", str(k),
                                        "--xgrid", "0:0.69:0.01"])
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["rate_parallel"] * len(grid)
        assert [float(row[3]) for row in rows] == grid
        iid = [float(row[4]) for row in rows]
        assert iid == rate_parallel_iid(source, k, m, grid).tolist()
        # the same source listed m times takes the assignment path
        code, out, _ = run_cli(capsys, ["parallel", "--sources", ",".join([bsc_path] * m), "--k", str(k),
                                        "--xgrid", "0:0.69:0.01"])
        assert code == 0
        general = [float(row[4]) for row in csv_rows(out)[1]]
        assert general == pytest.approx(iid, abs=1e-12)


def test_parallel_flag_misuse_is_an_ensemble_error(capsys, bsc_path):
    code, _, err = run_cli(
        capsys,
        ["parallel", "--sources", f"{bsc_path},{bsc_path}", "--k", "1", "--iid",
         "--m", "2", "--alphas", "1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ensemble_error"

    code, _, err = run_cli(
        capsys,
        ["parallel", "--sources", bsc_path, "--k", "1", "--m", "2", "--alphas", "1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ensemble_error"

    code, _, err = run_cli(
        capsys,
        ["parallel", "--sources", f"{bsc_path},{bsc_path}", "--k", "3",
         "--alphas", "1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ensemble_error"


def test_parallel_kmin_moment_past_the_rank_expansion_cap(capsys, bsc_path):
    # 2**80 ranks: the moment takes the k-min law's segments, never a per-rank law
    code, out, err = run_cli(
        capsys, ["parallel", "--sources", bsc_path, "--iid", "--m", "2", "--k", "1", "--n", "80", "--alphas", "1"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    dist = kmin_distribution(UserEnsemble((load_source_file(bsc_path),) * 2, 1), 80)
    assert [row[0] for row in rows] == ["kmin_moment", "kmin_scgf_empirical", "scgf_parallel"]
    assert float(rows[1][4]) == dist.scgf_empirical(1.0)


@pytest.mark.parametrize("args", [["--n", "60000", "--alphas", "1"], ["--n", "40", "--alphas", "100000"]])
def test_parallel_kmin_past_its_limits_fails_fast(capsys, bsc_path, args):
    # a word count past MAX_KMIN_WORDS shows before any user law is built, and an
    # order past the polynomial sums' takes the capped rank-by-rank law
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["parallel", "--sources", bsc_path, "--iid", "--m", "2", "--k", "1", *args])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(err)["error"] == "ensemble_error"


def test_parallel_kmin_moment_of_twelve_users(capsys, bsc_path):
    code, out, err = run_cli(
        capsys, ["parallel", "--sources", bsc_path, "--iid", "--m", "12", "--k", "6", "--n", "10", "--alphas", "1"]
    )
    assert code == 0
    dist = kmin_distribution(UserEnsemble((load_source_file(bsc_path),) * 12, 6), 10)
    assert float(csv_rows(out)[1][1][4]) == dist.scgf_empirical(1.0)


def test_parallel_huge_rank_span_is_an_ensemble_error(capsys, bsc_path):
    # 2**15000 has more decimal digits than an int may print by default
    code, out, err = run_cli(
        capsys,
        ["parallel", "--sources", bsc_path, "--iid", "--m", "2", "--k", "1",
         "--n", "15000", "--alphas", "1"],
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ensemble_error"
    assert "2**15000" in error["message"]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_log_rate_json_is_reproducible(capsys, uniform_path):
    argv = ["sample", "--source", uniform_path, "--n", "8", "--samples", "200",
            "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["statistic"] == "log_rate"
    assert payload["n"] == 8
    assert payload["samples"] == 200
    assert payload["seed"] == 1
    assert "alpha" not in payload
    assert payload["manifest"]["subcommand"] == "sample"
    assert payload["manifest"]["sources"] == {uniform_path: file_digest(uniform_path)}

    report = estimate_log_guesswork_rate(load_source_file(uniform_path), 8, 200, 1)
    assert payload["estimate"] == report.estimate
    assert payload["std_error"] == report.std_error

    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0
    assert out2 == out


SHARP_CONFIG = {
    "x_symbols": ["0", "1"],
    "y_symbols": ["0", "1"],
    "joint": [[0.4875, 0.0125], [0.0125, 0.4875]],
}
# Reports at the shapes of the benchmark's two sampling requests (a sharp channel whose draws
# mostly repeat, and n = 32, where they are all distinct) and at n = 70.  Every rank is exact,
# so these bytes change only if the draws or the aggregation do.  "@" stands for the source's path.
PINNED_SAMPLE_REPORTS = [
    (SHARP_CONFIG, ["--n", "10", "--alpha", "0.7071", "--samples", "20000", "--seed", "1963"],
     '{"alpha": 0.7071, "estimate": 1.8410970767802137, "manifest": {"outputs": [], "parameters": '
     '{"alpha": 0.7071, "n": 10, "samples": 20000, "seed": 1963, "source": "@", "subcommand": "sample"}, '
     '"sources": {"@": "3c0a1fac8db86157"}, "subcommand": "sample"}, "n": 10, "samples": 20000, '
     '"seed": 1963, "statistic": "moment", "std_error": 0.016755876637163165}'),
    (BSC_CONFIG, ["--n", "32", "--samples", "300", "--seed", "2718"],
     '{"estimate": 0.2493421489662956, "manifest": {"outputs": [], "parameters": {"n": 32, "samples": 300, '
     '"seed": 2718, "source": "@", "subcommand": "sample"}, "sources": {"@": "361ceb1b55069549"}, '
     '"subcommand": "sample"}, "n": 32, "samples": 300, "seed": 2718, "statistic": "log_rate", '
     '"std_error": 0.006645281547352427}'),
    # 2**70 ranks: past int64, so the batch walk sums ties and ranks as Python ints
    (BSC_CONFIG, ["--n", "70", "--alpha", "0.5", "--samples", "400", "--seed", "7070"],
     '{"alpha": 0.5, "estimate": 424801.3840441714, "manifest": {"outputs": [], "parameters": {"alpha": 0.5, '
     '"n": 70, "samples": 400, "seed": 7070, "source": "@", "subcommand": "sample"}, "sources": '
     '{"@": "361ceb1b55069549"}, "subcommand": "sample"}, "n": 70, "samples": 400, "seed": 7070, '
     '"statistic": "moment", "std_error": 93967.16843965453}'),
]


@pytest.mark.parametrize("config, argv, want", PINNED_SAMPLE_REPORTS)
def test_sample_reports_are_pinned_byte_for_byte(capsys, tmp_path, config, argv, want):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, ["sample", "--source", str(path)] + argv)
    assert (code, err) == (0, "")
    assert out == want.replace('"@"', json.dumps(str(path))) + "\n"


@pytest.mark.parametrize("bound", [None, 8], ids=["warm", "evicted"])
@pytest.mark.parametrize("config, argv, want", PINNED_SAMPLE_REPORTS)
def test_sample_reports_keep_their_bytes_on_the_source_tables(monkeypatch, capsys, tmp_path, config, argv, want,
                                                               bound):
    # the pinned reports again, now on a source whose tables hold 50 earlier ranks at the report's
    # n, or under a bound of 8 entries that evicts them, and the sampler's states, mid-walk
    if bound is not None:
        monkeypatch.setattr(guesswork_module, "MAX_RANK_TABLE_ENTRIES", bound)
    path = tmp_path / "source.json"
    path.write_text(json.dumps(config))
    source = load_source_file(str(path))
    n, y_size = int(argv[argv.index("--n") + 1]), source.y_alphabet.size
    for row in np.random.default_rng(n).choice(source.joint.size, (50, n), p=source.joint.ravel()).tolist():
        guess_rank_indices(source, [c // y_size for c in row], [c % y_size for c in row])
    tables = source.rank_tables(n)
    monkeypatch.setattr(cli, "load_source_file", lambda _: source)
    code, out, err = run_cli(capsys, ["sample", "--source", str(path)] + argv)
    assert (code, err) == (0, "")
    assert out == want.replace('"@"', json.dumps(str(path))) + "\n"
    assert source.rank_tables(n) is tables


def test_sample_moment_includes_alpha(capsys, uniform_path):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--source", uniform_path, "--n", "4", "--alpha", "1",
         "--samples", "150", "--seed", "9"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["statistic"] == "moment"
    assert payload["alpha"] == 1.0
    report = estimate_moment(load_source_file(uniform_path), 4, 1.0, 150, 9)
    assert payload["estimate"] == report.estimate


def test_sample_out_writes_file(capsys, tmp_path, uniform_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        ["sample", "--source", uniform_path, "--n", "4", "--samples", "150",
         "--seed", "9", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["statistic"] == "log_rate"
    assert payload["seed"] == 9


def test_sample_rejects_bad_parameters(capsys, uniform_path):
    code, _, err = run_cli(
        capsys,
        ["sample", "--source", uniform_path, "--n", "4", "--samples", "50",
         "--seed", "1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "sample_error"


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4", "--samples", "100", "--seed", "-1"],
        ["--n", "4", "--samples", "100", "--seed", str(2**128)],
        # G^4 past the float range: no Infinity or NaN in the report
        ["--n", "300", "--samples", "100", "--seed", "5", "--alpha", "4"],
    ],
)
def test_sample_bad_seed_and_overflow_are_json_errors(capsys, uniform_path, argv):
    code, out, err = run_cli(capsys, ["sample", "--source", uniform_path] + argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "sample_error"


# ---------------------------------------------------------------------------
# output files, errors, exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--source", "{bsc}", "--orders", "0.5,1,2"],
        ["moments", "--source", "{bsc}", "--n", "4", "--alphas", "0.5,1"],
        ["dist", "--source", "{bsc}", "--n", "3", "--bits"],
        ["scgf", "--source", "{bsc}", "--alphas", "-0.5,1"],
        ["rate", "--source", "{bsc}", "--xgrid", "0.02:0.7:0.01", "--out", "{out}"],
        ["ldp", "--source", "{bsc}", "--x", "0.3", "--eps", "0.1", "--nmax", "4"],
        ["parallel", "--sources", "{bsc}", "--iid", "--m", "2", "--k", "1", "--n", "3", "--alphas", "1"],
        ["sample", "--source", "{bsc}", "--n", "4", "--samples", "200", "--seed", "1", "--alpha", "0.5"],
    ],
)
def test_manifest_bytes_match_dataclass_asdict(capsys, monkeypatch, tmp_path, bsc_path, argv):
    out_path = tmp_path / "out.csv"
    argv = [tok.format(bsc=bsc_path, out=out_path) for tok in argv]
    made, manifest = [], cli._manifest
    monkeypatch.setattr(cli, "_manifest", lambda *args: made.append(manifest(*args)) or made[-1])
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    (m,) = made
    want = json.dumps(asdict(m), sort_keys=True)
    if argv[0] == "sample":
        assert json.dumps(json.loads(out)["manifest"], sort_keys=True) == want
    elif "--out" in argv:
        assert (tmp_path / "out.csv.manifest.json").read_text() == want + "\n"
    else:
        assert err == want + "\n"


def test_out_writes_csv_and_sibling_manifest(capsys, tmp_path, bsc_path):
    out_path = tmp_path / "entropy.csv"
    code, out, err = run_cli(
        capsys,
        ["entropy", "--source", bsc_path, "--orders", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    assert err == ""

    header, rows = csv_rows(out_path.read_text())
    assert header == ["order", "conditional", "unconditional"]
    assert len(rows) == 1

    manifest = json.loads((tmp_path / "entropy.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "entropy"
    assert manifest["outputs"] == [str(out_path)]
    assert manifest["sources"][bsc_path] == file_digest(bsc_path)
    assert manifest["parameters"]["out"] == str(out_path)


def test_missing_source_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["entropy", "--source", str(tmp_path / "nope.json"), "--orders", "1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "io_error"


def test_malformed_config_is_config_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["entropy", "--source", str(path), "--orders", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "config_error"

    path.write_text(json.dumps({"x_symbols": ["0"], "joint": [[1.0]]}))
    code, _, err = run_cli(capsys, ["entropy", "--source", str(path), "--orders", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "config_error"


def test_invalid_joint_is_validation_error(capsys, tmp_path):
    path = tmp_path / "short_mass.json"
    config = {"x_symbols": ["0", "1"], "y_symbols": ["y"], "joint": [[0.4], [0.4]]}
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, ["entropy", "--source", str(path), "--orders", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "validation_error"


def test_usage_errors_exit_2(capsys, bsc_path):
    assert run_cli(capsys, ["no-such-subcommand"])[0] == 2
    assert run_cli(capsys, [])[0] == 2
    assert run_cli(capsys, ["entropy", "--source", bsc_path])[0] == 2
    assert run_cli(
        capsys, ["entropy", "--source", bsc_path, "--orders", "a,b"]
    )[0] == 2
    assert run_cli(
        capsys, ["rate", "--source", bsc_path, "--xgrid", "1:0:-1"]
    )[0] == 2
    assert run_cli(
        capsys, ["rate", "--source", bsc_path, "--xgrid", "0:inf:0.1"]
    )[0] == 2
    assert run_cli(
        capsys, ["rate", "--source", bsc_path, "--xgrid", "0:1:inf"]
    )[0] == 2
    # 10**300 points would be listed before any handler runs
    assert run_cli(
        capsys, ["rate", "--source", bsc_path, "--xgrid", "0:1:1e-300"]
    )[0] == 2
    assert run_cli(
        capsys, ["parallel", "--sources", f"{bsc_path},{bsc_path}", "--k", "1", "--alphas", "1", "--tuples"]
    )[0] == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["moments", "--source", "{bsc}", "--n", "3", "--alphas", "nan"], "guesswork_error"),
        (["moments", "--source", "{bsc}", "--n", "3", "--alphas", "inf"], "guesswork_error"),
        (["moments", "--source", "{bsc}", "--n", "3", "--alphas=-inf"], "guesswork_error"),
        (["parallel", "--sources", "{bsc},{uniform}", "--k", "1", "--n", "3", "--alphas", "nan"],
         "guesswork_error"),
        (["parallel", "--sources", "{bsc},{uniform}", "--k", "1", "--alphas", "nan"], "domain_error"),
        (["ldp", "--source", "{bsc}", "--x", "nan", "--eps", "0.1", "--nmax", "2"], "domain_error"),
        (["ldp", "--source", "{bsc}", "--x", "0.3", "--eps", "nan", "--nmax", "2"], "domain_error"),
        (["sample", "--source", "{bsc}", "--n", "3", "--alpha", "nan", "--samples", "100",
          "--seed", "1"], "sample_error"),
        (["parallel", "--sources", "{bsc}", "--iid", "--m", "2", "--k", "1", "--alphas", "nan"],
         "domain_error"),
        (["parallel", "--sources", "{bsc}", "--iid", "--m", "2", "--k", "1", "--alphas", "inf"],
         "domain_error"),
        (["scgf", "--source", "{bsc}", "--alphas", "nan"], "domain_error"),
        (["scgf", "--source", "{bsc}", "--alphas", "inf"], "domain_error"),
        (["scgf", "--source", "{bsc}", "--alphas=-inf"], "domain_error"),
    ],
)
def test_non_finite_inputs_are_json_errors(capsys, bsc_path, uniform_path, argv, error):
    argv = [tok.format(bsc=bsc_path, uniform=uniform_path) for tok in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--source", "{bsc}", "--n", "6", "--alphas", "1e308"],
        ["moments", "--source", "{bsc}", "--n", "6", "--alphas=-1e308"],
        # k-min moments past POLY_MAX_ORDER take single ranks
        ["parallel", "--sources", "{bsc},{lat22}", "--k", "1", "--n", "3", "--alphas", "1e308"],
        ["parallel", "--sources", "{bsc},{lat22}", "--k", "1", "--n", "3", "--alphas=-1e308"],
        ["parallel", "--sources", "{bsc},{lat22}", "--k", "1", "--n", "3", "--alphas", "1e9"],
        # ranks of zero pmf under weights t**alpha that overflow
        ["parallel", "--sources", "{bsc},{noiseless}", "--k", "1", "--n", "3", "--alphas", "1e308"],
        # heads past BUDGET_CAP terms
        ["moments", "--source", "{bsc}", "--n", "60", "--alphas", "1e9"],
        ["moments", "--source", "{bsc}", "--n", "60", "--alphas=-1e9"],
        ["moments", "--source", "{bsc}", "--n", "60", "--alphas", "1e308"],
        ["moments", "--source", "{bsc}", "--n", "60", "--alphas=-1e308"],
    ],
)
def test_largest_finite_orders_end_in_a_row_or_json_error(capsys, tmp_path, bsc_path, argv):
    """An order whose exact head, 4 (|alpha| + 1) ranks, is past the float range still answers."""
    lat22 = tmp_path / "lat22.json"
    lat22.write_text(json.dumps({"x_symbols": ["0", "1"], "y_symbols": ["0", "1"],
                                 "joint": [[0.5, 0.1], [0.15, 0.25]]}))
    noiseless = tmp_path / "noiseless.json"
    noiseless.write_text(json.dumps({"x_symbols": ["0", "1"], "y_symbols": ["0", "1"],
                                     "joint": [[0.5, 0.0], [0.0, 0.5]]}))
    argv = [tok.format(bsc=bsc_path, lat22=lat22, noiseless=noiseless) for tok in argv]
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert "error" in json.loads(err)


@pytest.mark.parametrize("alpha", ["1e6", "-1e6", "1e9", "-1e9", "1e308", "-1e308"])
def test_moment_heads_past_the_budget_fail_fast(capsys, bsc_path, alpha):
    # 4 (|alpha| + 1) head terms per block: about 2e8 in all at 1e6, counted before any is summed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["moments", "--source", bsc_path, "--n", "60", f"--alphas={alpha}"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "budget_exceeded"
    assert payload["required"] > payload["cap"] == BUDGET_CAP


@pytest.mark.parametrize("alpha, row", [("-1e4", "60,-10000,0.0017970102999144305,,,-0.10536051565782631"),
                                        ("-1e5", "60,-100000,0.0017970102999144305,,,-0.10536051565782631")])
def test_large_negative_orders_keep_their_rows(capsys, bsc_path, alpha, row):
    # heads of 40,004 and 400,004 terms per tail block, within the budget
    code, out, err = run_cli(capsys, ["moments", "--source", bsc_path, "--n", "60", f"--alphas={alpha}"])
    assert code == 0
    assert out == "n,alpha,exact,lower,upper,scgf_empirical\n" + row + "\n"


def test_console_script_entry_point(bsc_path):
    """CSV and manifest on success, exit 2 on a usage error, 1 and the JSON error past the budget."""
    # without an installed console script, run the package as a module
    # from the directory the tests import it from
    exe = shutil.which("guesslab")
    command = [exe] if exe else [sys.executable, "-m", "guesslab"]
    src = os.path.dirname(os.path.dirname(guesslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(command + list(argv), capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))

    proc = run("entropy", "--source", bsc_path, "--orders", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "order,conditional,unconditional"
    assert json.loads(proc.stderr)["subcommand"] == "entropy"
    proc = run("entropy", "--source", bsc_path)
    assert proc.returncode == 2
    assert proc.stdout == "" and "--orders" in proc.stderr
    proc = run("moments", "--source", bsc_path, "--n", "100000", "--alphas", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "budget_exceeded"
    assert payload["required"] == 100_001 * 1563 and payload["cap"] == BUDGET_CAP


def test_readme_command_line_section_names_every_option():
    """Every option of the parser is named in the README's "Command line" section, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (subparsers,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for sub in subparsers.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--") and option != "--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert sorted(options - named) == []
    assert sorted(named - options) == []
