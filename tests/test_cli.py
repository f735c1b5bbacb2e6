import argparse
import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from cifusion import cli, simulator, solve_ci, verifier
from cifusion.errors import InternalInconsistencyError
from cifusion.linalg import rounding_allowance
from cifusion.problem import Cost

from conftest import exit_contract_docs, well_scaled_problems


EXAMPLE2 = {
    "n": 2,
    "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
    "est2": {"H": [[1, 0], [0, 1]], "x_hat": [1, -1], "P_hat": [[1.25, 0], [0, 0.1]]},
}

SCALAR_PAIR = {
    "n": 2,
    "est1": {"H": [[1, 0]], "x_hat": [0.3], "P_hat": [[1]]},
    "est2": {"H": [[0, 1]], "x_hat": [-0.1], "P_hat": [[1]]},
}


#: a pair whose fused result certifies at eps = 3.5 (alpha = 2/9) but not
#: at a tiny stored weight
TINY_WEIGHT_PAIR = {
    "n": 2,
    "est1": {"H": [[1, 0]], "x_hat": [0.3], "P_hat": [[1]]},
    "est2": {"H": [[0, 1], [1, 1]], "x_hat": [0.1, -0.2], "P_hat": [[1, 0.1], [0.1, 2]]},
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestFuse:
    def test_example_endpoint_weight(self, tmp_path, capsys):
        rc = cli.main(["fuse", write(tmp_path, EXAMPLE2), "--cost", "det"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["alpha"] == 0.0
        assert out["branch"] == "endpoint_zero"
        np.testing.assert_allclose(out["P_hat"], [[1.25, 0.0], [0.0, 0.1]], atol=1e-12)

    def test_equal_information_notes_degeneracy(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[2, 0], [0, 3]]},
            "est2": {"H": [[1, 0], [0, 1]], "x_hat": [1, 1], "P_hat": [[2, 0], [0, 3]]},
        }
        rc = cli.main(["fuse", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["alpha"] == 0.5
        assert out["note"] == "degenerate: any alpha optimal"

    def test_rank_deficient_input_exits_two(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0]], "x_hat": [0], "P_hat": [[1]]},
            "est2": {"H": [[2, 0]], "x_hat": [0], "P_hat": [[1]]},
        }
        rc = cli.main(["fuse", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("error: est1/est2: Assumption (A1) validation failed: "
                       "stacked observation matrix has rank 1 < n = 2\n")

    @pytest.mark.parametrize("h1, h2", [
        ([[1, 0], [2, 0]], [[0, 1]]),
        ([[0, 1]], [[1, 0], [2, 0]]),
    ])
    def test_sensor_with_dependent_rows_fuses_and_verifies(self, tmp_path, capsys, h1, h2):
        # only the stacked rank decides solvability, not each sensor's row rank
        doc = {"n": 2}
        for key, h in (("est1", h1), ("est2", h2)):
            doc[key] = {"H": h, "x_hat": [0] * len(h), "P_hat": np.eye(len(h)).tolist()}
        path = write(tmp_path, doc)
        assert cli.main(["fuse", path]) == 0
        assert cli.main(["verify", path, "--samples", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("verdict: all certificates pass\n")

    def test_sensor_with_more_rows_than_the_state(self, tmp_path, capsys):
        # a 3-row sensor of a 2-state: fuse, scan, known and verify all run
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1], [1, 1]], "x_hat": [0.1, -0.2, 0.3],
                     "P_hat": [[1, 0.2, 0], [0.2, 2, 0.1], [0, 0.1, 1.5]]},
            "est2": {"H": [[0, 1]], "x_hat": [0.4], "P_hat": [[0.5]]},
            "truth": {"P1": [[1, 0.2, 0], [0.2, 2, 0.1], [0, 0.1, 1.5]], "P2": [[0.5]],
                      "P12": [[0.1], [0.2], [0.0]]},
        }
        path = write(tmp_path, doc)
        for command in (["fuse", path], ["fuse", path, "--cost", "trace"],
                        ["scan", path, "--grid", "5"], ["known", path]):
            assert cli.main(command) == 0, command
        assert capsys.readouterr().err == ""
        assert cli.main(["verify", path, "--samples", "200"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "truth-joint" in captured.out
        assert captured.out.endswith("verdict: all certificates pass\n")

    def test_output_is_deterministic(self, tmp_path):
        path = write(tmp_path, EXAMPLE2)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["fuse", path, "--out", str(out1)]) == 0
        assert cli.main(["fuse", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


#: full state, P1 = 1e110 I and P2 = 1e110 diag(2, 0.5, 1): every fused
#: determinant is near 1e330, beyond the largest float
DET_OVERFLOW = {
    "n": 3,
    "est1": {"H": np.eye(3).tolist(), "x_hat": [0, 0, 0], "P_hat": (1e110 * np.eye(3)).tolist()},
    "est2": {"H": np.eye(3).tolist(), "x_hat": [1, 0, 0],
             "P_hat": np.diag([2e110, 0.5e110, 1e110]).tolist()},
}


class TestOverflowingCost:
    def test_fuse_writes_null_and_the_result_verifies(self, tmp_path, capsys):
        problem = write(tmp_path, DET_OVERFLOW)
        fused = tmp_path / "fused.json"
        assert cli.main(["fuse", problem, "--out", str(fused)]) == 0
        stored = json.loads(fused.read_text())
        assert stored["cost_value"] is None
        assert np.isfinite(stored["P_hat"]).all()
        rc = cli.main(["verify", problem, "--result", str(fused), "--samples", "20"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.endswith("verdict: all certificates pass\n")

    def test_scan_reports_the_overflow_without_a_warning(self, tmp_path, capsys):
        # this suite turns a numpy RuntimeWarning into an error
        rc = cli.main(["scan", write(tmp_path, DET_OVERFLOW), "--grid", "3"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.splitlines()[1:4] == ["0,,0", "0.5,,0", "1,,0"]

    def test_scan_names_no_argmin_when_no_cost_is_finite(self, tmp_path, capsys):
        # every grid cost overflows, so no grid weight is the minimiser:
        # both fields are empty, as the rows print such a cost
        rc = cli.main(["scan", write(tmp_path, DET_OVERFLOW), "--grid", "3"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "# argmin,,"

    def test_dumps_writes_every_non_finite_float_as_null(self):
        text = cli.dumps({"a": math.inf, "b": [1.0, -math.inf, math.nan], "c": np.float64(2.0)})
        assert json.loads(text) == {"a": None, "b": [1.0, None, None], "c": 2.0}


#: a finite, symmetric, PD covariance whose entries doubled would overflow
NEAR_FLOAT_MAX = {
    "n": 2,
    "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": (1e308 * np.eye(2)).tolist()},
    "est2": {"H": [[1, 0], [0, 1]], "x_hat": [1, -1], "P_hat": [[1, 0], [0, 2]]},
}


class TestCovarianceNearFloatMax:
    # symmetrising such a block must not overflow; this suite turns a numpy
    # RuntimeWarning into an error
    def test_fuse_takes_the_finite_estimate(self, tmp_path, capsys):
        rc = cli.main(["fuse", write(tmp_path, NEAR_FLOAT_MAX)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        out = json.loads(captured.out)
        assert out["alpha"] == 0.0 and out["branch"] == "endpoint_zero"

    def test_verify_passes_every_row(self, tmp_path, capsys):
        rc = cli.main(["verify", write(tmp_path, NEAR_FLOAT_MAX), "--samples", "20"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.endswith("verdict: all certificates pass\n")

    def test_verify_where_the_curvature_overflows(self, tmp_path, capsys):
        # at 1e307 units M'' overflows at the solved weight while M and M'
        # do not: the walk still evaluates there and certifies
        doc = json.loads(json.dumps(TINY_WEIGHT_PAIR))
        for key in ("est1", "est2"):
            doc[key]["P_hat"] = (1e307 * np.array(doc[key]["P_hat"])).tolist()
        rc = cli.main(["verify", write(tmp_path, doc), "--samples", "50"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.endswith("verdict: all certificates pass\n")

    def test_scan_prints_every_row(self, tmp_path, capsys):
        rc = cli.main(["scan", write(tmp_path, NEAR_FLOAT_MAX), "--grid", "3"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.splitlines()[-1].startswith("# argmin,0,")


class TestScan:
    def test_unaddressable_grid_exits_two_before_allocating(self, tmp_path, capsys,
                                                            monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", unreachable)
        grid = np.iinfo(np.intp).max // 8 + 1
        out, err, code = run_main(["scan", write(tmp_path, EXAMPLE2), "--grid", str(grid)],
                                  capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: --grid: {grid} points exceed the addressable memory\n"

    def test_grid_out_of_memory_exits_two_naming_grid(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(np, "linspace", exhausted)
        out, err, code = run_main(["scan", write(tmp_path, EXAMPLE2), "--grid", "10000000000000"],
                                  capsys)
        assert (out, err, code) == (
            "", "error: --grid: 10000000000000 points do not fit in memory\n", cli.EXIT_INPUT)

    def test_grid_rows_and_monotone_cost(self, tmp_path, capsys):
        rc = cli.main(["scan", write(tmp_path, EXAMPLE2), "--grid", "11"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "alpha,cost,finite"
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 11
        costs = [float(r.split(",")[1]) for r in data_rows]
        assert all(a < b for a, b in zip(costs, costs[1:]))  # derivative > 0
        assert lines[-1].startswith("# argmin,0,")

    def test_singular_endpoint_rows(self, tmp_path, capsys):
        rc = cli.main(["scan", write(tmp_path, SCALAR_PAIR), "--grid", "5"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        first = lines[1].split(",")
        last = [l for l in lines if not l.startswith("#")][-1].split(",")
        assert first == ["0", "", "0"]  # singular blend: empty cost, finite=0
        assert last == ["1", "", "0"]
        # the argmin names a finite cost, never a singular end
        _, alpha, value = lines[-1].split(",")
        assert alpha == "0.5" and math.isfinite(float(value))

    @pytest.mark.parametrize("swap", [False, True])
    def test_row_at_the_fused_endpoint_prints_the_fused_cost(self, tmp_path, capsys, swap):
        # Example 2 fuses at alpha = 0 under det, and at alpha = 1 swapped
        doc = dict(EXAMPLE2, est1=EXAMPLE2["est2"], est2=EXAMPLE2["est1"]) if swap else EXAMPLE2
        path = write(tmp_path, doc)
        assert cli.main(["fuse", path]) == 0
        fused = json.loads(capsys.readouterr().out)
        assert fused["alpha"] == float(swap)
        assert cli.main(["scan", path, "--grid", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:4]
        assert rows[2 if swap else 0] == f"{int(swap)},{cli.fmt(fused['cost_value'])},1"

    def test_two_point_grid(self, tmp_path, capsys):
        rc = cli.main(["scan", write(tmp_path, EXAMPLE2), "--grid", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert rc == 0 and len(data_rows) == 2
        assert data_rows[0].split(",")[0] == "0"
        assert data_rows[1].split(",")[0] == "1"

    def test_underflowing_determinant_prints_a_zero_cost(self, tmp_path, capsys):
        # the information H' P^-1 H = 1e308 I overflows once it is
        # symmetrized, but the whitened stack does not; the fused covariance
        # of about 1e-308 I is below the strictness floor, so fuse refuses
        # it, while scan prints each interior cost, whose determinant of
        # about 4e-616 underflows to 0
        doc = {
            "n": 2,
            "est1": {"H": [[1e154, 0]], "x_hat": [0], "P_hat": [[1]]},
            "est2": {"H": [[0, 1e154]], "x_hat": [0], "P_hat": [[1]]},
        }
        path = write(tmp_path, doc)
        assert cli.main(["fuse", path]) == 2
        assert capsys.readouterr().err == "error: fused covariance is not strictly PD\n"
        assert cli.main(["scan", path, "--grid", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "alpha,cost,finite", "0,,0", "0.25,0,1", "0.5,0,1", "0.75,0,1", "1,,0", "# argmin,0.25,0"]
        assert captured.err == ""


class TestVerify:
    def test_example_all_pass(self, tmp_path, capsys):
        rc = cli.main(["verify", write(tmp_path, EXAMPLE2), "--samples", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: tol_scale floors at 1, so the "
                              "1e-8 certificate band is absolute at small units")
    def test_halved_covariance_at_small_units_fails(self, tmp_path, capsys):
        # the determinant optimum at alpha = 0 takes est2 whole; halving its
        # covariance makes the result plainly not conservative
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1e-8, 0], [0, 1e-8]]},
            "est2": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0],
                     "P_hat": [[1.25e-8, 0], [0, 0.5e-8]]},
        }
        result = {"alpha": 0.0, "K1": [[0, 0], [0, 0]], "K2": [[1, 0], [0, 1]],
                  "fused_x": [0, 0], "P_hat": [[6.25e-9, 0], [0, 2.5e-9]]}
        rc = cli.main(["verify", write(tmp_path, doc), "--samples", "1000",
                       "--result", write(tmp_path, result, "r.json")])
        out = capsys.readouterr().out
        assert "verdict: all certificates pass" not in out
        assert rc == 1

    @pytest.mark.parametrize("swap, eps", [(False, "inf"), (True, "0")])
    def test_zero_gain_block_prints_the_end_weight_eps(self, tmp_path, capsys, swap, eps):
        # the determinant optimum of EXAMPLE2 is alpha = 0 with K1 = 0, and
        # of its swap alpha = 1 with K2 = 0; M is finite at that weight, where
        # the scalar certificate's search certifies: eps = 1/alpha - 1
        doc = dict(EXAMPLE2, est1=EXAMPLE2["est2"], est2=EXAMPLE2["est1"]) if swap else EXAMPLE2
        rc = cli.main(["verify", write(tmp_path, doc), "--samples", "50"])
        rows = [r.split() for r in capsys.readouterr().out.splitlines()
                if r.startswith("petersen")]
        assert rc == 0
        assert rows == [["petersen", "PASS", f"eps={eps}"]]

    @staticmethod
    def _stored_rows(tmp_path, capsys, alpha):
        """``verify``'s exit code and ``{row: (verdict, value)}`` on the fused pair at ``alpha``."""
        problem = write(tmp_path, TINY_WEIGHT_PAIR)
        fused = tmp_path / "fused.json"
        assert cli.main(["fuse", problem, "--out", str(fused)]) == 0
        stored = json.loads(fused.read_text())
        stored["alpha"] = alpha
        rc = cli.main(["verify", problem, "--result", write(tmp_path, stored, "r.json"),
                       "--samples", "50"])
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = {}
        for line in captured.out.splitlines()[:-1]:
            name, verdict, value = line.split()
            rows[name] = (verdict, value.split("=")[1])
        return rc, rows, stored

    @pytest.mark.parametrize("alpha", [5e-324, 1e-320, 1e-300, 1e-160, 1e-120, 1e-100, 1e-18])
    def test_tiny_stored_weight_prints_every_row(self, tmp_path, capsys, alpha):
        # at the stored weight M or M' overflows, or f and its slope are so
        # large that the end tangents cancel, and the walk still finds the
        # weight that certifies; this suite turns a numpy RuntimeWarning
        # into an error
        rc, rows, stored = self._stored_rows(tmp_path, capsys, alpha)
        assert rc == 1
        assert rows["lmi"][0] == "FAIL" and rows["petersen"][0] == "PASS"
        _, reference, _ = self._stored_rows(tmp_path, capsys, 1e-20)
        scale = 2 * np.abs(stored["P_hat"]).max()
        value, want = float(rows["adversarial-x"][1]), float(reference["adversarial-x"][1])
        assert abs(value - want) <= rounding_allowance(2, abs(want) + scale)

    def test_override_exposed_by_adversarial_search(self, tmp_path, capsys):
        from cifusion import FusionProblem, PartialEstimate, solve_ci
        from cifusion.optimizer import Cost

        problem = FusionProblem(
            PartialEstimate([[1, 0]], [0.3], [[1.0]]),
            PartialEstimate([[0, 1]], [-0.1], [[1.0]]),
        )
        good = solve_ci(problem, Cost.DET)
        doc = dict(SCALAR_PAIR)
        doc["P_hat_override"] = (0.9 * good.P_hat.data).tolist()
        rc = cli.main(["verify", write(tmp_path, doc), "--samples", "300"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "adversarial-x" in out and "FAIL" in out

    @staticmethod
    def _certified(monkeypatch) -> list:
        """Record the result of every ``lmi_certificate`` call, solve_ci's included."""
        seen, original = [], verifier.lmi_certificate

        def recorded(result, *args, **kwargs):
            seen.append(result)
            return original(result, *args, **kwargs)

        monkeypatch.setattr(verifier, "lmi_certificate", recorded)
        return seen

    @pytest.mark.parametrize("doc", [EXAMPLE2, SCALAR_PAIR])
    def test_lmi_row_reuses_the_solve_certificate(self, tmp_path, capsys, monkeypatch, doc):
        from cifusion.optimizer import Cost, solve_ci

        path = write(tmp_path, doc)
        seen = self._certified(monkeypatch)
        assert cli.main(["verify", path, "--samples", "50"]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines() if r.startswith("lmi")]
        assert len(seen) == 1  # solve_ci's own certificate, not a second one
        problem, _ = cli.load_problem_file(path)
        cert = verifier.lmi_certificate(solve_ci(problem, Cost.DET), problem, seen[0].alpha)
        assert [r.split() for r in rows] == [
            ["lmi", "PASS", f"min_eig={cli.fmt(cert.lmi_min_eig)}"]]

    def test_result_file_recomputes_the_certificate(self, tmp_path, capsys, monkeypatch):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = str(tmp_path / "fused.json")
        assert cli.main(["fuse", problem_path, "--out", fused_path]) == 0
        seen = self._certified(monkeypatch)
        assert cli.main(["verify", problem_path, "--result", fused_path, "--samples", "50"]) == 0
        assert len(seen) == 1 and "certificate" not in seen[0].diagnostics

    def test_overridden_result_drops_the_solved_fields(self, tmp_path, capsys, monkeypatch):
        # the copy with the file's P_hat keeps neither the solved P_hat's
        # cost nor its certificate, and does not share its diagnostics
        doc = dict(EXAMPLE2, P_hat_override=[[2.5, 0], [0, 0.2]])
        seen = self._certified(monkeypatch)
        assert cli.main(["verify", write(tmp_path, doc), "--samples", "50"]) == 0
        solved, overridden = seen
        assert np.array_equal(overridden.P_hat.data, [[2.5, 0], [0, 0.2]])
        assert solved.cost_value is not None and overridden.cost_value is None
        assert "certificate" in solved.diagnostics
        assert "certificate" not in overridden.diagnostics
        assert overridden.diagnostics is not solved.diagnostics
        assert overridden.diagnostics == {k: v for k, v in solved.diagnostics.items()
                                          if k != "certificate"}

    def test_truth_block_adds_joint_check(self, tmp_path, capsys):
        doc = dict(EXAMPLE2)
        doc["truth"] = {
            "P1": [[1, 0], [0, 1]],
            "P2": [[1.25, 0], [0, 0.1]],
            "P12": [[0, 0], [0, 0]],
        }
        rc = cli.main(["verify", write(tmp_path, doc), "--samples", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "truth-joint" in out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_non_positive_samples_exit_two(self, tmp_path, capsys, samples):
        rc = cli.main(["verify", write(tmp_path, SCALAR_PAIR), "--samples", samples])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: --samples: ")
        assert captured.out == ""

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        rc = cli.main(
            ["verify", write(tmp_path, SCALAR_PAIR), "--samples", "10", "--seed", "-1"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: --seed: ")
        assert captured.out == ""

    def test_round_trip_reproduces_certificates(self, tmp_path, capsys):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = str(tmp_path / "fused.json")
        assert cli.main(["fuse", problem_path, "--out", fused_path]) == 0
        rc1 = cli.main(["verify", problem_path, "--samples", "200"])
        direct = capsys.readouterr().out
        rc2 = cli.main(["verify", problem_path, "--samples", "200", "--result", fused_path])
        reloaded = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert direct == reloaded

    @pytest.mark.parametrize("key", ["K1", "K2", "P_hat", "fused_x", "alpha"])
    def test_result_file_missing_key_exits_two(self, tmp_path, capsys, key):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", problem_path, "--out", str(fused_path)]) == 0
        doc = json.loads(fused_path.read_text())
        del doc[key]
        rc = cli.main(["verify", problem_path, "--result", write(tmp_path, doc, "r.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {key}: missing" in err

    def test_result_file_weight_outside_unit_interval_exits_two(self, tmp_path, capsys):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", problem_path, "--out", str(fused_path)]) == 0
        doc = json.loads(fused_path.read_text())
        doc["alpha"] = 1.5
        rc = cli.main(["verify", problem_path, "--result", write(tmp_path, doc, "r.json")])
        assert rc == 2
        assert "error: alpha:" in capsys.readouterr().err


    @pytest.mark.parametrize("gain, p_hat", [(0.0, 0.0), (0.1, 1.0)])
    def test_result_file_with_biased_gains_exits_two(self, tmp_path, capsys, gain, p_hat):
        # K1 H1 + K2 H2 = 2 gain I, not I: without the check both results
        # printed "all certificates pass"
        doc = {
            "alpha": 0.5,
            "K1": (gain * np.eye(2)).tolist(),
            "K2": (gain * np.eye(2)).tolist(),
            "P_hat": (p_hat * np.eye(2)).tolist(),
            "fused_x": (gain * np.array([1.0, -1.0])).tolist(),
        }
        problem_path = write(tmp_path, EXAMPLE2)
        rc = cli.main(["verify", problem_path, "--samples", "50",
                       "--result", write(tmp_path, doc, "r.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: K1: ")
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("cost_value", "not a number"), ("cost_value", [1.0]), ("cost_value", True),
        ("cost_value", math.inf), ("cost_value", math.nan),
        pytest.param("cost_value", 10**400, id="cost_value-1e400"),
        pytest.param("cost_value", -10**400, id="cost_value--1e400"),
        ("branch", [1, 2]), ("branch", 3), ("branch", {"kind": "interior"}),
    ])
    def test_result_file_optional_field_with_bad_value_exits_two(self, tmp_path, capsys,
                                                                   key, value):
        # a fuse output edited so: it printed four PASS rows and exited 0
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", problem_path, "--out", str(fused_path)]) == 0
        doc = json.loads(fused_path.read_text())
        doc[key] = value
        out, err, code = run_main(["verify", problem_path, "--samples", "50",
                                   "--result", write(tmp_path, doc, "r.json")], capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("key", ["cost_value", "branch"])
    def test_result_file_optional_field_may_be_null_or_absent(self, tmp_path, capsys, key):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", problem_path, "--out", str(fused_path)]) == 0
        doc = json.loads(fused_path.read_text())
        for edit in (None, "delete"):
            if edit is None:
                doc[key] = None
            else:
                del doc[key]
            rc = cli.main(["verify", problem_path, "--samples", "50",
                           "--result", write(tmp_path, doc, "r.json")])
            assert rc == 0 and capsys.readouterr().err == ""

    def test_result_file_with_inconsistent_fused_x_exits_two(self, tmp_path, capsys):
        problem_path = write(tmp_path, EXAMPLE2)
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", problem_path, "--out", str(fused_path)]) == 0
        doc = json.loads(fused_path.read_text())
        doc["fused_x"][0] += 1e-3
        rc = cli.main(["verify", problem_path, "--result", write(tmp_path, doc, "r.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: fused_x: ")

    def test_fuse_output_passes_through_result(self, tmp_path, capsys):
        # the result checks accept every solve fuse writes
        rng = np.random.default_rng(29)
        for i, problem in enumerate(well_scaled_problems(rng, 20)):
            doc = {"n": problem.n}
            for key, est in (("est1", problem.est1), ("est2", problem.est2)):
                doc[key] = {"H": est.h.tolist(), "x_hat": est.x_hat.tolist(),
                            "P_hat": est.p_hat.data.tolist()}
            problem_path = write(tmp_path, doc, f"p{i}.json")
            for cost in ("det", "trace"):
                fused_path = str(tmp_path / f"f{i}{cost}.json")
                assert cli.main(["fuse", problem_path, "--cost", cost, "--out", fused_path]) == 0
                rc = cli.main(["verify", problem_path, "--samples", "20", "--result", fused_path])
                out = capsys.readouterr().out
                assert rc == 0, out
                assert out.endswith("verdict: all certificates pass\n")


class TestCertify:
    """``verifier.certify`` decides the rows; ``verify`` prints them and nothing else."""

    ROUTES = ["lmi", "petersen", "adversarial-x", "monte-carlo"]
    # an interior weight at which both samplers' worst values depend on the seed
    SEEDED = dict(EXAMPLE2, est2={"H": [[1, 0], [0, 1]], "x_hat": [1, -1],
                                  "P_hat": [[2, 0.5], [0.5, 0.5]]})

    @staticmethod
    def inputs(tmp_path, doc, stored):
        """``verify`` arguments for ``doc`` and the result that command certifies."""
        path = write(tmp_path, doc)
        argv = ["verify", path, "--samples", "100", "--seed", "4"]
        problem, extras = cli.load_problem_file(path)
        result = solve_ci(problem, Cost.DET)
        if stored:
            fused = str(tmp_path / "fused.json")
            assert cli.main(["fuse", path, "--out", fused]) == 0
            argv += ["--result", fused]
            result = cli._load_result_file(fused, problem)
        if "p_hat_override" in extras:
            result = dataclasses.replace(result, P_hat=extras["p_hat_override"], diagnostics={})
        return argv, result, problem, extras.get("truth")

    @pytest.mark.parametrize("doc, stored, names, code", [
        (SEEDED, False, ROUTES, 0),
        (dict(SCALAR_PAIR, truth={"P1": [[1.0]], "P2": [[1.0]], "P12": [[0.5]]}), False,
         ROUTES + ["truth-joint"], 0),
        (dict(SCALAR_PAIR, P_hat_override=[[0.9, 0.0], [0.0, 0.9]]), False, ROUTES, 1),
        (SEEDED, True, ROUTES, 0),
        # the determinant optimum of EXAMPLE2 is alpha = 0 with K1 = 0
        (EXAMPLE2, False, ROUTES, 0),
    ], ids=["accepted", "truth", "override", "result", "zero-gain-block"])
    def test_rows_are_what_verify_prints(self, tmp_path, capsys, doc, stored, names, code):
        argv, result, problem, truth = self.inputs(tmp_path, doc, stored)
        rows = verifier.certify(result, problem, 100, 4, truth)
        capsys.readouterr()
        assert cli.main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert [row.name for row in rows] == names
        assert [line.split() for line in lines[:-1]] == [
            [row.name, "PASS" if row.passed else "FAIL",
             "infeasible" if row.value is None else
             f"{row.measure}={row.value if isinstance(row.value, str) else cli.fmt(row.value)}"]
            for row in rows
        ]
        verdict = "all certificates pass" if code == 0 else "certificate failure"
        assert lines[-1] == f"verdict: {verdict}"
        assert all(row.passed for row in rows) == (code == 0)

    @pytest.mark.parametrize("doc, stored, calls", [
        (SCALAR_PAIR, False, 0),
        (SCALAR_PAIR, True, 1),
        (dict(SCALAR_PAIR, P_hat_override=[[2.0, 0.0], [0.0, 2.0]]), False, 1),
    ], ids=["solved", "loaded", "overridden"])
    def test_lmi_certificate_runs_only_without_a_solved_margin(self, tmp_path, monkeypatch,
                                                               doc, stored, calls):
        _, result, problem, _ = self.inputs(tmp_path, doc, stored)
        seen, original = [], verifier.lmi_certificate

        def recorded(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(verifier, "lmi_certificate", recorded)
        lmi = verifier.certify(result, problem, 20)[0]
        assert len(seen) == calls
        if calls == 0:
            assert lmi.passed and lmi.value == result.diagnostics["certificate"].lmi_min_eig
        else:
            cert = original(result, problem, result.alpha)
            assert (lmi.passed, lmi.value) == (cert.passed, cert.lmi_min_eig)


ASYMMETRIC = [[2.0, 1.0], [0.0, 2.0]]
INDEFINITE = [[-1.0, 0.0], [0.0, 1.0]]
COVARIANCE_PATHS = ["est1.P_hat", "est2.P_hat", "truth.P1", "truth.P2", "P_hat_override", "P_hat"]


#: keys of a stored fuse result that ``verify --result`` reads
RESULT_KEYS = ("alpha", "K1", "K2", "P_hat", "fused_x")


def verify_with_block(tmp_path, where, edit):
    """``verify`` arguments for EXAMPLE2 with a truth block and the value at ``where`` edited.

    ``edit`` maps the value at ``where`` to its replacement.  The keys in
    ``RESULT_KEYS`` are the stored result's, the rest problem-file paths;
    ``P_hat_override`` is edited from ``[[2.5, 0], [0, 0.2]]``.
    """
    doc = json.loads(json.dumps(EXAMPLE2))
    doc["truth"] = {"P1": [[1, 0], [0, 1]], "P2": [[1.25, 0], [0, 0.1]], "P12": [[0, 0], [0, 0]]}
    args = ["--samples", "10"]
    if where in RESULT_KEYS:
        fused_path = tmp_path / "fused.json"
        assert cli.main(["fuse", write(tmp_path, doc, "clean.json"), "--out", str(fused_path)]) == 0
        stored = json.loads(fused_path.read_text())
        stored[where] = edit(stored[where])
        args += ["--result", write(tmp_path, stored, "r.json")]
    elif where == "P_hat_override":
        doc[where] = edit([[2.5, 0], [0, 0.2]])
    else:
        key, field = where.split(".")
        doc[key][field] = edit(doc[key][field])
    return ["verify", write(tmp_path, doc)] + args


def verify_with_covariance(tmp_path, where, block):
    """``verify`` arguments for EXAMPLE2 with the covariance block at ``where`` replaced.

    ``P_hat`` is the stored result's covariance, the rest are problem-file paths.
    """
    return verify_with_block(tmp_path, where, lambda _: block)


class TestCovarianceBlocks:
    @pytest.mark.parametrize("where", COVARIANCE_PATHS)
    def test_asymmetric_block_exits_two_naming_it(self, tmp_path, capsys, where):
        # these blocks used to be averaged with their transposes and used
        rc = cli.main(verify_with_covariance(tmp_path, where, ASYMMETRIC))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {where}: not symmetric")
        assert captured.out == ""

    @pytest.mark.parametrize("where", COVARIANCE_PATHS)
    def test_indefinite_block_exits_two_naming_it(self, tmp_path, capsys, where):
        rc = cli.main(verify_with_covariance(tmp_path, where, INDEFINITE))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {where}: matrix is not PSD")
        assert captured.out == ""

    def test_asymmetric_estimate_rejected_by_fuse(self, tmp_path, capsys):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["est1"]["P_hat"] = ASYMMETRIC
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: est1.P_hat: not symmetric")
        assert captured.out == ""

    @pytest.mark.parametrize("where", COVARIANCE_PATHS)
    def test_rounding_level_asymmetry_accepted(self, tmp_path, capsys, where):
        # a product leaves asymmetry at rounding level; within RESULT_RTOL of
        # the largest entry the block is still averaged and used
        block = {"est1.P_hat": [[1, 0], [0, 1]], "est2.P_hat": [[1.25, 0], [0, 0.1]],
                 "truth.P1": [[1, 0], [0, 1]], "truth.P2": [[1.25, 0], [0, 0.1]],
                 "P_hat_override": [[2.5, 0], [0, 0.2]], "P_hat": [[1.25, 0], [0, 0.1]]}[where]
        block = np.array(block, dtype=float)
        block[0, 1] = 1e-3 * cli.RESULT_RTOL * np.abs(block).max()
        rc = cli.main(verify_with_covariance(tmp_path, where, block.tolist()))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.endswith("verdict: all certificates pass\n")


class TestKnown:
    def test_example_closed_form(self, tmp_path, capsys):
        doc = dict(SCALAR_PAIR)
        doc["truth"] = {"P1": [[1]], "P2": [[1]], "P12": [[0.5]]}
        rc = cli.main(["known", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        expected = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
        np.testing.assert_allclose(out["P_star_inv"], expected, atol=1e-12)

    def test_full_state_prints_one_optimum(self, tmp_path, capsys):
        # the two-track form repeated K* and P* where both H are I; it is now
        # a test oracle, and the output has the same three keys for every H
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
            "est2": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
            "truth": {"P1": [[1, 0], [0, 1]], "P2": [[1, 0], [0, 1]], "P12": [[0, 0], [0, 0]]},
        }
        rc = cli.main(["known", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(out) == {"K_star", "P_star", "P_star_inv"}
        np.testing.assert_allclose(out["P_star"], 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(out["P_star_inv"], 2.0 * np.eye(2), atol=1e-12)

    def test_seeded_full_state_agrees_with_the_two_track_oracle(self, tmp_path, capsys):
        from conftest import bar_shalom_campo, random_joint, random_spd

        rng = np.random.default_rng(3)
        joint = random_joint(rng, 3, 3)
        doc = {
            "n": 3,
            "est1": {"H": np.eye(3).tolist(), "x_hat": [0, 0, 0],
                     "P_hat": random_spd(rng, 3).tolist()},
            "est2": {"H": np.eye(3).tolist(), "x_hat": [1, 1, 1],
                     "P_hat": random_spd(rng, 3).tolist()},
            "truth": {"P1": joint.P1.data.tolist(), "P2": joint.P2.data.tolist(),
                      "P12": joint.P12.tolist()},
        }
        rc = cli.main(["known", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        k1, k2, p_star = bar_shalom_campo(joint)
        assert np.abs(np.hstack([k1, k2]) - out["K_star"]).max() <= 1e-10
        assert np.abs(p_star - out["P_star"]).max() <= 1e-10
        assert np.abs(np.array(out["P_star_inv"]) @ out["P_star"] - np.eye(3)).max() <= 1e-10

    @pytest.mark.parametrize("which", ["est1", "est2"])
    def test_output_is_the_general_formula_for_every_h(self, tmp_path, capsys, which):
        # an H one part in 2^30 off I gets the same keys, and the optimum moves
        # by about that part
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
            "est2": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[2, 0], [0, 1]]},
            "truth": {"P1": [[1, 0], [0, 1]], "P2": [[2, 0], [0, 1]], "P12": [[0.5, 0], [0, 0]]},
        }
        assert cli.main(["known", write(tmp_path, doc)]) == 0
        exact = json.loads(capsys.readouterr().out)
        doc[which]["H"] = (np.eye(2) * (1.0 + 2.0**-30)).tolist()
        assert cli.main(["known", write(tmp_path, doc)]) == 0
        off = json.loads(capsys.readouterr().out)
        assert set(exact) == set(off) == {"K_star", "P_star", "P_star_inv"}
        assert 0.0 < np.abs(np.array(off["P_star"]) - exact["P_star"]).max() <= 2.0**-28

    def test_missing_truth_exits_two(self, tmp_path, capsys):
        rc = cli.main(["known", write(tmp_path, SCALAR_PAIR)])
        assert rc == 2
        assert "truth" in capsys.readouterr().err


class TestSim:
    def test_preset_chain_passes(self, tmp_path):
        rc = cli.main([
            "sim", "--nodes", "2", "--topology", "chain", "--events", "4",
            "--preset", "example1", "--out", str(tmp_path / "r.txt"),
        ])
        assert rc == 0
        assert "# violations 0" in (tmp_path / "r.txt").read_text()

    def test_ring_report_is_stable(self, tmp_path):
        args = [
            "sim", "--nodes", "5", "--topology", "ring", "--events", "20",
            "--seed", "7",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--nodes", "0"), ("--nodes", "1"), ("--state-dim", "0"), ("--events", "-1"),
         ("--seed", "-1")],
    )
    def test_bad_argument_exits_two_naming_it(self, capsys, flag, value):
        rc = cli.main(["sim", "--topology", "chain", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {flag}: ")
        assert captured.out == ""

    def test_zero_events_header_names_the_cost(self, capsys):
        rc = cli.main(["sim", "--events", "0", "--cost", "trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert " cost=trace\n" in out
        assert "# violations 0" in out

    def test_unaddressable_network_exits_two_before_building_it(self, capsys, monkeypatch):
        # 2**40 nodes of 2**20 states: a joint numpy cannot address, refused
        # by init_network before it draws a single node
        def unreachable(*args):
            raise AssertionError("a node was drawn")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        argv = ["sim", "--nodes", str(2**40), "--state-dim", str(2**20), "--events", "1"]
        out, err, code = run_main(argv, capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == (f"error: --nodes: {2**40} nodes of state dimension {2**20} "
                       "do not fit in memory\n")
        # the largest addressable side is refused too, and so is a count past
        # the float range
        side = math.isqrt(np.iinfo(np.intp).max // 8)
        for nodes in (side, 10**400):
            out, err, code = run_main(["sim", "--nodes", str(nodes), "--state-dim", "2"], capsys)
            assert (out, code) == ("", cli.EXIT_INPUT)
            assert err == f"error: --nodes: {nodes} nodes of state dimension 2 do not fit in memory\n"

    @pytest.mark.parametrize("topology", ["chain", "ring", "random"])
    @pytest.mark.parametrize("events", [10**30, 2**62])
    def test_unaddressable_event_count_exits_two_before_building_it(self, capsys, topology,
                                                                    events):
        argv = ["sim", "--nodes", "3", "--topology", topology, "--events", str(events)]
        start = time.perf_counter()
        out, err, code = run_main(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: --events: {events} events do not fit in memory\n"

    def test_out_of_memory_while_building_exits_two_naming_nodes(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 173. GiB")

        monkeypatch.setattr(simulator, "GroundTruth", exhausted)
        out, err, code = run_main(["sim", "--nodes", "3", "--state-dim", "2", "--events", "1"],
                                  capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == "error: --nodes: 3 nodes of state dimension 2 do not fit in memory\n"

    def test_collinear_preset_unreachable(self, tmp_path, capsys):
        rc = cli.main([
            "sim", "--nodes", "2", "--topology", "chain", "--events", "1",
            "--preset", "collinear",
        ])
        assert rc == 2
        assert "rank" in capsys.readouterr().err


class TestOutPath:
    @pytest.mark.parametrize("command", ["fuse", "scan", "known", "sim"])
    def test_unwritable_out_exits_two_naming_it(self, tmp_path, capsys, command):
        # a directory, then a file in a directory that does not exist
        doc = dict(SCALAR_PAIR, truth={"P1": [[1.0]], "P2": [[1.0]], "P12": [[0.5]]})
        argv = (["sim", "--nodes", "3", "--events", "2"] if command == "sim"
                else [command, write(tmp_path, doc)])
        for target in (tmp_path, tmp_path / "missing" / "out.txt"):
            out, err, code = run_main(argv + ["--out", str(target)], capsys)
            assert (out, code) == ("", cli.EXIT_INPUT)
            assert err.startswith("error: --out: [Errno ")


class TestProblemFiles:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["fuse", str(path)]) == 2

    def test_shape_error_names_json_path(self, tmp_path, capsys):
        doc = dict(EXAMPLE2)
        doc = json.loads(json.dumps(doc))
        doc["est1"]["P_hat"] = [[1, 0]]
        rc = cli.main(["fuse", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "est1.P_hat" in err

    def test_flat_row_major_arrays_accepted(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "est1": {"H": [1, 0, 0, 1], "x_hat": [0, 0], "P_hat": [1, 0, 0, 1]},
            "est2": {"H": [1, 0, 0, 1], "x_hat": [1, -1], "P_hat": [1.25, 0, 0, 0.1]},
        }
        rc = cli.main(["fuse", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["alpha"] == 0.0

    @pytest.mark.parametrize("command", ["fuse", "verify"])
    @pytest.mark.parametrize(
        "field, value",
        [("x_hat", [float("nan"), 0]), ("H", [[1, 0], [0, float("inf")]]),
         ("P_hat", [[1, 0], [0, float("nan")]])],
    )
    def test_non_finite_entry_names_json_path(self, tmp_path, capsys, command, field, value):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["est1"][field] = value
        samples = ["--samples", "10"] if command == "verify" else []
        rc = cli.main([command, write(tmp_path, doc)] + samples)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"est1.{field}: holds a NaN or an infinity" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [2.7, "2", True, None, [2], float("inf")])
    def test_non_integer_state_dimension_exits_two_naming_n(self, tmp_path, capsys, value):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["n"] = value
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "n: not an integer" in captured.err
        assert captured.out == ""

    def test_integral_float_state_dimension_accepted(self, tmp_path, capsys):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["n"] = 2.0
        rc = cli.main(["fuse", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["alpha"] == 0.0

    @pytest.mark.parametrize("key", ["est1", "est2"])
    def test_singular_estimate_covariance_names_its_block(self, tmp_path, capsys, key):
        # PSD, so it passes the block check, but an estimate needs it PD
        doc = json.loads(json.dumps(EXAMPLE2))
        doc[key]["P_hat"] = [[1, 0], [0, 0]]
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {key}.P_hat: covariance estimate must be strictly PD")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fuse", "scan", "known", "verify"])
    @pytest.mark.parametrize("key", ["est1", "est2"])
    def test_estimate_with_no_rows_exits_two_naming_its_h(self, tmp_path, capsys, command, key):
        doc = dict(EXAMPLE2, **{key: {"H": [], "x_hat": [], "P_hat": []}})
        samples = ["--samples", "10"] if command == "verify" else []
        out, err, code = run_main([command, write(tmp_path, doc)] + samples, capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: {key}.H: an estimate needs at least one row\n"

    @pytest.mark.parametrize("command", ["fuse", "scan", "known", "verify"])
    @pytest.mark.parametrize("block", [5, None, True, [], "x"])
    def test_estimate_that_is_not_an_object_exits_two_naming_it(self, tmp_path, capsys,
                                                                command, block):
        samples = ["--samples", "10"] if command == "verify" else []
        for key in ("est1", "est2"):
            doc = dict(EXAMPLE2, **{key: block})
            out, err, code = run_main([command, write(tmp_path, doc)] + samples, capsys)
            assert (out, code) == ("", cli.EXIT_INPUT)
            assert err == f"error: {key}: {json.dumps(block)} is not a JSON object\n"

    @pytest.mark.parametrize("key", ["est1", "est2"])
    def test_missing_estimate_block_says_so(self, tmp_path, capsys, key):
        doc = {k: v for k, v in EXAMPLE2.items() if k != key}
        out, err, code = run_main(["fuse", write(tmp_path, doc)], capsys)
        assert (out, code, err) == ("", cli.EXIT_INPUT, f"error: {key}: missing estimate block\n")

    @pytest.mark.parametrize("command", ["fuse", "scan", "known", "verify"])
    @pytest.mark.parametrize("truth", [5, None, True, 1e308, "P1 P2 P12"])
    def test_truth_that_is_not_an_object_exits_two_naming_it(self, tmp_path, capsys,
                                                             command, truth):
        doc = dict(EXAMPLE2, truth=truth)
        samples = ["--samples", "10"] if command == "verify" else []
        out, err, code = run_main([command, write(tmp_path, doc)] + samples, capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: truth: {json.dumps(truth)} is not a JSON object\n"

    @pytest.mark.parametrize("key", ["est1", "est2"])
    @pytest.mark.parametrize("x_hat, shape", [([[0.3]], "(1, 1)"), ([0.3, 0.1], "(2,)")])
    def test_misshapen_estimate_names_its_shape(self, tmp_path, capsys, key, x_hat, shape):
        # a one-row sensor's x_hat must be a vector of length one: a 1x1
        # matrix has the right size but the wrong shape, and says so
        doc = json.loads(json.dumps(SCALAR_PAIR))
        doc[key]["x_hat"] = x_hat
        out, err, code = run_main(["fuse", write(tmp_path, doc)], capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: {key}.x_hat: shape {shape}, expected (1,)\n"

    def test_ragged_observation_matrix_names_json_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["est1"]["H"] = [[1, 0], [0]]
        rc = cli.main(["fuse", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "est1.H: not numeric" in err


NUMBER_PATHS = ["est1.H", "est2.H", "est1.x_hat", "est2.x_hat", "est1.P_hat", "est2.P_hat",
                "truth.P1", "truth.P2", "truth.P12", "P_hat_override", *RESULT_KEYS]


def first_entry_replaced(value, entry):
    """A JSON value with its first number replaced by ``entry``."""
    if isinstance(value, list):
        return [first_entry_replaced(value[0], entry)] + value[1:]
    return entry


class TestJsonNumbers:
    @pytest.mark.parametrize("entry", ["1", True, None], ids=["string", "boolean", "null"])
    @pytest.mark.parametrize("where", NUMBER_PATHS)
    def test_non_number_exits_two_naming_its_path(self, tmp_path, capsys, where, entry):
        # np.asarray(..., dtype=float) converts "1" and true, so these files
        # were verified as if they held numbers (null became a NaN)
        rc = cli.main(verify_with_block(tmp_path, where, lambda v: first_entry_replaced(v, entry)))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"error: {where}: not numeric: {json.dumps(entry)} is not a JSON number\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command, where", [
        (command, where) for command in ("fuse", "scan", "known", "verify")
        for where in NUMBER_PATHS
        if command == "verify" or where.startswith("est")
        or command == "known" and where.startswith("truth")
    ])
    def test_integer_past_the_float_range_exits_two_naming_its_path(self, tmp_path, capsys,
                                                                      command, where):
        # np.asarray(10**400, dtype=float) raises OverflowError, which ended
        # each of these commands in a traceback and exit 1
        argv = verify_with_block(tmp_path, where, lambda v: first_entry_replaced(v, 10**400))
        if command != "verify":
            argv = [command, argv[1]]
        out, err, code = run_main(argv, capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: {where}: holds an integer outside the float range\n"

    def test_string_and_boolean_entries_rejected_by_fuse(self, tmp_path, capsys):
        # this file used to fuse at alpha = 0.5 and exit 0
        doc = {"n": 2,
               "est1": {"H": [["1", "0"]], "x_hat": ["1"], "P_hat": [["1"]]},
               "est2": {"H": [[0, True]], "x_hat": [2], "P_hat": [[1]]}}
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == 'error: est1.H: not numeric: "1" is not a JSON number\n'
        assert captured.out == ""


#: scaled so far out that H' P^-1 H overflows for both estimates, and the
#: fused covariance, about 1e-360, underflows
OUT_OF_RANGE = {
    "n": 3,
    "est1": {"H": [[1e200, 2e199, 0], [0, 1e200, 3e199]], "x_hat": [1, 2],
             "P_hat": [[1e40, 0], [0, 2e40]]},
    "est2": {"H": [[3e199, 0, 1e200]], "x_hat": [0.5], "P_hat": [[3e40]]},
}

#: one scalar state seen by two sensors so weak that every fused
#: covariance, about 1e310, overflows
FUSED_OVERFLOW = {
    "n": 1,
    "est1": {"H": [[1e-5]], "x_hat": [0], "P_hat": [[1e300]]},
    "est2": {"H": [[1e-5]], "x_hat": [1], "P_hat": [[2e300]]},
}

OUT_OF_FLOAT_RANGE = "error: fused covariance is outside the float range at every weight\n"


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["fuse", "verify", "scan"])
    def test_linalg_failure_exits_two_not_one(self, tmp_path, capsys, command):
        # exit 1 means a failed certificate; an input whose fused covariance
        # underflows at every weight is an input error, reported in one line
        # with no numpy warning before it (the information matrices'
        # overflow once reached the eigensolver, which did not converge)
        rc = cli.main([command, write(tmp_path, OUT_OF_RANGE)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == OUT_OF_FLOAT_RANGE
        assert captured.out == ""

    def test_an_estimate_a_1e130_times_less_informative_adds_no_rank(self, tmp_path, capsys):
        # whitened, the first estimate's rows are 1e-130 of the second's, so
        # the stack has numerical rank 1, whatever the rank of the raw H
        doc = json.loads(json.dumps(OUT_OF_RANGE))
        doc["est1"]["P_hat"] = [[1e300, 0], [0, 1e300]]
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: est1/est2: Assumption (A1) validation failed: "
                                "stacked observation matrix has rank 1 < n = 3\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fuse", "verify", "scan"])
    def test_overflowing_fused_covariance_exits_two_naming_it(self, tmp_path, capsys, command):
        # fuse and verify once printed a RuntimeWarning from the fused
        # covariance and then "matrix is not PSD (min eigenvalue inf)"
        rc = cli.main([command, write(tmp_path, FUSED_OVERFLOW)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == OUT_OF_FLOAT_RANGE
        assert captured.out == ""

    def test_no_warning_reaches_stderr_in_a_fresh_process(self, tmp_path):
        # the command's whole stderr, outside the test run's warning filters
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = [sys.executable, "-m", "cifusion", "fuse", write(tmp_path, FUSED_OVERFLOW)]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == OUT_OF_FLOAT_RANGE


#: a number printed as NaN or an infinity; ``eps=inf`` on the petersen row
#: is a documented value (an iterate at alpha = 0), not an overflow
NON_FINITE = re.compile(r"\b(nan|-?inf|infinity)\b", re.IGNORECASE)


class TestExitContractFuzz:
    """Files scaled across the float range keep the CLI's exit contract."""

    def test_no_traceback_warning_or_non_finite_output(self, tmp_path, capsys):
        codes = collections.Counter()
        for i, (doc, _) in enumerate(exit_contract_docs(12, 100)):
            path = write(tmp_path, doc, f"fuzz{i}.json")
            for argv in (["fuse", path, "--cost", "det"], ["fuse", path, "--cost", "trace"],
                         ["verify", path, "--samples", "200"], ["scan", path, "--grid", "11"]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = cli.main(argv)
                captured = capsys.readouterr()
                assert rc in (0, 1, 2), (argv, rc)
                assert not caught, (argv, [str(w.message) for w in caught])
                assert not NON_FINITE.search(captured.out.replace("eps=inf", "")), argv
                assert captured.err == "" or (captured.err.startswith("error: ")
                                              and captured.err.count("\n") == 1), argv
                codes[rc] += 1
        # the pool reaches both outcomes of every command, not only refusals
        assert codes[0] >= 50 and codes[2] >= 50, codes


#: TRACE costs near the float maximum, past it at alpha = 0.1; alpha = 0 is singular
TRACE_NEAR_FLOAT_MAX = {
    "n": 2,
    "est1": {"H": [[2e-154, 0], [0, 2e-154]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
    "est2": {"H": [[2e-154, 0]], "x_hat": [0], "P_hat": [[0.5]]},
}

#: a fused covariance of about 1e308 at alpha = 1/2 that overflows at the
#: DET weight 2/3, where its third diagonal entry is about 2e308
OVERFLOW_AT_WEIGHT = {
    "n": 3,
    "est1": {"H": [[1.2e-154, 0, 0], [0, 1.2e-154, 0]], "x_hat": [0, 0],
             "P_hat": [[1, 0], [0, 1]]},
    "est2": {"H": [[0, 0, 1.2e-154]], "x_hat": [0], "P_hat": [[1]]},
}


def quiet_main(argv, capsys):
    """(stdout, stderr, exit code, warning messages) of one ``cli.main`` call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, rc, [str(w.message) for w in caught]


class TestOverflowNearTheFloatRange:
    def test_trace_search_on_a_1e302_fused_covariance_does_not_warn(self, tmp_path, capsys):
        # the TRACE slope pair overflowed twice in a matmul here
        path = write(tmp_path, exit_contract_docs(3, 100)[64][0])
        out, err, rc, caught = quiet_main(["fuse", path, "--cost", "trace"], capsys)
        assert (rc, err, caught) == (0, "", [])
        assert json.loads(out)["branch"] == "interior_root"

    def test_walk_scale_overflows_to_inf_silently(self, tmp_path, capsys):
        # the walk's sample-norm bound overflowed twice in a scalar multiply;
        # the exit code and every verdict are those printed with the warnings
        path = write(tmp_path, exit_contract_docs(16, 600)[577][0])
        out, err, rc, caught = quiet_main(["verify", path, "--samples", "200"], capsys)
        assert (rc, err, caught) == (0, "", [])
        assert [line.split()[:2] for line in out.splitlines()[:4]] == [
            ["lmi", "PASS"], ["petersen", "PASS"], ["adversarial-x", "PASS"],
            ["monte-carlo", "PASS"]]

    @pytest.mark.parametrize("grid", [11, 101])
    def test_trace_scan_past_the_float_maximum_does_not_warn(self, tmp_path, capsys, grid):
        # the trace sum overflowed in a divide here; every row is the exact
        # power-of-two image of the same problem's at unit scale, or empty
        # where that image is past the float range
        def rows(doc, name):
            out, err, rc, caught = quiet_main(
                ["scan", write(tmp_path, doc, name), "--cost", "trace", "--grid", str(grid)], capsys)
            assert (rc, err, caught) == (0, "", [])
            return [line.split(",") for line in out.splitlines()[1:-1]]

        k = 511
        unit_doc = json.loads(json.dumps(TRACE_NEAR_FLOAT_MAX))
        for key in ("est1", "est2"):
            unit_doc[key]["H"] = np.ldexp(unit_doc[key]["H"], k).tolist()
        got, unit = rows(TRACE_NEAR_FLOAT_MAX, "problem.json"), rows(unit_doc, "unit.json")
        assert got[0][1:] == got[(grid - 1) // 10][1:] == ["", "0"]
        for row, unit_row in zip(got, unit, strict=True):
            assert row[0] == unit_row[0]
            try:
                want = math.ldexp(float(unit_row[1]), 2 * k) if unit_row[2] == "1" else None
            except OverflowError:
                want = None
            if want is None:
                assert row[1:] == ["", "0"]
            else:
                assert row[2] == "1" and float(row[1]) == want

    @pytest.mark.parametrize("command, alpha", [
        (["fuse"], "0.6666666666666667"),
        (["fuse", "--cost", "trace"], "0.585786437626905"),
        (["verify"], "0.6666666666666667"),
    ])
    def test_fused_covariance_overflowing_at_the_weight_exits_two(
        self, tmp_path, capsys, command, alpha
    ):
        # this printed a RuntimeWarning from the fused covariance and then
        # "matrix is not PSD (min eigenvalue nan)"
        path = write(tmp_path, OVERFLOW_AT_WEIGHT)
        out, err, rc, caught = quiet_main([command[0], path, *command[1:]], capsys)
        assert (out, rc, caught) == ("", 2, [])
        assert err == f"error: fused covariance is outside the float range at alpha={alpha}\n"


class TestSingularEnds:
    """Files with a singular end, where some ``1 + t lam`` is exactly 0.

    The weight search's slopes and member tests run on Python floats, which
    raise where numpy divided by zero to an infinity; each command keeps
    the branch, the rows and the exit code it had on numpy's.
    """

    @pytest.mark.parametrize("doc, cost, branch", [
        (SCALAR_PAIR, "det", "interior_root"), (SCALAR_PAIR, "trace", "interior_root"),
        (TRACE_NEAR_FLOAT_MAX, "det", "endpoint_one"),
        (TRACE_NEAR_FLOAT_MAX, "trace", "endpoint_one"),
    ])
    def test_fuse_and_verify_keep_their_branch(self, tmp_path, capsys, doc, cost, branch):
        path = write(tmp_path, doc)
        out, err, rc, caught = quiet_main(["fuse", path, "--cost", cost], capsys)
        assert (err, rc, caught) == ("", 0, [])
        assert json.loads(out)["branch"] == branch
        out, err, rc, caught = quiet_main(["verify", path, "--cost", cost, "--samples", "50"],
                                          capsys)
        assert (err, rc, caught) == ("", 0, [])

    @pytest.mark.parametrize("doc, cost, last", [
        (SCALAR_PAIR, "det", "1,,0"), (SCALAR_PAIR, "trace", "1,,0"),
        (TRACE_NEAR_FLOAT_MAX, "det", "1,,0"),
        (TRACE_NEAR_FLOAT_MAX, "trace", "1,5.0000000000000021e+307,1"),
        (OVERFLOW_AT_WEIGHT, "det", "1,,0"), (OVERFLOW_AT_WEIGHT, "trace", "1,,0"),
    ])
    def test_scan_prints_the_singular_end_rows(self, tmp_path, capsys, doc, cost, last):
        out, err, rc, caught = quiet_main(
            ["scan", write(tmp_path, doc), "--cost", cost, "--grid", "11"], capsys)
        assert (err, rc, caught) == ("", 0, [])
        rows = out.splitlines()
        assert (rows[1], rows[-2]) == ("0,,0", last)


def run_main(argv, capsys):
    """(stdout, stderr, exit code) of one ``cli.main`` call, SystemExit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


class TestParserReuse:
    def sequence(self, tmp_path):
        problem = write(tmp_path, EXAMPLE2)
        fused = str(tmp_path / "fused.json")
        return [
            ["fuse", problem, "--out", fused, "--cost", "trace"],
            ["fuse", problem],
            ["verify", problem, "--result", fused, "--samples", "50", "--seed", "3"],
            ["verify", problem],
            ["verify", problem, "--cost", "trace"],
            ["scan", problem, "--grid", "5"],
            ["sim"],
            ["verify", problem, "--samples", "0"],
            ["verify", problem, "--no-such-option"],
            ["--help"],
        ]

    def test_in_process_calls_build_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        real_build = cli.build_parser

        def counted():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in self.sequence(tmp_path) * 2:
            run_main(argv, capsys)
        assert len(built) == 1

    def test_import_builds_no_parser_and_build_parser_stays_fresh(self, capsys):
        # a fresh interpreter, so that no earlier call has built the parser
        code = "import cifusion.cli as cli; raise SystemExit(cli._PARSER is not None)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
        run_main(["--help"], capsys)
        kept = cli._PARSER
        assert isinstance(kept, argparse.ArgumentParser)
        assert cli.build_parser() is not kept and cli._PARSER is kept

    def test_shared_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        fused = tmp_path / "fused.json"
        monkeypatch.setattr(cli, "_PARSER", None)
        shared = []
        for argv in self.sequence(tmp_path):
            shared.append(run_main(argv, capsys) + (fused.read_text(),))
        fused.unlink()
        fresh = []
        for argv in self.sequence(tmp_path):
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run_main(argv, capsys) + (fused.read_text(),))
        assert shared == fresh
        codes = [code for _, _, code, _ in shared]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 2, ("SystemExit", 2), ("SystemExit", 0)]
        # an option left out takes its default, whatever the call before gave
        sequence = self.sequence(tmp_path)
        spelled_out = {1: ["--cost", "det"],
                       3: ["--cost", "det", "--samples", "1000", "--seed", "0"]}
        for i, defaults in spelled_out.items():
            assert shared[i][:3] == run_main(sequence[i] + defaults, capsys)


class TestSamplerFailures:
    """``verify`` runs the adversarial search, then Monte Carlo, on the calling thread."""

    @pytest.mark.parametrize("broken", [
        ("monte_carlo_joint",),
        ("adversarial_x_search",),
        # the adversarial search runs first, so its error is the one reported
        ("adversarial_x_search", "monte_carlo_joint"),
    ])
    def test_sampler_failure_exits_internal(self, tmp_path, capsys, monkeypatch, broken):
        problem = write(tmp_path, EXAMPLE2)
        for name in broken:
            def fail(*args, name=name):
                raise InternalInconsistencyError(f"{name} broke")

            monkeypatch.setattr(verifier, name, fail)
        before = threading.active_count()
        out, err, code = run_main(["verify", problem, "--samples", "50"], capsys)
        assert (out, err, code) == ("", f"internal inconsistency: {broken[0]} broke\n",
                                    cli.EXIT_INTERNAL)
        assert threading.active_count() == before

    @pytest.mark.parametrize("divide", ["raise", "ignore"])
    def test_samplers_take_the_callers_errstate(self, tmp_path, capsys, monkeypatch, divide):
        # numpy keeps np.errstate per context: a sampler run outside the
        # caller's context would warn (an error under this suite's filter)
        problem = write(tmp_path, EXAMPLE2)

        def dividing(*args):  # -inf: below the bound of every admissible sample
            return float(np.divide(-1.0, np.zeros(1))[0])

        monkeypatch.setattr(verifier, "monte_carlo_joint", dividing)
        argv = ["verify", problem, "--samples", "50"]
        with np.errstate(divide=divide):
            if divide == "raise":
                with pytest.raises(FloatingPointError):
                    cli.main(argv)
                return
            out, _, code = run_main(argv, capsys)
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
        assert rows["adversarial-x"][0] == "PASS"
        assert rows["monte-carlo"] == ["PASS", f"worst={cli.fmt(-np.inf)}"]
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("doc", [EXAMPLE2, SCALAR_PAIR, "shrunk"])
    def test_monte_carlo_above_the_bound_exits_internal(self, tmp_path, capsys, monkeypatch,
                                                         doc):
        # min f bounds every admissible sample, so a Monte Carlo value above
        # it beyond rounding is an inconsistency between redundant routes,
        # whether the witness passes or fails; one just inside the margin
        # is printed
        if doc == "shrunk":
            doc = dict(SCALAR_PAIR, P_hat_override=[[0.9, 0.0], [0.0, 0.9]])
        path = write(tmp_path, doc)
        problem, extras = cli.load_problem_file(path)
        result = solve_ci(problem, Cost.DET)
        if "p_hat_override" in extras:
            result = dataclasses.replace(result, P_hat=extras["p_hat_override"], diagnostics={})
        bound = verifier._walk(result, problem).bound
        witness = verifier.adversarial_x_search(result, problem)
        assert witness <= bound
        for above, code in ((1e-6, cli.EXIT_INTERNAL), (0.0, None)):
            monkeypatch.setattr(verifier, "monte_carlo_joint", lambda *args: bound + above)
            out, err, got = run_main(["verify", path, "--samples", "50"], capsys)
            if code == cli.EXIT_INTERNAL:
                assert (out, got) == ("", code)
                assert err.startswith("internal inconsistency: Monte Carlo value ")
            else:
                assert err == "" and got in (cli.EXIT_OK, cli.EXIT_CERT_FAIL)

    def test_unaddressable_sample_count_exits_two_before_sampling(self, tmp_path, capsys,
                                                                  monkeypatch):
        # 2**62 samples: Monte Carlo refuses the count before it draws a sample
        problem = write(tmp_path, EXAMPLE2)

        def unreachable(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        out, err, code = run_main(["verify", problem, "--samples", str(2**62)], capsys)
        assert (out, code) == ("", cli.EXIT_INPUT)
        assert err == f"error: --samples: {2**62} samples do not fit in memory\n"

    # any route that certify runs, the scalar certificate as well as the samplers
    @pytest.mark.parametrize("name", ["petersen_certificate", "adversarial_x_search",
                                      "monte_carlo_joint"])
    def test_out_of_memory_in_certify_exits_two_naming_samples(self, tmp_path, capsys,
                                                               monkeypatch, name):
        problem = write(tmp_path, EXAMPLE2)

        def exhausted(*args):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(verifier, name, exhausted)
        out, err, code = run_main(["verify", problem, "--samples", "50"], capsys)
        assert (out, err, code) == ("", "error: --samples: 50 samples do not fit in memory\n",
                                    cli.EXIT_INPUT)

    def test_verify_starts_no_thread(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError(f"verify started thread {self.name!r}")

        problem = write(tmp_path, EXAMPLE2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        out, _, code = run_main(["verify", problem, "--samples", "50"], capsys)
        assert code == cli.EXIT_OK and "monte-carlo" in out

    def test_passing_verify_leaves_no_thread(self, tmp_path, capsys):
        problem = write(tmp_path, EXAMPLE2)
        before = threading.active_count()
        out, _, code = run_main(["verify", problem, "--samples", "50"], capsys)
        assert code == cli.EXIT_OK and "monte-carlo" in out
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        # a fresh interpreter, so that no earlier call has run a verifier
        code = ("import threading, cifusion, cifusion.cli, cifusion.verifier; "
                "raise SystemExit(threading.enumerate() != [threading.main_thread()])")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
