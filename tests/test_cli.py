import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cifusion import cli

from conftest import well_scaled_problems


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
        assert "(A1)" in err

    def test_output_is_deterministic(self, tmp_path):
        path = write(tmp_path, EXAMPLE2)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["fuse", path, "--out", str(out1)]) == 0
        assert cli.main(["fuse", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScan:
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

    def test_two_point_grid(self, tmp_path, capsys):
        rc = cli.main(["scan", write(tmp_path, EXAMPLE2), "--grid", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert rc == 0 and len(data_rows) == 2
        assert data_rows[0].split(",")[0] == "0"
        assert data_rows[1].split(",")[0] == "1"

    def test_infinite_information_exits_two_naming_the_estimate(self, tmp_path, capsys):
        # H_i' P_i^-1 H_i overflows to an infinity when it is symmetrized;
        # that is now reported for the estimate, where the scan once got as
        # far as a NaN cost at an interior weight (inf times zero)
        doc = {
            "n": 2,
            "est1": {"H": [[1e154, 0]], "x_hat": [0], "P_hat": [[1]]},
            "est2": {"H": [[0, 1e154]], "x_hat": [0], "P_hat": [[1]]},
        }
        rc = cli.main(["scan", write(tmp_path, doc), "--grid", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: est1: information matrix H' P_hat^-1 H overflows\n"
        assert captured.out == ""


class TestVerify:
    def test_example_all_pass(self, tmp_path, capsys):
        rc = cli.main(["verify", write(tmp_path, EXAMPLE2), "--samples", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

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

    def test_full_state_reports_two_track_form(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "est1": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
            "est2": {"H": [[1, 0], [0, 1]], "x_hat": [0, 0], "P_hat": [[1, 0], [0, 1]]},
            "truth": {"P1": [[1, 0], [0, 1]], "P2": [[1, 0], [0, 1]], "P12": [[0, 0], [0, 0]]},
        }
        rc = cli.main(["known", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        np.testing.assert_allclose(out["P_star"], 0.5 * np.eye(2), atol=1e-12)
        assert out["bsc"]["agreement_residual"] <= 1e-10

    def test_seeded_full_state_agreement(self, tmp_path, capsys):
        from conftest import random_joint, random_spd

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
        assert out["bsc"]["agreement_residual"] <= 1e-10

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

    def test_collinear_preset_unreachable(self, tmp_path, capsys):
        rc = cli.main([
            "sim", "--nodes", "2", "--topology", "chain", "--events", "1",
            "--preset", "collinear",
        ])
        assert rc == 2
        assert "rank" in capsys.readouterr().err


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


#: scaled so far out that H' P^-1 H overflows for both estimates
OUT_OF_RANGE = {
    "n": 3,
    "est1": {"H": [[1e200, 2e199, 0], [0, 1e200, 3e199]], "x_hat": [1, 2],
             "P_hat": [[1e40, 0], [0, 2e40]]},
    "est2": {"H": [[3e199, 0, 1e200]], "x_hat": [0.5], "P_hat": [[3e40]]},
}


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["fuse", "verify", "scan"])
    def test_linalg_failure_exits_two_not_one(self, tmp_path, capsys, command):
        # exit 1 means a failed certificate; an input whose information
        # matrix overflows is an input error, reported in one line with no
        # numpy warning before it (the overflow once reached the eigensolver,
        # which did not converge, after three RuntimeWarnings)
        rc = cli.main([command, write(tmp_path, OUT_OF_RANGE)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: est1: information matrix H' P_hat^-1 H overflows\n"
        assert captured.out == ""

    def test_overflow_names_the_second_estimate(self, tmp_path, capsys):
        doc = json.loads(json.dumps(OUT_OF_RANGE))
        doc["est1"]["P_hat"] = [[1e300, 0], [0, 1e300]]
        rc = cli.main(["fuse", write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: est2: information matrix H' P_hat^-1 H overflows\n"
        assert captured.out == ""

    def test_no_warning_reaches_stderr_in_a_fresh_process(self, tmp_path):
        # the command's whole stderr, outside the test run's warning filters
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = [sys.executable, "-m", "cifusion", "fuse", write(tmp_path, OUT_OF_RANGE)]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: est1: information matrix H' P_hat^-1 H overflows\n"


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
