"""Command-line front end.

Subcommands: ``fuse``, ``scan``, ``verify``, ``known``, ``sim``.
Problem files are JSON documents with keys ``n``, ``est1``/``est2`` (each
``H`` p x n, ``x_hat`` length p, ``P_hat`` p x p) and optional ``truth``
(``P1``, ``P2``, ``P12``) and ``P_hat_override`` blocks; each covariance
block goes through :func:`~cifusion.problem.covariance`.

Exit codes: 0 success, 1 certificate failure, 2 input or validation
failure, 3 internal inconsistency.  Diagnostics go to standard error; every
number is serialized with 17 significant digits (one that is not finite as
``null``), so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import verifier
from .errors import (
    CiFusionError,
    InternalInconsistencyError,
    NotPdError,
    ProblemFileError,
)
from .known_cross import JointCovariance, optimal_fusion_known_cross
from .linalg import RESULT_RTOL, PsdMatrix
from .optimizer import Cost, FusionResult, solve_ci
from .problem import FusionProblem, PartialEstimate, covariance
from .simulator import NoiseSpec, init_network, make_schedule, run_schedule

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def fmt(x: float) -> str:
    """One float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON writer with deterministic 17-digit float formatting."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {dumps(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        inner = ", ".join(dumps(v).strip() for v in seq)
        return f"{pad}[{inner}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):  # JSON has no infinity: an overflow is null
        return pad + (fmt(obj) if math.isfinite(obj) else "null")
    return pad + json.dumps(obj)


def _array(value, path: str) -> np.ndarray:
    """A finite float array of JSON numbers (not strings or booleans), or an error naming it."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # a JSON integer past the float range
        raise ProblemFileError(path, "holds an integer outside the float range") from None
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(path, f"not numeric: {exc}") from None
    for entry in np.asarray(value, dtype=object).flat:
        if type(entry) not in (int, float):
            raise ProblemFileError(path, f"not numeric: {json.dumps(entry)} is not a JSON number")
    if not np.isfinite(arr).all():
        raise ProblemFileError(path, "holds a NaN or an infinity")
    return arr


def _finite(number: int | float) -> bool:
    """Whether a JSON number is a finite float; an integer past the float range is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    """The ``rows x cols`` matrix at ``path``; an array :func:`_array` typed is not typed again."""
    arr = value if isinstance(value, np.ndarray) else _array(value, path)
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise ProblemFileError(
                path, f"flat array of {arr.size} values cannot fill {rows}x{cols}"
            )
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise ProblemFileError(path, f"shape {arr.shape}, expected {(rows, cols)}")
    return arr


def _covariance(value, dim: int, path: str) -> PsdMatrix:
    """The block at ``path`` through :func:`covariance`, or an error naming the path."""
    arr = _matrix(value, dim, dim, path)
    try:
        return covariance(arr, dim, path)
    except CiFusionError as exc:  # its message starts with the path
        raise ProblemFileError(path, str(exc).removeprefix(f"{path}: ")) from None


def _estimate(doc: dict, key: str, n: int) -> PartialEstimate:
    if key not in doc:
        raise ProblemFileError(key, "missing estimate block")
    block = doc[key]
    if not isinstance(block, dict):
        raise ProblemFileError(key, f"{json.dumps(block)} is not a JSON object")
    for field in ("H", "x_hat", "P_hat"):
        if field not in block:
            raise ProblemFileError(f"{key}.{field}", "missing")
    h_raw = _array(block["H"], f"{key}.H")
    p = h_raw.shape[0] if h_raw.ndim == 2 else h_raw.size // n
    if p < 1:
        raise ProblemFileError(f"{key}.H", "an estimate needs at least one row")
    h = _matrix(h_raw, p, n, f"{key}.H")
    x_hat = np.atleast_1d(_array(block["x_hat"], f"{key}.x_hat"))
    if x_hat.shape != (p,):
        raise ProblemFileError(f"{key}.x_hat", f"shape {x_hat.shape}, expected ({p},)")
    p_hat = _covariance(block["P_hat"], p, f"{key}.P_hat")
    try:
        return PartialEstimate(h, x_hat, p_hat)
    except NotPdError as exc:  # PSD but singular: the estimate's check on P_hat
        raise ProblemFileError(f"{key}.P_hat", str(exc).removeprefix("P_hat: ")) from None
    except CiFusionError as exc:
        raise ProblemFileError(key, str(exc)) from None


def _read_json(path: str):
    """The JSON document in the file at ``path``, or :class:`ProblemFileError` naming the file.

    The file's bytes are parsed as JSON text (RFC 8259): UTF-8, or UTF-16 or
    UTF-32 told by its first bytes, whatever the locale.  Bytes that do not
    decode and nesting deeper than the parser's recursion limit are
    invalid JSON like any other.
    """
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise ProblemFileError(path, str(exc)) from None
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise ProblemFileError(path, f"invalid JSON: {exc}") from None


def load_problem_file(path: str) -> tuple[FusionProblem, dict]:
    """Parse and validate a problem file; extras carry optional blocks."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "n" not in doc:
        raise ProblemFileError("n", "missing state dimension")
    n = doc["n"]
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ProblemFileError("n", f"not an integer: {doc['n']!r}")
    if n < 1:
        raise ProblemFileError("n", f"state dimension must be positive, got {n}")
    est1 = _estimate(doc, "est1", n)
    est2 = _estimate(doc, "est2", n)
    try:
        problem = FusionProblem(est1, est2)
    except CiFusionError as exc:
        raise ProblemFileError(
            "est1/est2", f"Assumption (A1) validation failed: {exc}"
        ) from None
    extras: dict = {}
    if "truth" in doc:
        t = doc["truth"]
        if not isinstance(t, dict):
            raise ProblemFileError("truth", f"{json.dumps(t)} is not a JSON object")
        for field in ("P1", "P2", "P12"):
            if field not in t:
                raise ProblemFileError(f"truth.{field}", "missing")
        p1 = _covariance(t["P1"], problem.p1, "truth.P1")
        p2 = _covariance(t["P2"], problem.p2, "truth.P2")
        p12 = _matrix(t["P12"], problem.p1, problem.p2, "truth.P12")
        try:
            extras["truth"] = JointCovariance(p1, p12, p2)
        except CiFusionError as exc:
            raise ProblemFileError("truth", str(exc)) from None
    if "P_hat_override" in doc:
        extras["p_hat_override"] = _covariance(doc["P_hat_override"], n, "P_hat_override")
    return problem, extras


def _result_to_json(result: FusionResult) -> dict:
    cert = result.diagnostics.get("certificate")
    out = {
        "alpha": result.alpha,
        "K1": result.K1,
        "K2": result.K2,
        "P_hat": result.P_hat.data,
        "fused_x": result.fused_x,
        "cost_value": result.cost_value,
        "lmi_min_eig": None if cert is None else cert.lmi_min_eig,
        "branch": result.diagnostics.get("branch"),
    }
    if result.diagnostics.get("branch") == "equal":
        out["note"] = "degenerate: any alpha optimal"
    return out


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProblemFileError("--out", str(exc)) from None
    else:
        sys.stdout.write(text)


def cmd_fuse(args) -> int:
    problem, _ = load_problem_file(args.file)
    result = solve_ci(problem, Cost(args.cost))
    _write_out(dumps(_result_to_json(result)) + "\n", args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.grid < 2:
        raise ProblemFileError("--grid", "needs at least two points")
    # a grid whose weights numpy cannot address exits before anything is allocated
    if args.grid > np.iinfo(np.intp).max // 8:
        raise ProblemFileError("--grid", f"{args.grid} points exceed the addressable memory")
    problem, _ = load_problem_file(args.file)
    cost, spectrum = Cost(args.cost), problem.spectrum
    rows = ["alpha,cost,finite"]
    values = []
    try:
        alphas = np.linspace(0.0, 1.0, args.grid)
        for a in alphas:
            # the solver's own cost, so the row at fuse's weight prints its cost_value
            t = a - 0.5
            v = spectrum.cost(cost, t) if spectrum.regular_at(t) else math.inf
            values.append(v)
            if math.isinf(v):
                rows.append(f"{fmt(a)},,0")
            elif math.isnan(v):
                raise ProblemFileError(f"alpha={fmt(a)}", "the cost is not a number")
            else:
                rows.append(f"{fmt(a)},{fmt(v)},1")
    except MemoryError as exc:
        raise ProblemFileError("--grid", f"{args.grid} points do not fit in memory") from exc
    argmin = int(np.argmin(values))
    # with no finite cost on the grid, both fields are empty, as a row prints such a cost
    best = f"{fmt(alphas[argmin])},{fmt(values[argmin])}" if math.isfinite(values[argmin]) else ","
    rows.append(f"# argmin,{best}")
    _write_out("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _check_misfit(k1, y1, k2, y2, target, path: str, what: str, message: str) -> None:
    """Refuse the result at ``path`` where ``what = K1 y1 + K2 y2`` misses ``target``.

    The misfit ``max|K1 y1 + K2 y2 - target|`` is judged against
    ``RESULT_RTOL`` of the scale ``max(|K1| |y1| + |K2| |y2|)``, and
    ``message`` is formatted with it.  A scale past the float range is
    refused as well: the misfit would be NaN there, and NaN passes any test
    against a bound.  Nothing here warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        size = (np.abs(k1) @ np.abs(y1) + np.abs(k2) @ np.abs(y2)).max()
        misfit = np.abs(k1 @ y1 + k2 @ y2 - target).max()
    if not np.isfinite(size):
        raise ProblemFileError(path, f"{what} is past the float range")
    if misfit > RESULT_RTOL * size:
        raise ProblemFileError(path, message.format(fmt(misfit)))


def _load_result_file(path: str, problem: FusionProblem) -> FusionResult:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ProblemFileError(path, "a result file holds one JSON object")
    for key in ("alpha", "K1", "K2", "P_hat", "fused_x"):
        if key not in doc:
            raise ProblemFileError(key, "missing from the result file")
    n = problem.n
    alpha = _array(doc["alpha"], "alpha")
    if alpha.shape != () or not 0.0 <= alpha <= 1.0:
        raise ProblemFileError("alpha", f"{doc['alpha']!r} is not a weight in [0, 1]")
    k1 = _matrix(doc["K1"], n, problem.p1, "K1")
    k2 = _matrix(doc["K2"], n, problem.p2, "K2")
    h1, h2 = problem.est1.h, problem.est2.h
    _check_misfit(k1, h1, k2, h2, np.eye(n), "K1", "K1 H1 + K2 H2",
                  "K1 H1 + K2 H2 differs from I by {}: the gains are biased")
    p_hat = _covariance(doc["P_hat"], n, "P_hat")
    fused_x = _array(doc["fused_x"], "fused_x")
    if fused_x.shape != (n,):
        raise ProblemFileError("fused_x", f"shape {fused_x.shape}, expected ({n},)")
    x1, x2 = problem.est1.x_hat, problem.est2.x_hat
    _check_misfit(k1, x1, k2, x2, fused_x, "fused_x", "K1 x_hat1 + K2 x_hat2",
                  "differs from K1 x_hat1 + K2 x_hat2 by {}")
    cost_value = doc.get("cost_value")
    if not (cost_value is None or type(cost_value) in (int, float) and _finite(cost_value)):
        raise ProblemFileError("cost_value",
                               f"{json.dumps(cost_value)} is not a finite number or null")
    if not isinstance(doc.get("branch"), (str, type(None))):
        raise ProblemFileError("branch", f"{json.dumps(doc['branch'])} is not a string or null")
    return FusionResult(
        alpha=float(alpha),
        K1=k1,
        K2=k2,
        P_hat=p_hat,
        fused_x=fused_x,
        cost_value=cost_value,
        diagnostics={"branch": doc.get("branch")},
    )


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ProblemFileError("--samples", f"must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ProblemFileError("--seed", f"must not be negative, got {args.seed}")
    problem, extras = load_problem_file(args.file)
    if args.result:
        result = _load_result_file(args.result, problem)
    else:
        result = solve_ci(problem, Cost(args.cost))
    if "p_hat_override" in extras:
        # the solved cost describes the solved P_hat; certify refuses its
        # certificate for another P_hat on its own
        result = dataclasses.replace(result, P_hat=extras["p_hat_override"], cost_value=None)
    try:
        rows = verifier.certify(result, problem, args.samples, args.seed, extras.get("truth"))
    except MemoryError as exc:
        raise ProblemFileError("--samples", f"{args.samples} samples do not fit in memory") from exc
    width = max(len(row.name) for row in rows)
    for row in rows:
        value = row.value if row.value is None or isinstance(row.value, str) else fmt(row.value)
        detail = "infeasible" if value is None else f"{row.measure}={value}"
        print(f"{row.name:<{width}}  {'PASS' if row.passed else 'FAIL'}  {detail}")
    all_pass = all(row.passed for row in rows)
    print(f"verdict: {'all certificates pass' if all_pass else 'certificate failure'}")
    return EXIT_OK if all_pass else EXIT_CERT_FAIL


def cmd_known(args) -> int:
    problem, extras = load_problem_file(args.file)
    if "truth" not in extras:
        raise ProblemFileError("truth", "the known-cross command needs a truth block")
    joint = extras["truth"]
    result = optimal_fusion_known_cross(problem, joint)
    out = {
        "K_star": result.K_star,
        "P_star": result.P_star.data,
        "P_star_inv": result.P_star_inv,
    }
    _write_out(dumps(out) + "\n", getattr(args, "out", None))
    return EXIT_OK


_SIM_PRESETS = {
    # two scalar observers of a planar state, unit variances
    "example1": NoiseSpec(h_list=[[[1.0, 0.0]], [[0.0, 1.0]]], p_list=[[[1.0]], [[1.0]]]),
    # both nodes observe the same direction: full rank is unreachable
    "collinear": NoiseSpec(h_list=[[[1.0, 0.0]], [[1.0, 0.0]]], p_list=[[[1.0]], [[1.0]]]),
}


def cmd_sim(args) -> int:
    spec = None
    n = args.state_dim
    if args.nodes < 2:
        raise ProblemFileError("--nodes", f"need at least two nodes, got {args.nodes}")
    if args.events < 0:
        raise ProblemFileError("--events", f"must not be negative, got {args.events}")
    if args.seed < 0:
        raise ProblemFileError("--seed", f"must not be negative, got {args.seed}")
    if args.preset:
        spec = _SIM_PRESETS[args.preset]
        n = 2
        if args.nodes != 2:
            raise ProblemFileError("--nodes", f"preset {args.preset} needs 2 nodes")
    elif n < 1:
        raise ProblemFileError("--state-dim", f"must be at least 1, got {n}")
    try:
        nodes, truth = init_network(n, args.nodes, args.seed, spec)
    except MemoryError as exc:
        raise ProblemFileError("--nodes", f"{args.nodes} nodes of state dimension {n} "
                               "do not fit in memory") from exc
    try:
        schedule = make_schedule(args.topology, args.nodes, args.events, Cost(args.cost), args.seed)
    except MemoryError as exc:
        raise ProblemFileError("--events", f"{args.events} events do not fit in memory") from exc
    report = run_schedule(nodes, truth, schedule)
    _write_out(report.to_text(), args.out)
    return EXIT_OK if report.violations == 0 else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifusion",
        description="Conservative fusion of partial state estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="solve the optimal fusion problem")
    p_fuse.add_argument("file")
    p_fuse.add_argument("--cost", choices=["det", "trace"], default="det")
    p_fuse.add_argument("--out", default=None)
    p_fuse.set_defaults(func="cmd_fuse")

    p_scan = sub.add_parser("scan", help="tabulate the cost over a weight grid")
    p_scan.add_argument("file")
    p_scan.add_argument("--cost", choices=["det", "trace"], default="det")
    p_scan.add_argument("--grid", type=int, default=101)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func="cmd_scan")

    p_verify = sub.add_parser("verify", help="run the conservativeness certificates")
    p_verify.add_argument("file")
    p_verify.add_argument("--cost", choices=["det", "trace"], default="det")
    p_verify.add_argument("--samples", type=int, default=1000,
                          help="Monte Carlo draws; the adversarial-x row is the exact witness")
    p_verify.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p_verify.add_argument("--result", default=None, help="verify a stored fuse output")
    p_verify.set_defaults(func="cmd_verify")

    p_known = sub.add_parser("known", help="optimal fusion with known cross covariance")
    p_known.add_argument("file")
    p_known.add_argument("--out", default=None)
    p_known.set_defaults(func="cmd_known")

    p_sim = sub.add_parser("sim", help="run a distributed fusion simulation")
    p_sim.add_argument("--nodes", type=int, default=5)
    p_sim.add_argument("--topology", choices=["chain", "ring", "random"], default="ring")
    p_sim.add_argument("--events", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--cost", choices=["det", "trace"], default="det")
    p_sim.add_argument("--state-dim", type=int, default=4)
    p_sim.add_argument("--preset", choices=sorted(_SIM_PRESETS), default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func="cmd_sim")
    return parser


#: the parser every :func:`main` call shares, built by the first call rather
#: than at import; ``parse_args`` reads it and does not mutate it, so it is
#: safe to share across calls and threads (first calls that race each build
#: an equivalent one, and one of them is kept).  It names each subcommand's
#: handler, and :func:`main` looks the name up in this module per call, so a
#: handler replaced after the first call is the one that runs.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    parser = _PARSER
    if parser is None:
        parser = _PARSER = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.func](args)
    except np.linalg.LinAlgError as exc:  # an input scaled beyond what LAPACK resolves
        print(f"error: linear algebra failed on this input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CiFusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
