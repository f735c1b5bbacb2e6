import ast
import sys
from pathlib import Path

import cifusion


def test_every_exported_name_resolves():
    missing = [name for name in cifusion.__all__ if not hasattr(cifusion, name)]
    assert missing == []
    assert len(set(cifusion.__all__)) == len(cifusion.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cifusion import *", namespace)
    assert set(cifusion.__all__) <= set(namespace)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (``from __future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export
    unused = {}
    for path in sorted(Path(cifusion.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if names:
                unused[path.name] = names
    assert unused == {}


def test_every_source_file_parses_as_python_3_10():
    """The package, its tests and the benchmark use no grammar newer than 3.10.

    This checks syntax only (``requires-python = ">=3.10"``), not the
    standard-library API: a call to a function added after 3.10 still passes.
    """
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _constants(tree: ast.Module) -> list[str]:
    """Module-level UPPER_CASE names the module assigns."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id.isupper()]
    return names


def test_every_constant_is_read_in_the_package():
    # a deleted stage must not leave its constant behind; a read is a name
    # or an attribute load in any module, importing it alone is not one
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted(Path(cifusion.__file__).parent.glob("*.py"))]
    constants = [name for tree in trees for name in _constants(tree)]
    assert len(constants) > 10
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [name for name in constants if name not in read] == []


#: (module, function) pairs that may build a random generator; None: anywhere in the module
RANDOM_SCOPES = {("verifier.py", "monte_carlo_joint"), ("simulator.py", None)}
#: the numpy names that build one
GENERATOR_NAMES = {"default_rng", "SeedSequence", "Generator", "RandomState"}


def _random_uses(tree: ast.Module) -> list[tuple[str | None, str, int]]:
    """``(function, name, line)`` of every read of a generator name or of ``numpy.random``.

    ``function`` is the enclosing top-level function, or None at module level.
    """
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            scope = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            name = None
            if isinstance(child, ast.Name) and child.id in GENERATOR_NAMES:
                name = child.id
            elif isinstance(child, ast.Attribute) and (
                    child.attr in GENERATOR_NAMES or child.attr == "random"
                    and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
                name = child.attr
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                module = getattr(child, "module", None) or ""
                names = [module] + [alias.name for alias in child.names]
                if any("random" in n.split(".") or n in GENERATOR_NAMES for n in names):
                    name = "import"
            if name is not None:
                uses.append((scope, name, child.lineno))
            visit(child, scope)

    visit(tree, None)
    return uses


def test_only_monte_carlo_and_the_simulator_build_random_generators():
    # sampling must not creep back into a certificate route: only Monte
    # Carlo and the simulator may build a generator or touch numpy.random
    found = {}
    for path in sorted(Path(cifusion.__file__).parent.glob("*.py")):
        for function, name, line in _random_uses(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, None) not in RANDOM_SCOPES and (path.name, function) not in RANDOM_SCOPES:
                found.setdefault(path.name, []).append(f"{name} in {function} (line {line})")
    assert found == {}
    # the guard sees the uses it allows
    verifier_tree = ast.parse(Path(cifusion.verifier.__file__).read_text())
    assert {(f, n) for f, n, _ in _random_uses(verifier_tree)} == {
        ("monte_carlo_joint", "random"), ("monte_carlo_joint", "default_rng"),
        ("monte_carlo_joint", "SeedSequence")}


def _readers(tree: ast.Module, name: str) -> set[str | None]:
    """The top-level function or class of every read of ``name``; None at module level."""
    readers = set()
    for node in tree.body:
        scope = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for child in ast.walk(node):
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name) \
                    and isinstance(child.ctx, ast.Load):
                readers.add(scope)
    return readers


def test_a_gain_block_is_zero_only_when_it_is_exactly_zero():
    # an exact test, `q.any()` in the Schur function and `q1.any()` and
    # `q2.any()` in the Schur route's bound, decides when a gain block
    # drops out of M, and no tolerance makes a merely small block count as
    # zero: a magnitude threshold would not be unit-free
    tree = ast.parse(Path(cifusion.verifier.__file__).read_text())
    defined = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name)}
    assert not {name for name in defined if "TOL" in name.upper() or "ZERO" in name.upper()}
    anys = set()
    for node in tree.body:
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "any":
                anys.add((getattr(node, "name", None), ast.unparse(child)))
    # the other exact zero tests are on Monte Carlo's sample factors c = Q1 a
    # and d = Q2 b; the two .any() on boolean masks ask whether a screen
    # kept any sample and whether some head is bitwise base
    assert anys == {("_schur_function", "q.any()"), ("_schur_margin", "q1.any()"),
                    ("_schur_margin", "q2.any()"),
                    ("_worst_sample", "c.any()"),
                    ("_worst_sample", "d.any()"), ("_worst_sample", "keep.any()"),
                    ("_worst_sample", "(heads == base).all(axis=(1, 2)).any()")}


def test_only_the_shared_gain_arrays_form_a_gram():
    # S_i = Q_i Q_i' is formed in one place, the result's _Gains, which
    # every route reads, so a route's own Gram does not creep back in
    tree = ast.parse(Path(cifusion.verifier.__file__).read_text())
    grams = {(getattr(node, "name", None), ast.unparse(child))
             for node in tree.body for child in ast.walk(node)
             if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult)
             and isinstance(child.right, ast.Attribute) and child.right.attr == "T"
             and ast.dump(child.left) == ast.dump(child.right.value)}
    assert grams == {("_Gains", "self.q1 @ self.q1.T"), ("_Gains", "self.q2 @ self.q2.T")}


def _key_uses(key: str) -> list[tuple[str, str | None, str]]:
    """``(module, function, use)`` of every string constant ``key`` in the package.

    ``use`` is ``"write"`` for a subscript store, ``"read"`` for a subscript
    load or a ``.get`` call, and else the source of the expression holding
    it; ``function`` is the innermost enclosing function, or None.
    """
    uses = []
    for path in sorted(Path(cifusion.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and node.value == key):
                continue
            parent = scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            if isinstance(parent, ast.Subscript):
                use = "write" if isinstance(parent.ctx, ast.Store) else "read"
            elif isinstance(parent, ast.Call) and getattr(parent.func, "attr", None) == "get":
                use = "read"
            else:
                use = ast.unparse(parent)
            uses.append((path.name, getattr(scope, "name", None), use))
    return uses


def test_one_owner_decides_whether_a_stored_certificate_is_reused():
    # the solve writes its certificate into the diagnostics; certify alone
    # decides whether it describes the result judged, and the fuse output
    # prints its smallest eigenvalue, so no other module filters or reads it
    assert sorted(_key_uses("certificate")) == [
        ("cli.py", "_result_to_json", "read"), ("optimizer.py", "solve_ci", "write"),
        ("verifier.py", "certify", "read")]


def test_one_walk_over_the_weight_serves_the_verifier():
    # the scalar certificate and the witness read the iterates of one walk,
    # so a second search over f does not creep back into the package
    readers = {(path.name, scope)
               for path in sorted(Path(cifusion.__file__).parent.glob("*.py"))
               for scope in _readers(ast.parse(path.read_text(), filename=str(path)),
                                     "newton_weights")}
    assert readers == {("verifier.py", "_walk")}
    walk = next(node for node in ast.parse(Path(cifusion.verifier.__file__).read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_walk")
    calls = [node for node in ast.walk(walk) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "newton_weights"]
    assert len(calls) == 1


def test_only_the_rank_test_and_the_cross_extreme_take_an_svd():
    # one SVD of the whitened stack decides solvability and gives the joint
    # spectrum, so a second rank test does not creep back in; the aligned
    # cross extreme of Monte Carlo's heads is the only other SVD
    readers = {(path.name, scope)
               for path in sorted(Path(cifusion.__file__).parent.glob("*.py"))
               for scope in _readers(ast.parse(path.read_text(), filename=str(path)), "svd")}
    assert readers == {("problem.py", "FusionProblem"), ("verifier.py", "_extreme_cross_direction")}


def test_only_the_problem_module_decides_the_float_range():
    # the whitened stack's SVD is taken at a power-of-two scale and the
    # spectrum applies that exponent, so no other module rescales by frexp
    # or ldexp, and the trace slope reads the spectrum's own c
    readers = {(path.name, scope)
               for path in sorted(Path(cifusion.__file__).parent.glob("*.py"))
               for name in ("frexp", "ldexp")
               for scope in _readers(ast.parse(path.read_text(), filename=str(path)), name)}
    assert readers == {("problem.py", "FusionProblem"), ("problem.py", "JointSpectrum")}
    tree = ast.parse(Path(cifusion.problem.__file__).read_text())
    slope = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 and cls.name == "JointSpectrum" for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "trace_slope")
    args = slope.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["self", "t"]
    assert args.vararg is None and args.kwarg is None


#: the numpy.linalg routines a spectral call goes through
SPECTRAL_ROUTINES = ("eigvalsh", "eigh", "svd", "cholesky", "inv", "det", "solve")


def test_the_family_member_makes_no_spectral_call_of_its_own():
    # ku_rule takes P_hat, or the refusal of its weight, from the problem's
    # spectrum's member, so neither a numpy.linalg routine, a fresh PSD
    # certification nor a refusal ladder of its own creeps back into a re-solve
    tree = ast.parse(Path(cifusion.optimizer.__file__).read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "ku_rule")
    names = {node.id for node in ast.walk(rule) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(rule) if isinstance(node, ast.Attribute)}
    assert "member" in attrs
    assert not {"linalg", "psd_certify", "SingularSigmaError", "NotPsdError"} & (names | attrs)
    assert not set(SPECTRAL_ROUTINES) & (names | attrs)


def test_the_schur_route_makes_no_spectral_call():
    # a solve's block certificate is proven from the norm of M alone, so
    # neither a numpy.linalg routine nor the Schur function's closures, with
    # their errstate and finiteness test, creep into the route a re-solve takes
    tree = ast.parse(Path(cifusion.verifier.__file__).read_text())
    route = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_schur_margin")
    names = {node.id for node in ast.walk(route) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(route) if isinstance(node, ast.Attribute)}
    assert not set(SPECTRAL_ROUTINES) & (names | attrs)
    assert not {"linalg", "_schur_function", "errstate", "isfinite"} & (names | attrs)


def test_the_weight_search_runs_on_python_floats():
    # the slopes and the member test run many times per solve, and the
    # member sums its trace once, on n <= 20 entries, where each numpy call
    # costs more than the whole float loop; so they call nothing of numpy
    # and read none of the spectrum's arrays
    tree = ast.parse(Path(cifusion.problem.__file__).read_text())
    spectrum = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "JointSpectrum")
    scalar = {"det_slope", "trace_slope", "regular_at", "member"}
    found = {}
    for method in spectrum.body:
        if isinstance(method, ast.FunctionDef) and method.name in scalar:
            found[method.name] = sorted(
                {node.id for node in ast.walk(method)
                 if isinstance(node, ast.Name) and node.id in ("np", "numpy")}
                | {f"self.{node.attr}" for node in ast.walk(method)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "self" and node.attr in ("lam", "c", "w")})
    assert found == dict.fromkeys(scalar, [])


def test_the_simulator_and_the_verifier_own_their_memory_limits():
    # the joint's buffer layout and Monte Carlo's arrays are sized where they
    # are allocated; the CLI only maps their MemoryError to a flag
    package = Path(cifusion.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    headroom = {name for name, tree in trees.items()
                if _readers(tree, "JOINT_HEADROOM") or any(
                    isinstance(node, ast.ImportFrom)
                    and "JOINT_HEADROOM" in {alias.name for alias in node.names}
                    for node in ast.walk(tree))}
    assert headroom == {"simulator.py"}
    cli_tree = trees["cli.py"]
    from_simulator = {alias.name for node in ast.walk(cli_tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "simulator"
                      for alias in node.names}
    assert from_simulator == {"NoiseSpec", "init_network", "make_schedule", "run_schedule"}
    assert not any(isinstance(node, ast.Import) and "simulator" in ast.unparse(node)
                   for node in ast.walk(cli_tree))
    assert _readers(cli_tree, "iinfo") == {"cmd_scan"}


#: what CI installs besides the standard library: the package and its test extras
CI_PACKAGES = {"numpy", "pytest", "hypothesis", "cifusion"}


def test_tests_and_bench_import_only_what_ci_installs():
    # a module that imports a package only this machine has (mpmath, say)
    # passes here and fails in CI; local modules are the files of the two
    # directories themselves
    root = Path(__file__).resolve().parents[1]
    local = {p.stem for d in ("tests", "bench") for p in (root / d).glob("*.py")}
    allowed = set(sys.stdlib_module_names) | CI_PACKAGES | local
    found = {}
    for path in sorted(p for d in ("tests", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update({(path.name, name): node.lineno for name in names
                          if name.split(".")[0] not in allowed})
    assert found == {}
