import ast
import importlib.util
import pathlib

import pytest

import hermhull


def test_no_assert_statements_in_package():
    # invariant checks must survive python -O, which strips assert
    root = pathlib.Path(hermhull.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


#: module-level imports kept although the module never reads them, as
#: (module, name): ``grs.matrix_rank``, since the Gram ranks moved to the
#: rank profile of each vector table, and ``grs.mat_mul``, since the
#: puncturing pipeline reads the Gram matrix, are bindings that the
#: perfbench tracer rebinds and ``perfbench/tests/test_tracer.py`` lists
#: by name
UNREAD_IMPORTS_KEPT: set[tuple[str, str]] = {("grs", "matrix_rank"),
                                             ("grs", "mat_mul")}


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by module-level imports of ``path`` that nothing in the
    module reads and that ``__all__`` does not export."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read | exported
            and (path.stem, name) not in UNREAD_IMPORTS_KEPT]


def test_every_module_level_import_is_used():
    root = pathlib.Path(hermhull.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        found += unused_imports(path)
    assert found == []


#: public top-level functions, classes and methods of the package that
#: nothing in it loads, each with the reason it stays
UNCALLED_PUBLIC_KEPT: dict[str, str] = {
    **dict.fromkeys(
        ["ag.Divisor.one_point", "ag.Divisor.of", "ag.Divisor.wedge",
         "ag.Divisor.vee", "ag.evaluation_code", "polys.derivative"],
        "settled reference layer that tests compare the fast paths against"),
    **dict.fromkeys(
        ["cyclic.cyclic_from_defining_set", "cyclic.eqtr_codeword",
         "cyclic.rains_p", "cyclic.trace_code",
         "grs.puncture_from_p_codeword"],
        "the paper's cyclic-code and puncturing tools (ROADMAP items 6, 10)"),
    **dict.fromkeys(
        ["linalg_codes.LinearCode.contains",
         "linalg_codes.LinearCode.min_distance", "gf.FieldContext.embed_arr"],
        "wrapped by name by perfbench/tracer.py"),
    **dict.fromkeys(
        ["ag.GrowthResult.final", "linalg_codes.LinearCode.hermitian_dual",
         "linalg_codes.LinearCode.extend_sum_zero"],
        "used by the acceptance tests"),
    **dict.fromkeys(
        ["quantum.QuantumParams.label", "report.ConstructionReport.passed",
         "report.report_schema"],
        "documented in the README"),
}


def uncalled_public_names(root: pathlib.Path) -> set[str]:
    """module.name and module.Class.method of every public top-level
    function, class and method under ``root`` whose name no module loads
    (as a Name or an Attribute) or exports in ``__all__``.  An attribute of
    a module bound by a top-level ``import`` (``np.full``, ``math.gcd``) is
    not a load of a package name."""
    defined, loaded = [], set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in tree.body if isinstance(node, ast.Import)
                    for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                loaded |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in imported)):
                loaded.add(node.attr)
    return {qual for qual, name in defined
            if not name.startswith("_") and name not in loaded}


def test_every_public_name_is_used_or_kept_for_a_reason():
    root = pathlib.Path(hermhull.__file__).parent
    assert uncalled_public_names(root) == set(UNCALLED_PUBLIC_KEPT)


#: defaulted parameters of public functions and methods of the package
#: that no call in it passes, as ``module.function(parameter, ...)``, each
#: with the reason it stays
UNPASSED_OPTIONS_KEPT: dict[str, str] = {
    "cli.run(argv)": "perfbench/child.py and the tests drive the CLI "
                     "through it",
    "cyclic.rains_p(code_ell, max_constraints)":
        "kept with the function (ROADMAP items 6, 10)",
    "linalg_codes.LinearCode.min_distance(budget)":
        "wrapped by name by perfbench/tracer.py",
}


def unpassed_options(root: pathlib.Path) -> set[str]:
    """``module.function(parameter, ...)`` for every public top-level
    function and method under ``root`` with defaulted parameters that no
    call in any module passes, positionally, by keyword or through ``**``.
    A call is matched by the called name alone (``f(...)``, ``x.f(...)``),
    and a ``*args`` call passes every positional parameter."""
    defined, calls = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{path.stem}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{sub.name}", sub,
                     not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list))
                    for sub in node.body if isinstance(sub, ast.FunctionDef)]
        calls += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Call)]
    found = set()
    for qual, fn, bound in defined:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        options = positional[len(positional) - len(args.defaults):]
        options += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
        passed = set()
        for call in calls:
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) != fn.name:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args):
                passed.update(positional)
            else:
                passed.update(positional[:len(call.args)])
            for kw in call.keywords:
                if kw.arg is None:
                    passed.update(positional)
                    passed.update(a.arg for a in args.kwonlyargs)
                else:
                    passed.add(kw.arg)
        unpassed = [p for p in options if p not in passed]
        if unpassed:
            found.add(f"{qual}({', '.join(unpassed)})")
    return found


def test_every_option_is_passed_or_kept_for_a_reason():
    root = pathlib.Path(hermhull.__file__).parent
    assert unpassed_options(root) == set(UNPASSED_OPTIONS_KEPT)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_every_claim_agrees_with_its_report(q):
    # a report's construction is its claim's module, family and parameters,
    # in both sweeps: no report is relabelled after verification
    from hermhull import ag, grs
    swept = grs.sweep(q) + ag.sweep(q)
    assert {claim.module for claim, _ in swept} == {"grs", "ag"}
    for claim, rep in swept:
        assert rep.construction == {
            "module": claim.module, "family": claim.family,
            "parameters": {"q": claim.q} | claim.params}
        assert claim.module == "grs" or claim.family in ("COR1", "COR2",
                                                         "COR3")


def load_benchmark_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracer.py wraps functions by name, among them ag.lbasis and
    # ag.evaluation_code, which nothing in the package calls any more;
    # removing one would break traced benchmark runs without this test
    tracer = load_benchmark_tracer()
    from hermhull import ag
    originals = (ag.lbasis, ag.evaluation_code)
    t = tracer.Tracer()
    try:
        t.install()
        assert ag.lbasis is not originals[0]
        assert ag.evaluation_code is not originals[1]
    finally:
        t.uninstall()
    assert (ag.lbasis, ag.evaluation_code) == originals


def test_benchmark_tracer_counts_order_to_the_k_codewords():
    # perfbench/tracer.py wraps linalg_codes._enumerate_min_weight by name
    # and reads its work, order^k, from args[0] (the field) and args[1]
    # (the generator); the benchmark's enum.codewords counter depends on
    # that signature
    import numpy as np

    from hermhull import gf, linalg_codes
    tracer = load_benchmark_tracer()
    original = linalg_codes._enumerate_min_weight
    F = gf.quadratic_field(3)
    C = linalg_codes.LinearCode.from_rows(
        F, np.array([[1, 0, 0, 1, 2, 3], [0, 1, 0, 4, 5, 6],
                     [0, 0, 1, 7, 8, 1]]))
    t = tracer.Tracer()
    try:
        t.install()
        assert linalg_codes._enumerate_min_weight is not original
        d = C.min_distance()
    finally:
        t.uninstall()
    assert linalg_codes._enumerate_min_weight is original
    count = t.counts()["linalg_codes._enumerate_min_weight"]
    assert count == {"calls": 1, "work": 9 ** 3, "work_max": 9 ** 3}
    assert d == linalg_codes._enumerate_min_weight(F, C.gen, 10 ** 3)


def test_benchmark_tracer_sees_every_two_point_hull():
    # perfbench/tracer.py wraps ag.two_point_code by name and reads each
    # instance's report off its result; ag.sweep must verify every instance
    # through it, and since the per-set GRS-pair certificate it eliminates
    # no hull: LinearCode.hermitian_hull, wrapped by name too, is not called
    import numpy as np

    from hermhull import ag, linalg_codes
    tracer = load_benchmark_tracer()
    original = ag.two_point_code
    t = tracer.Tracer()
    try:
        t.install()
        swept = ag.sweep(5)
    finally:
        t.uninstall()
    assert ag.two_point_code is original
    counts = t.counts()
    assert len(swept) > 1
    assert counts["ag.two_point_code"]["calls"] == len(swept)
    assert counts["linalg_codes.LinearCode.hermitian_hull"]["calls"] == 0
    spans = t.spans()
    names = np.array(t.names)[spans["name"]]
    assert (names == "ag.two_point_code").sum() == len(swept)
    assert "linalg_codes.LinearCode.hermitian_hull" not in set(names)


def test_benchmark_tracer_sees_every_grs_instance():
    # perfbench/tracer.py wraps grs.construct_family and grs.verify_claim
    # by name; a top-level construct_family call opens each traced instance
    # and the benchmark's grs.instances counter reads verify_claim's
    # reports, so grs.sweep must call both once per instance, at top level
    import numpy as np

    from hermhull import grs
    tracer = load_benchmark_tracer()
    originals = (grs.construct_family, grs.verify_claim)
    t = tracer.Tracer()
    try:
        t.install()
        swept = list(grs.sweep(5))
    finally:
        t.uninstall()
    assert (grs.construct_family, grs.verify_claim) == originals
    spans = t.spans()
    names = np.array(t.names)[spans["name"]]
    top = spans["parent"] == -1
    construct = names == "grs.construct_family"
    verify = names == "grs.verify_claim"
    assert len(swept) > 1
    assert (construct & top).sum() == construct.sum() == len(swept)
    assert (verify & top).sum() == verify.sum() == len(swept)
    assert len(set(spans["instance"][construct])) == len(swept)
    counts = t.counts()
    assert counts["grs.construct_family"]["calls"] == len(swept)
    assert counts["grs.verify_claim"]["calls"] == len(swept)


def test_benchmark_tracer_sees_one_chain_per_report_and_one_dump_per_run(
        capsys):
    # perfbench/tracer.py wraps quantum.chain_to_json,
    # report.ConstructionReport.to_canonical_dict and cli._dump by name;
    # its quantum.chain and report.serialise layers read their spans, so
    # each non-FAIL verify_claim must call chain_to_json once, through the
    # module, and a run must serialise each report once and dump once
    import json
    from dataclasses import replace

    import numpy as np

    from hermhull import ag, cli, grs
    tracer = load_benchmark_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        reports = [rep for _, rep in grs.sweep(5)]
        reports += [rep for _, rep in ag.sweep(5)]
        claim = grs.construct_family("CON2", 5, k=3)
        failed = grs.verify_claim(replace(claim, hull_dim=claim.hull_dim + 1))
    finally:
        t.uninstall()
    assert all(rep.verdict != "FAIL" for rep in reports)
    assert failed.verdict == "FAIL" and failed.quantum == []
    spans = t.spans()
    names = np.array(t.names)[spans["name"]]
    verify = np.flatnonzero(names == "grs.verify_claim")
    chains = spans["parent"][names == "quantum.chain_to_json"]
    assert len(verify) == len(reports) + 1
    # one chain inside each verify span, the failed one (called last) none
    assert sorted(chains.tolist()) == verify[:-1].tolist()

    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run(["verify-all", "--q", "5"]) == 0
    finally:
        t.uninstall()
    total = json.loads(capsys.readouterr().out)["summary"]["total"]
    counts = t.counts()
    assert total > 1
    assert counts["report.ConstructionReport.to_canonical_dict"]["calls"] \
        == total
    assert counts["cli._dump"]["calls"] == 1

    # --timings adds its object to the one payload before the one dump
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run(["verify-all", "--q", "5", "--timings"]) == 0
    finally:
        t.uninstall()
    assert "emit_s" in json.loads(capsys.readouterr().out)["timings"]
    assert t.counts()["cli._dump"]["calls"] == 1
