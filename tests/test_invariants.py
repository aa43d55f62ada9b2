import ast
import importlib.util
import pathlib

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
#: rank profile of each vector table, is a binding that the perfbench
#: tracer rebinds and ``perfbench/tests/test_tracer.py`` lists by name
UNREAD_IMPORTS_KEPT: set[tuple[str, str]] = {("grs", "matrix_rank")}


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
    ag._pair_certificate.cache_clear()
    t = tracer.Tracer()
    try:
        t.install()
        results = [res for _, res in ag.sweep(5)]
    finally:
        t.uninstall()
        ag._pair_certificate.cache_clear()
    assert ag.two_point_code is original
    counts = t.counts()
    assert len(results) > 1
    assert counts["ag.two_point_code"]["calls"] == len(results)
    assert counts["linalg_codes.LinearCode.hermitian_hull"]["calls"] == 0
    spans = t.spans()
    names = np.array(t.names)[spans["name"]]
    assert (names == "ag.two_point_code").sum() == len(results)
    assert "linalg_codes.LinearCode.hermitian_hull" not in set(names)
