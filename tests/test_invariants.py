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


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracer.py wraps functions by name, among them ag.lbasis and
    # ag.evaluation_code, which nothing in the package calls any more;
    # removing one would break traced benchmark runs without this test
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
