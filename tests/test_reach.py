"""``tools/reach.py``'s report: which functions a set of calls leaves
unreached, their code lines and the per-package totals (no subprocess)."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

PATH = "src/repro/fixture.py"

#: The fixture module: ``deco``'s wrapper is nested in a reached function,
#: ``dead`` holds two nested functions, ``decorated`` and ``Box.unused``
#: carry decorators, so ``co_firstlineno`` is not their ``def`` line.
SOURCE = textwrap.dedent('''\
    """A module for the reach census's report."""
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    def called():
        return 1


    def dead():
        """Its nested functions are part of its lines."""
        def inner():
            return 2

        def inner2():
            return 3
        return inner() + inner2()


    @deco
    def decorated():
        return 4


    class Box:
        def used(self):
            return 5

        @staticmethod
        def unused():
            return 6
''')


@pytest.fixture(scope="module")
def reach():
    path = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def functions(reach):
    return {fn.qualname: fn for fn in reach.functions_of(PATH, SOURCE)}


def calls(functions, *qualnames):
    return {(PATH, functions[q].line) for q in qualnames}


def test_nested_functions_of_an_unreached_function_are_counted_once(reach, functions):
    called = calls(functions, "deco", "deco.<locals>.wrapper", "called",
                   "decorated", "Box.used")
    missed = reach.unreached(list(functions.values()), called)
    assert [fn.qualname for fn in missed] == ["dead", "Box.unused"]
    dead = functions["dead"]
    # def, two nested defs and returns, the return: the docstring is no code.
    assert dead.lines == 6
    assert functions["dead.<locals>.inner"].outer is dead
    lines, total, unreached = reach.report(list(functions.values()), called, {})
    assert unreached == dead.lines + functions["Box.unused"].lines == 9
    outermost = ["deco", "called", "dead", "decorated", "Box.used", "Box.unused"]
    assert total == sum(functions[q].lines for q in outermost)
    assert lines[-1].split() == ["total", str(total), "2", "9"]
    assert not any("inner" in line for line in lines)


def test_a_nested_function_of_a_reached_function_is_listed_alone(reach, functions):
    called = calls(functions, "deco", "called", "dead", "dead.<locals>.inner",
                   "decorated", "Box.used", "Box.unused")
    missed = reach.unreached(list(functions.values()), called)
    assert [fn.qualname for fn in missed] == [
        "deco.<locals>.wrapper", "dead.<locals>.inner2",
    ]


def test_a_decorated_function_matches_by_its_def_line(reach, functions):
    decorated = functions["decorated"]
    assert decorated.first == decorated.line - 1
    assert decorated.lines == 3  # its decorator is part of it
    assert reach.is_reached(decorated, {(PATH, decorated.line)})
    # What the interpreter reports for it is the decorator's line.
    namespace = {}
    exec(compile(SOURCE, PATH, "exec"), namespace)
    first = namespace["decorated"].__wrapped__.__code__.co_firstlineno
    assert first == decorated.first
    assert reach.is_reached(decorated, {(PATH, first)})
    assert not reach.is_reached(decorated, {(PATH, decorated.line + 1)})


def test_the_report_names_the_test_files_that_name_a_function(reach, functions):
    tests = {"test_a.py": "dead()", "test_b.py": "deadline = 1", "test_c.py": "x.dead"}
    called = calls(functions, "deco", "deco.<locals>.wrapper", "called",
                   "decorated", "Box.used", "Box.unused")
    lines, _, _ = reach.report(list(functions.values()), called, tests)
    row = next(line for line in lines if " dead " in line)
    assert row.split() == [f"{PATH}:{functions['dead'].line}", "dead", "6",
                           "[test_a.py,", "test_c.py]"]
    total = sum(fn.lines for fn in functions.values() if fn.outer is None)
    assert f"fixture {total} 1 6".split() in [line.split() for line in lines]
