"""Utility helpers and miscellaneous corners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AutotuneError,
    CompilationError,
    DataTypeError,
    IRError,
    LayoutError,
    OutOfMemoryError,
    TilusError,
    TypeCheckError,
    UnsupportedKernelError,
    VMError,
)
from repro.utils.indexmath import (
    argsort,
    as_int_tuple,
    ceil_div,
    gcd,
    is_power_of_two,
    prod,
)


class TestIndexMath:
    def test_prod(self):
        assert prod([]) == 1
        assert prod([2, 3, 4]) == 24
        assert prod((7,)) == 7

    def test_ceil_div(self):
        assert ceil_div(10, 5) == 2
        assert ceil_div(11, 5) == 3
        assert ceil_div(1, 5) == 1
        assert ceil_div(0, 5) == 0

    def test_gcd(self):
        assert gcd(12, 16) == 4
        assert gcd(7, 16) == 1
        assert gcd(16, 16) == 16

    def test_is_power_of_two(self):
        assert all(is_power_of_two(1 << i) for i in range(10))
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_argsort_stable(self):
        assert argsort([3, 1, 2, 1]) == [1, 3, 2, 0]

    def test_as_int_tuple(self):
        assert as_int_tuple(5) == (5,)
        assert as_int_tuple([np.int64(2), 3]) == (2, 3)

    @given(a=st.integers(0, 10**6), b=st.integers(1, 10**4))
    @settings(max_examples=50)
    def test_ceil_div_property(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or a == 0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            DataTypeError,
            LayoutError,
            IRError,
            TypeCheckError,
            CompilationError,
            VMError,
            OutOfMemoryError,
            UnsupportedKernelError,
            AutotuneError,
        ],
    )
    def test_all_derive_from_tilus_error(self, exc):
        assert issubclass(exc, TilusError)

    def test_typecheck_is_ir_error(self):
        assert issubclass(TypeCheckError, IRError)

    def test_oom_is_vm_error(self):
        assert issubclass(OutOfMemoryError, VMError)

    def test_catchall(self):
        with pytest.raises(TilusError):
            raise OutOfMemoryError("boom")


class TestLayoutMiscOps:
    def test_expand_unit_dims(self):
        from repro.layout import expand_unit_dims, local

        a = local(4)
        b = expand_unit_dims(a, rank=2)
        assert b.shape == (1, 4)
        assert b.local_size == 4
        with pytest.raises(LayoutError):
            expand_unit_dims(b, rank=1)

    def test_concat_layouts(self):
        from repro.layout import concat_layouts, local, spatial

        c = concat_layouts(spatial(4), local(3))
        assert c.shape == (4, 3)
        assert c.num_threads == 4
        assert c.local_size == 3

    def test_num_distinct_elements(self):
        from repro.layout import num_distinct_elements, spatial
        from repro.layout.core import replicate

        assert num_distinct_elements(spatial(4, 8)) == 32
        replicated = replicate(2, rank=1).compose(spatial(8))
        assert num_distinct_elements(replicated) == 8

    def test_row_major_default_layout(self):
        from repro.layout import row_major_register_layout

        layout = row_major_register_layout((8, 8), 32)
        assert layout.num_threads == 32
        assert layout.local_size == 2
        assert layout.is_bijective()
        with pytest.raises(LayoutError):
            row_major_register_layout((5, 5), 32)


class TestTensorTypeCorners:
    def test_storage_accounting(self):
        from repro.dtypes import int6
        from repro.ir import TensorType
        from repro.ir.scope import MemoryScope

        t = TensorType(MemoryScope.GLOBAL, int6, (10, 10))
        assert t.storage_bits() == 600
        assert t.storage_bytes() == 75

    def test_bits_per_thread_register_only(self):
        from repro.dtypes import float16
        from repro.ir import TensorType
        from repro.ir.scope import MemoryScope
        from repro.layout import spatial

        g = TensorType(MemoryScope.GLOBAL, float16, (8, 4))
        with pytest.raises(IRError):
            g.bits_per_thread()
        r = TensorType(MemoryScope.REGISTER, float16, (8, 4), spatial(8, 4))
        assert r.bits_per_thread() == 16

    def test_register_requires_layout_and_static_shape(self):
        from repro.dtypes import float16
        from repro.ir import TensorType
        from repro.ir.scope import MemoryScope

        with pytest.raises(IRError):
            TensorType(MemoryScope.REGISTER, float16, (8, 4), None)


def test_code_lines_counts_code_not_comments_or_docstrings():
    """``tools/code_lines.py``'s rule: a line counts when it carries a
    token other than a comment and is not part of a docstring."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comments do not uncount a line\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        '    text = """a string that is data,\n'
        '    not a docstring"""\n'
        "    return (\n"
        "        x\n"
        "    )\n"
    )
    assert module.code_lines(source) == 7
