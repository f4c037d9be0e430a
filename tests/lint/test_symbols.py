"""The shared per-file symbol/import pass."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.symbols import build_symbol_table, walk_runtime


def table_for(code: str):
    return build_symbol_table(ast.parse(textwrap.dedent(code)))


class TestImportResolution:
    def test_plain_and_aliased_imports(self):
        table = table_for(
            """
            import time
            import os.path
            import numpy as np
            from datetime import datetime as dt
            from repro.sim.rng import RandomStreams
            """
        )
        assert table.imports["time"] == "time"
        assert table.imports["os"] == "os"
        assert table.imports["np"] == "numpy"
        assert table.imports["dt"] == "datetime.datetime"
        assert table.imports["RandomStreams"] == "repro.sim.rng.RandomStreams"
        assert {"time", "os", "numpy", "datetime", "repro"} <= table.imported_modules

    def test_qualname_resolves_attribute_chains(self):
        table = table_for("import time\nfrom datetime import datetime as dt\n")
        assert table.qualname(ast.parse("time.perf_counter").body[0].value) == (
            "time.perf_counter"
        )
        assert table.qualname(ast.parse("dt.now").body[0].value) == "datetime.datetime.now"
        # Unimported names resolve to themselves (builtins, locals).
        assert table.qualname(ast.parse("sorted").body[0].value) == "sorted"
        # Chains not rooted in a name do not resolve.
        assert table.qualname(ast.parse("f().x").body[0].value) is None

    def test_type_checking_imports_are_not_runtime(self):
        table = table_for(
            """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import random
            """
        )
        assert "random" not in table.imports
        assert "random" not in table.imported_modules

    def test_walk_runtime_skips_type_checking_bodies(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                from typing import TYPE_CHECKING
                if TYPE_CHECKING:
                    import random
                import math
                """
            )
        )
        imported = [
            alias.name
            for node in walk_runtime(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        ]
        assert imported == ["math"]

