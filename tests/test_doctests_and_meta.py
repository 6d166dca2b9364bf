"""Doctests with real examples + package metadata checks."""

import doctest

import repro


class TestDoctests:
    def test_simulator_doctest(self):
        from repro.net import simulator
        assert doctest.testmod(simulator).failed == 0

    def test_binomial_doctest(self):
        from repro.collectives import binomial
        assert doctest.testmod(binomial).failed == 0


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_exports_resolve(self):
        import repro.analytic
        import repro.apps
        import repro.collectives
        import repro.core
        import repro.ext
        import repro.harness
        import repro.net
        import repro.transport

        for mod in (repro.analytic, repro.apps, repro.collectives,
                    repro.core, repro.ext, repro.harness, repro.net,
                    repro.transport):
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, \
                    f"{mod.__name__}.{name}"

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            if not (mod.__doc__ or "").strip():
                missing.append(info.name)
        assert missing == []


class TestCiWorkflow:
    def test_workflow_parses_and_names_paths_that_exist(self):
        """The workflow is YAML a parser accepts, and every ``run:``
        step that names a repository path names one that exists (a
        renamed suite must be renamed here too)."""
        import re
        from pathlib import Path

        import pytest
        yaml = pytest.importorskip("yaml")

        root = Path(__file__).parents[1]
        doc = yaml.safe_load(
            (root / ".github" / "workflows" / "ci.yml").read_text())
        runs = [step["run"] for job in doc["jobs"].values()
                for step in job["steps"] if "run" in step]
        named = {path for run in runs for path in re.findall(
            r"(?<![\w/.-])(?:tests|perfbench|benchmarks)/[\w/.-]+", run)}
        assert any(p.startswith("tests/") for p in named)
        assert [p for p in sorted(named) if not (root / p).exists()] == []


class TestOracleIndependence:
    """``check/invariants.py`` re-derives what it checks.  It may read the
    state the datapath keeps (``Mft`` fields, packets); it may not import
    the feedback engine or the transport, nor call the helpers they
    decide with — an oracle that shares code with the machinery under
    test agrees with its bugs.  The names are parsed, not grepped, so the
    docstrings that explain the rule do not trip it."""

    FORBIDDEN_MODULES = ("repro.core.feedback", "repro.transport")
    FORBIDDEN_NAMES = {"min_ack_psn", "min_port", "merge_ranges",
                       "reevaluate", "iter_downstream"}

    def test_the_monitor_shares_no_code_with_what_it_checks(self):
        import ast
        from pathlib import Path

        from repro.check import invariants

        tree = ast.parse(Path(invariants.__file__).read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        assert [m for m in sorted(imported) if any(
            m == f or m.startswith(f + ".")
            for f in self.FORBIDDEN_MODULES)] == []
        assert sorted(used & self.FORBIDDEN_NAMES) == []


class TestOneEventQueue:
    """The two-level queue (a heap of distinct due times over per-instant
    buckets) is ``net/simulator.py``'s, and ``net/port.py`` inlines its
    push at five measured sites.  Nothing else may reach into it, and a
    sixth inlined site fails here until it has been reviewed — parsed,
    not grepped, so prose that names the fields does not trip it."""

    OWNERS = ("net/simulator.py", "net/port.py")
    PRIVATE = {"_times", "_buckets", "_seq", "_entry", "_resident",
               "_push", "_forward", "_events_run"}
    HEAPQ_USERS = OWNERS + ("core/group.py",)   # the McstID free-list

    @staticmethod
    def _trees():
        import ast
        from pathlib import Path

        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text())

    def test_nothing_else_reaches_into_the_queue(self):
        import ast

        reach_ins, heapq_imports = [], []
        for rel, tree in self._trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr in self.PRIVATE
                        and rel not in self.OWNERS
                        # a class's own field of the same name is its own
                        and not (isinstance(node.value, ast.Name)
                                 and node.value.id == "self")):
                    reach_ins.append((rel, node.lineno, node.attr))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = ([node.module] if isinstance(node, ast.ImportFrom)
                             else [alias.name for alias in node.names])
                    if "heapq" in names and rel not in self.HEAPQ_USERS:
                        heapq_imports.append((rel, node.lineno))
        assert reach_ins == []
        assert heapq_imports == []

    def test_port_inlines_exactly_five_pushes_of_bare_times(self):
        import ast

        tree = dict(self._trees())["net/port.py"]
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        pushes = [ast.unparse(c) for c in calls
                  if ast.unparse(c.func).endswith("heappush")]
        lookups = [c for c in calls
                   if ast.unparse(c.func) == "sim._buckets.get"]
        assert pushes == ["heappush(sim._times, when)"] * 5
        assert len(lookups) == 5
