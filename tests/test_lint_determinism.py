"""Tests for the AST-based determinism linter (tools/lint_determinism.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "lint_determinism", REPO_ROOT / "tools" / "lint_determinism.py"
)
lint = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("lint_determinism", lint)
_SPEC.loader.exec_module(lint)


def rules(source: str) -> list[str]:
    return [v.rule for v in lint.check_source(source)]


class TestRules:
    def test_unseeded_random_banned(self):
        assert rules("import random\nx = random.random()\n") == [
            "unseeded-random"
        ]
        assert rules("import random\nx = random.choice([1])\n") == [
            "unseeded-random"
        ]

    def test_seeded_random_allowed(self):
        assert rules("import random\nr = random.Random(3)\n") == []
        assert rules(
            "import random\nr = random.Random(3)\nx = r.random()\n"
        ) == []

    def test_wall_clock_banned(self):
        assert rules("import time\nt = time.time()\n") == ["wall-clock"]
        assert rules("import time\nt = time.time_ns()\n") == ["wall-clock"]
        assert rules(
            "import datetime\nn = datetime.datetime.now()\n"
        ) == ["wall-clock"]
        assert rules(
            "from datetime import datetime\nn = datetime.utcnow()\n"
        ) == ["wall-clock"]

    def test_perf_counter_allowed(self):
        assert rules("import time\nt = time.perf_counter()\n") == []

    def test_hash_builtin_banned(self):
        assert rules("h = hash('abc')\n") == ["hash-builtin"]

    def test_method_named_hash_allowed(self):
        assert rules("h = obj.hash('abc')\n") == []

    def test_environ_banned(self):
        assert rules("import os\nv = os.environ['HOME']\n") == [
            "env-dependent"
        ]
        assert rules("import os\nv = os.getenv('HOME')\n") == [
            "env-dependent"
        ]

    def test_module_level_counter_banned(self):
        assert rules("import itertools\n_ids = itertools.count(1)\n") == [
            "module-counter"
        ]
        assert rules("import itertools as it\n_ids = it.count()\n") == [
            "module-counter"
        ]
        assert rules("from itertools import count\n_ids = count(1)\n") == [
            "module-counter"
        ]
        # a class body runs once per process too
        assert rules(
            "import itertools\nclass C:\n    ids = itertools.count()\n"
        ) == ["module-counter"]

    def test_counter_inside_a_function_allowed(self):
        source = (
            "import itertools\n"
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self._seq = itertools.count()\n"
            "make = lambda: itertools.count()\n"
        )
        assert rules(source) == []
        assert rules("from itertools import chain\nx = chain([1])\n") == []

    def test_global_statement_banned(self):
        source = (
            "_next = 0\n"
            "def fresh():\n"
            "    global _next\n"
            "    _next += 1\n"
            "    return _next\n"
        )
        assert rules(source) == ["global-rebind"]
        assert lint.check_source(source)[0].line == 3

    def test_class_counter_banned(self):
        source = (
            "class Bundle:\n"
            "    _next = 0\n"
            "    def __init__(self):\n"
            "        Bundle._next += 1\n"
        )
        assert rules(source) == ["class-counter"]
        assert lint.check_source(source)[0].line == 4
        # at module level too
        assert rules("class C:\n    n = 0\nC.n += 1\n") == ["class-counter"]

    def test_instance_and_foreign_counters_allowed(self):
        source = (
            "from elsewhere import Imported\n"
            "class Bundle:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.count += 1\n"
            "        Imported.total += 1\n"
            "        Bundle.limit = 3\n"
        )
        assert rules(source) == []

    def test_allow_marker_suppresses(self):
        source = "import time\nt = time.time()  # determinism: allow\n"
        assert rules(source) == []

    def test_violation_reports_location(self):
        violations = lint.check_source(
            "import time\n\nt = time.time()\n", path="x.py"
        )
        assert violations[0].path == "x.py"
        assert violations[0].line == 3
        assert "x.py:3" in str(violations[0])


class TestTreeWalk:
    def test_rng_wrapper_is_allowlisted(self):
        root = REPO_ROOT / "src" / "repro"
        violations = lint.lint_paths([root])
        offenders = {v.path for v in violations}
        assert not any("rng.py" in path for path in offenders)

    def test_src_repro_is_clean(self):
        """The enforced property: the library contains no nondeterminism."""
        violations = lint.lint_paths([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint.main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        assert lint.main([str(dirty)]) == 1
        assert lint.main([str(tmp_path / "absent.py")]) == 2
        capsys.readouterr()

    def test_directory_walk_finds_nested_files(self, tmp_path):
        package = tmp_path / "pkg" / "sub"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("import os\nv = os.environ['X']\n")
        violations = lint.lint_paths([tmp_path])
        assert [v.rule for v in violations] == ["env-dependent"]


class TestGuardrail:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\nseed = hash('switch-name')\n",
            "import random\nrandom.seed(42)\n",
        ],
    )
    def test_pr1_regression_patterns_stay_banned(self, source):
        """The exact patterns PR 1 removed must never lint clean again."""
        assert rules(source) != []

    @pytest.mark.parametrize(
        "source",
        [
            # a default-factory id sequence shared by every deployment
            "import itertools\n"
            "from dataclasses import dataclass, field\n"
            "_packet_ids = itertools.count(1)\n"
            "@dataclass\n"
            "class Packet:\n"
            "    packet_id: int = field(\n"
            "        default_factory=lambda: next(_packet_ids))\n",
            # a reset hook rebinding the sequence
            "import itertools\n"
            "def reset_xid_counter(start=1):\n"
            "    global _xids\n"
            "    _xids = itertools.count(start)\n",
            # a creation serial kept on the class, shared by every bundle
            "import weakref\n"
            "_live = weakref.WeakSet()\n"
            "class Observability:\n"
            "    _next_serial = 0\n"
            "    def __init__(self):\n"
            "        Observability._next_serial += 1\n"
            "        self._serial = Observability._next_serial\n"
            "        _live.add(self)\n",
        ],
    )
    def test_process_global_id_patterns_stay_banned(self, source):
        """The id sequences replaced by the per-deployment allocator."""
        assert rules(source) != []
