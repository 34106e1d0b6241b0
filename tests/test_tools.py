"""The repo tooling under ``tools/`` that quoted figures depend on."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def _load(path):
    """Import ``ROOT / path`` as a module without touching ``sys.path``."""
    name = f"_test_tools_{Path(path).stem}"  # never shadows a real import
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_count_code_lines_skips_blank_comment_and_docstring_lines():
    source = '''"""Module docstring
over two lines."""

import os  # a trailing comment does not disqualify the line

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""
        text = """a string that is
        data, not a docstring"""
        return (
            text
        )
'''
    # import, class, def, the 2-line string assignment, the 3-line return
    assert _load("tools/count_code_lines.py").count_code_lines(source) == 8


def test_count_code_lines_counts_a_file_argument(tmp_path, capsys):
    tool = _load("tools/count_code_lines.py")
    one = tmp_path / "one.py"
    one.write_text('"""Doc."""\n\nx = 1  # code\ny = 2\n')
    assert tool.main([str(one)]) == 0
    assert capsys.readouterr().out == f"{one}: 2 code lines\n"


def test_count_code_lines_rejects_a_missing_path(tmp_path, capsys):
    tool = _load("tools/count_code_lines.py")
    assert tool.main([str(tmp_path / "absent")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_e2e_span_targets_resolve():
    """Every function the e2e span recorder rebinds still exists where
    ``benchmarks/e2e/spans.py`` looks for it — the lookup
    ``Recorder.installed`` does, without the 45 s e2e smoke run."""
    spans = _load("benchmarks/e2e/spans.py")
    assert spans.TARGETS
    for name, owner, attr, _size in spans.TARGETS:
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert attr in where, f"{name}: {owner.__name__}.{attr} is gone"
        target = where[attr]
        assert callable(getattr(target, "__func__", target)), (name, attr)


def test_e2e_maintenance_span_names_are_emitted():
    """``benchmarks/e2e/rep.py`` counts ``core.repartitions`` and
    ``core.hvm_rebuilds`` by span name, and ``_structural`` derives those
    names from method names: a rename would silently read 0."""
    from repro import PIMSystem, PIMTrie, PIMTrieConfig
    from repro.obs import Tracer
    from repro.perf import reset_id_counters
    from repro.workloads import uniform_keys

    reset_id_counters()
    system = PIMSystem(8, seed=3)
    tracer = Tracer(system)
    keys = uniform_keys(64, 32, seed=5)
    # the bulk build runs one full HVM rebuild; the overflowing insert
    # one repartition
    trie = PIMTrie(system, PIMTrieConfig(num_modules=8, block_bound=16),
                   keys=keys)
    trie.insert_batch(uniform_keys(24, 32, seed=20))
    emitted = {s.name for s in tracer.spans}
    rep = (ROOT / "benchmarks/e2e/rep.py").read_text()
    for name in ("maint.repartition_blocks", "maint.rebuild_hvm"):
        assert f'"{name}"' in rep, f"rep.py no longer counts {name}"
        assert name in emitted, f"{name} is no longer emitted"
