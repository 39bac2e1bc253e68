"""Documentation-consistency tests.

Docs rot silently; these tests execute the README's code snippets and
check that every artifact the documentation references actually exists,
so `pytest` fails the moment the docs and the code disagree.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"{name} missing"
    return path.read_text()


class TestDeliverablesExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE", "pyproject.toml"],
    )
    def test_file_present_and_nonempty(self, name):
        assert len(read(name)) > 100 or name == "LICENSE"

    def test_examples_present(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        names = {path.name for path in examples}
        assert "quickstart.py" in names

    def test_benchmarks_cover_every_figure(self):
        benches = {path.name for path in (ROOT / "benchmarks").glob("bench_*.py")}
        for required in (
            "bench_table2_payoff.py",
            "bench_fig5_bandwidth.py",
            "bench_fig6_evolution.py",
            "bench_fig7_optimal_m.py",
            "bench_fig8_defense_cost.py",
            "bench_memory_cost.py",
        ):
            assert required in benches, required


class TestReadmeCode:
    def _python_blocks(self):
        text = read("README.md")
        return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)

    def test_readme_has_code(self):
        assert self._python_blocks()

    def test_readme_snippets_execute(self):
        """Every fenced python block in the README must run as-is."""
        for block in self._python_blocks():
            exec(compile(block, "<README>", "exec"), {})  # noqa: S102

    def test_readme_quickstart_numbers_are_current(self):
        """The README quotes m*=13 and cost 59.56 at p=0.8 — keep true."""
        from repro.game import BufferOptimizer, paper_parameters

        result = BufferOptimizer(paper_parameters(p=0.8, m=1)).optimize()
        assert result.optimal_m == 13
        assert round(result.optimal_cost, 2) == 59.56


class TestCrossReferences:
    def test_design_modules_exist(self):
        """Every `something.py` DESIGN.md names under src must exist."""
        text = read("DESIGN.md")
        for match in re.finditer(r"^\s{4}(\w+\.py)\s", text, flags=re.MULTILINE):
            name = match.group(1)
            hits = list((ROOT / "src" / "repro").rglob(name))
            assert hits, f"DESIGN.md references missing module {name}"

    def test_design_bench_targets_exist(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)

    def test_experiments_references_existing_benches(self):
        text = read("EXPERIMENTS.md")
        for match in re.finditer(r"`(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)

    def test_readme_example_table_matches_directory(self):
        text = read("README.md")
        for match in re.finditer(r"examples/(\w+\.py)", text):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(1)

    def test_api_counter_table_lists_every_perf_name(self):
        """Every constant in repro.perf.names has a row in the
        docs/API.md counter table, under its constant and its value."""
        from repro.perf import names

        rows = set(
            re.findall(
                r"^\| `([A-Z_]+)` \| `([a-z_.]+)`",
                read("docs/API.md"),
                flags=re.MULTILINE,
            )
        )
        constants = {
            key: value for key, value in vars(names).items() if key.isupper()
        }
        assert constants
        missing = set(constants.items()) - rows
        assert not missing, f"docs/API.md counter table lacks {sorted(missing)}"
