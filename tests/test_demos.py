"""The demos and the README quickstart keep working against the package.

The fast demos run end to end in a subprocess; the slow ones (minutes of
solves) and the quickstart are only checked for importing names that
exist, by reading their source with ast. The CSV headers that the README
lists under "File formats" are checked against the package's constants,
and every name the package exports must be used by the package, a demo
or the benchmark, not by tests alone.
"""

import ast
import csv
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dcflex
from dcflex import ingest, preprocess, report, scaling

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
PACKAGE_ROOT = str(Path(dcflex.__file__).resolve().parent.parent)


# the hand-checked numbers a fast demo prints, by the label before ": "
DEMO_NUMBERS = {"01_tiny_fixture.py": {
    "maximum sustained flexibility [kW]": 2.0,
    "minimum flexibility cost [USD]": 0.25,
    "average cost of flexibility [USD/kWh]": 0.5,  # 0.25 USD over 0.5 kWh
}}


@pytest.mark.parametrize("script", ["01_tiny_fixture.py", "04_cost_scaling_factors.py",
                                    "05_market_profitability.py"])
def test_fast_demo_runs(script, tmp_path):
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    printed = dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
    for label, value in DEMO_NUMBERS.get(script, {}).items():
        assert float(printed[label]) == pytest.approx(value, abs=1e-6), label


def dcflex_imports(source: str) -> list:
    """(module, name) for every ``from dcflex... import name`` in source."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "dcflex"
            for alias in node.names]


def test_slow_demos_and_quickstart_import_existing_names():
    sources = [(DEMOS / script).read_text() for script in (
        "02_flexibility_campaign.py", "03_cost_of_flexibility.py",
        "06_utilization_correlation.py")]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(sources) == 4
    imports = [pair for source in sources for pair in dcflex_imports(source)]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


# every README "File formats" entry with a CSV header, by its label
README_HEADERS = {
    "job trace CSV": ingest.JOB_TRACE_COLUMNS,
    "discretized job CSV": preprocess.JOB_STEP_COLUMNS,
    "price series CSV": ingest.PRICE_SERIES_COLUMNS,
    "cloud pricing CSV": ingest.CLOUD_PRICING_COLUMNS,
    "cloud options CSV": ingest.CLOUD_OPTION_COLUMNS,
    "campaign grid": report.GRID_CSV_COLUMNS,
    "cost-scaling-factor samples CSV": scaling.CSF_SAMPLE_COLUMNS,
}


def test_readme_file_formats_match_the_module_constants():
    section = (ROOT / "README.md").read_text().split("\n## File formats\n")[1]
    section = section.split("\n## ")[0]
    entries = [" ".join(item.split()) for item in re.split(r"^- ", section, flags=re.M)[1:]]
    listed = {}
    for entry in entries:
        label, text = entry.split(": ", 1)
        listed[label] = tuple(next(csv.reader([re.search(r"`([^`]+)`", text).group(1)])))
    assert listed == README_HEADERS


def names_used(source: str) -> set:
    """Every name that source reads, imports or reads as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_has_a_user_outside_the_tests():
    package = Path(dcflex.__file__).resolve().parent
    exported = [alias.name for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exported) > 50
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(DEMOS.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(names_used(p.read_text()) for p in sources))
    assert [name for name in exported if name not in used] == []
