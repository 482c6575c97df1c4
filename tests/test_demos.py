"""Smoke test: the demos run to completion and print their tables."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_expected_information.py",
        "02_balanced_and_efficiency.py",
        "03_contamination_inflation.py",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert not any(tmp_path.iterdir())


def test_density_demo_writes_only_its_svg(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "04_simulation_density.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert [p.name for p in tmp_path.iterdir()] == ["demo_density.svg"]
    assert (tmp_path / "demo_density.svg").read_text().startswith("<svg")
