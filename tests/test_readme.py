"""The examples in README.md run as the README says they do."""

import re
from pathlib import Path

import pytest

from latticedyn.cli import _RULE_CHAR_BYTES, _TABLE_SITE_BYTES, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the README states these exit codes for its INI example
EXIT_CODES = {"simulate": 0, "verify": 0, "attractor": 0, "converge": 1}


def _block(language):
    (body,) = re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)
    return body


def test_library_example_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("command", sorted(EXIT_CODES))
def test_config_example_exit_code(tmp_path, command):
    config = tmp_path / "exp.ini"
    config.write_text(_block("ini"), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CODES[command]
    assert (out / "report.json").is_file()


def test_forcing_table_charge_matches_the_loader():
    # the README's per-site and per-character figures are the loader's
    (site, char), = re.findall(r"(\d+) bytes a site plus (\d+) bytes a character",
                               " ".join(README.split()))
    assert (int(site), int(char)) == (_TABLE_SITE_BYTES, _RULE_CHAR_BYTES)
