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


def test_every_csv_value_is_the_17_digit_text_of_its_double(tmp_path):
    # README: every CSV value is the %.17g text of its double, so parsing a
    # field and printing it again gives the file back byte for byte
    config = tmp_path / "exp.ini"
    config.write_text(_block("ini"), encoding="utf-8")
    for command in EXIT_CODES:
        main([command, "--config", str(config), "--out", str(tmp_path / command), "--seed", "101"])
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert [p.name for p in paths] == ["cloud.csv", "convergence.csv", "norms.csv",
                                       "trajectory.csv"]
    for path in paths:
        _, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        again = ["%s\n" % ",".join("%.17g" % float(f) for f in line.split(","))
                 for line in lines]
        assert lines and again == lines, path.name
