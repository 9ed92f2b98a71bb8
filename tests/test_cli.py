import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcyclic
from hopfcyclic import cli
from hopfcyclic.bicomplex import Engine, hochschild_dims, total_cohomology
from hopfcyclic.cli import main, parse_word
from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.symbols import LinComb


def test_parse_word_grammar():
    assert parse_word("X1", 2) == [("X", 1)]
    assert parse_word("Y12", 2) == [("Y", 1, 2)]
    assert parse_word("d[1;1,2|1,1]", 2) == [("D", 1, (1, 2), (1, 1))]
    assert parse_word("d[1;1,1|]", 1) == [("D", 1, (1, 1), ())]
    assert parse_word("X^2", 1) == [("X", 1), ("X", 1)]
    assert parse_word("Y·X", 1) == [("Y", 1, 1), ("X", 1)]


def test_normal_form_command(tmp_path, capsys):
    rc = main(["--output", str(tmp_path), "normal-form", "--n", "1", "Y X"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "X·Y" in out and "X" in out
    data = json.loads((tmp_path / "normal-form.json").read_text())
    assert data["schema"] == 1


def test_verify_hopf_small(tmp_path, capsys):
    rc = main(["--output", str(tmp_path), "verify-hopf", "--n", "1",
               "--weight", "2", "--pbw", "2", "--words", "25"])
    assert rc == 0
    data = json.loads((tmp_path / "verify-hopf-n1.json").read_text())
    assert data["axioms"]["passed"] is True
    out = capsys.readouterr().out
    assert "PASS" in out and "weight_cut=2" in out


def test_invalid_config_exit_2(tmp_path):
    rc = main(["--output", str(tmp_path), "verify-hopf", "--n", "0"])
    assert rc == 2
    rc = main(["--output", str(tmp_path), "hochschild", "--weight-max", "0"])
    assert rc == 2


def test_matched_pair_weight_beyond_jet_cut_is_invalid_config(tmp_path, capsys):
    # the default bicrossed weight 3 needs a jet cut of at least 4
    rc = main(["--output", str(tmp_path), "verify-matched-pair", "--n", "2", "--jet-cut", "3"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["invalid configuration: --bicrossed-weight 3 needs --jet-cut > 3 (got 3)"]
    rc = main(["--output", str(tmp_path), "verify-matched-pair", "--jet-cut", "3",
               "--weight", "3", "--bicrossed-weight", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("invalid configuration: --weight 3")
    assert not list(tmp_path.iterdir())


def test_cyclic_small_and_determinism(tmp_path, capsys):
    rc = main(["--output", str(tmp_path / "a"), "cyclic", "--n", "1",
               "--degree-max", "1", "--weight-max", "2"])
    assert rc == 0
    rc = main(["--output", str(tmp_path / "b"), "--parallel", "4", "cyclic",
               "--n", "1", "--degree-max", "1", "--weight-max", "2"])
    assert rc == 0
    a = (tmp_path / "a" / "cyclic-n1.json").read_bytes()
    b = (tmp_path / "b" / "cyclic-n1.json").read_bytes()
    assert a == b
    data = json.loads(a)
    dims = {(blk["degree"], blk["weight"]): blk["dim"] for blk in data["blocks"]}
    assert dims == {(0, 0): 1, (1, 1): 1, (1, 2): 1}
    # the CLI reports are the library drivers' answers at the same cut
    assert data == json.loads(json.dumps(total_cohomology(1, 1, 2)))
    rc = main(["--output", str(tmp_path / "a"), "hochschild", "--n", "1",
               "--degree-max", "1", "--weight-max", "2"])
    assert rc == 0
    hh = json.loads((tmp_path / "a" / "hochschild-n1.json").read_text())
    assert hh == json.loads(json.dumps(hochschild_dims(1, 1, 2)))


def test_non_complex_exits_1(tmp_path, monkeypatch, capsys):
    original = Engine.matrix

    def all_ones(self, op, m, w):
        mat = original(self, op, m, w)
        return SparseMatrix(mat.rows, mat.cols,
                            {(r, c): 1 for r in range(mat.rows) for c in range(mat.cols)})

    monkeypatch.setattr(Engine, "matrix", all_ones)
    rc = main(["--output", str(tmp_path), "hochschild", "--n", "1",
               "--degree-max", "2", "--weight-max", "2"])
    assert rc == 1
    assert "b^2 != 0" in capsys.readouterr().err


def test_goncarova_small(tmp_path):
    rc = main(["--output", str(tmp_path), "goncarova", "--k-max", "1", "--weight-max", "3"])
    assert rc == 0
    data = json.loads((tmp_path / "goncarova.json").read_text())
    assert data["passed"] is True


def test_image_outside_target_spot_is_a_typed_failure(tmp_path, monkeypatch, capsys):
    # a beta image with a word its target spot does not contain is a check
    # failure (exit 1, one line), not an internal KeyError
    stray = ((("stray",),), ())
    monkeypatch.setattr(Engine, "beta_f", lambda self, word: LinComb.unit(stray))
    rc = main(["--output", str(tmp_path), "goncarova", "--k-max", "1", "--weight-max", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: image left the block") and err.count("\n") == 1


def test_chern_n1(tmp_path, capsys):
    rc = main(["--output", str(tmp_path), "chern", "--n", "1", "--p-max", "1",
               "--q-max", "1", "--sign-p-max", "2"])
    assert rc == 0
    data = json.loads((tmp_path / "chern-n1.json").read_text())
    assert data["relative_classes"]["expected_count"] == 2


def test_rationals_serialize_as_strings(tmp_path):
    main(["--output", str(tmp_path), "cyclic", "--n", "1",
          "--degree-max", "1", "--weight-max", "2"])
    text = (tmp_path / "cyclic-n1.json").read_text()
    assert "Fraction" not in text


def test_internal_error_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    def boom(args, outdir):
        raise KeyError(("a", 1))

    monkeypatch.setitem(cli.COMMANDS, "goncarova", boom)
    rc = main(["--output", str(tmp_path), "goncarova", "--k-max", "1", "--weight-max", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: ('a', 1)\n"


def test_reports_identical_under_python_O(tmp_path):
    # every check and the certified elimination must hold without assert
    env = dict(os.environ, PYTHONPATH=str(Path(hopfcyclic.__file__).parents[1]))
    outputs = []
    for flags, name in (([], "plain"), (["-O"], "optimized")):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hopfcyclic.cli", "--output", str(tmp_path / name),
             "goncarova", "--k-max", "1", "--weight-max", "4"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, (tmp_path / name / "goncarova.json").read_bytes()))
    assert outputs[0] == outputs[1]
