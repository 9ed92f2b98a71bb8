import json

import pytest

from hopfcyclic.bicomplex import Engine, hochschild_dims, total_cohomology
from hopfcyclic.cli import main, parse_word
from hopfcyclic.linalg import SparseMatrix


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
