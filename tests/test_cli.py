import json

import pytest

from seqfam.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_base_sequence(capsys):
    code, out, _ = run(capsys, "generate", "--p", "5", "--n", "1", "--M", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# q=5 d=1 M=4 l=0 c=1"
    assert lines[1] == "1,3,0,2"


def test_generate_column(capsys):
    code, out, _ = run(
        capsys, "generate", "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--column", "3"
    )
    assert code == 0
    header, payload = out.strip().splitlines()
    assert header == "# q=16 d=2 M=5 l=3 c=1"
    assert len(payload.split(",")) == 15


def test_generate_shifted(capsys):
    code, plain, _ = run(capsys, "generate", "--p", "5", "--n", "1", "--M", "4")
    code2, shifted, _ = run(capsys, "generate", "--p", "5", "--n", "1", "--M", "4", "--tau", "1")
    base = plain.strip().splitlines()[1].split(",")
    rolled = shifted.strip().splitlines()[1].split(",")
    assert rolled == base[1:] + base[:1]


def test_generate_invalid_alphabet(capsys):
    code, _, err = run(capsys, "generate", "--p", "2", "--n", "4", "--M", "4")
    assert code == 2
    assert "M must divide q-1" in err


def test_missing_required_flag(capsys):
    assert main(["generate", "--p", "5"]) == 2


def test_family_files(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    code, out, _ = run(
        capsys, "family", "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--out", prefix
    )
    assert code == 0
    manifest = json.loads((tmp_path / "fam.manifest.json").read_text())
    assert manifest["size"] == 32 and manifest["lambda"] == list(range(9))
    payload = (tmp_path / "fam.sequences.txt").read_text().strip().splitlines()
    assert len(payload) == 64  # header + symbols per sequence
    assert payload[0] == "# q=16 d=2 M=5 l=1 c=1"


def test_family_strict_violation_exit(capsys):
    code, _, err = run(capsys, "family", "--p", "13", "--n", "1", "--d", "2", "--M", "4")
    assert code == 2 and "strict policy" in err


def test_correlate_json(capsys):
    code, out, _ = run(
        capsys, "correlate", "--p", "2", "--n", "4", "--d", "2", "--M", "5",
        "--format", "json", "--jobs", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_ok"] and payload["cyclically_inequivalent"]
    assert payload["delta_max"] == pytest.approx(10.207522, abs=1e-5)


def test_correlate_histogram_csv(capsys):
    code, out, _ = run(
        capsys, "correlate", "--p", "2", "--n", "4", "--d", "2", "--M", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "abs_correlation,count"
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_correlate_deterministic_apart_from_elapsed(capsys):
    args = ("correlate", "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed"), b.pop("elapsed")
    assert json.dumps(a) == json.dumps(b)


def test_count_text_and_json(capsys):
    code, out, _ = run(capsys, "count", "--p", "41", "--n", "1", "--d", "3", "--M", "2")
    assert code == 0
    assert "lambda (closed form) = 575" in out
    code, out, _ = run(
        capsys, "count", "--p", "41", "--n", "1", "--d", "3", "--M", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["family_size"] == 574


def test_count_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--p", "2", "--n", "4", "--d", "2", "--M", "5",
        "--format", "csv", "--table-limit", str(1 << 20),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,d,M,lambda,family_size,asymptotic,ratio"
    assert lines[1].startswith("16,2,5,9,32,")
    assert len(lines) >= 3  # q=16 and q=256 rows at least


@pytest.mark.parametrize("M", ["0", "1", "-3"])
def test_count_sweep_csv_rejects_small_alphabet(capsys, M):
    code, out, err = run(capsys, "count", "--p", "2", "--d", "2", "--M", M, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "M must be >= 2" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(c["ok"] for c in payload["checks"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    code, out, _ = run(
        capsys, "generate", "--p", "5", "--n", "1", "--M", "4", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "1,3,0,2"
