import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

import seqfam
from seqfam import cli, errors, kernels
from seqfam.cli import _build_parser, main
from seqfam.correlation import max_correlation
from seqfam.sequences import format_sequence

CLI_TIMEOUT = 10  # seconds; pytest has no timeout of its own here, so a hang must fail, not stall


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*argv, timeout=CLI_TIMEOUT):
    """The CLI in a fresh interpreter, killed after `timeout` seconds (subprocess.TimeoutExpired)."""
    env = {k: v for k, v in os.environ.items() if k != "SEQFAM_TABLE_LIMIT"}
    env["PYTHONPATH"] = str(Path(seqfam.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "seqfam.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )
    return done.returncode, done.stdout, done.stderr


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


def test_count_builds_no_field(capsys):
    # The report at q=13 d=4 as the field-based triple sum gave it: the closed form alone now.
    expected = {
        "q": 13, "d": 4, "M": 3, "lambda_formula": 604, "lambda_cosets": 604, "family_size": 1206,
        "asymptotic": 1098.5, "ratio": 1.0978607191624943,
        "breakdown": {"e=1,m=1": 1, "e=1,m=2": 1, "e=1,m=4": 2, "e=2,m=1": 6, "e=2,m=2": 6, "e=4,m=1": 588},
    }
    with mock.patch.object(cli, "build_field", side_effect=AssertionError("built a field")):
        code, out, err = run(capsys, "count", "--p", "13", "--d", "4", "--M", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2) + "\n"


def test_count_checks_q_against_the_given_table_limit(capsys, monkeypatch):
    # q = 101 is above the environment's limit but q**2 is within --table-limit, which governs.
    monkeypatch.setenv("SEQFAM_TABLE_LIMIT", "100")
    argv = ["count", "--p", "101", "--d", "2", "--M", "4"]
    code, out, err = run(capsys, *argv, "--format", "json", "--table-limit", "20000")
    assert (code, err) == (0, "") and json.loads(out)["lambda_formula"] == 52
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: q = 101**1 exceeds the table limit 100\n")


def test_family_stdout_is_the_two_files(tmp_path, capsys):
    argv = ["family", "--p", "13", "--d", "2", "--M", "4", "--policy", "relaxed-d2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--out", str(tmp_path / "fam"))[0] == 0
    files = [(tmp_path / f"fam.{kind}").read_text() for kind in ("manifest.json", "sequences.txt")]
    assert out == "".join(files) and files[0].endswith("}\n")
    family = cli._family(_build_parser().parse_args(argv))
    assert files[1] == "".join(format_sequence(s) + "\n" for s in family.sequences)


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


def test_count_sweep_csv_starts_at_q_of_n(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--n", "4", "--d", "2", "--M", "3", "--format", "csv")
    assert code == 0
    qs = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert qs == [16, 64, 256, 1024, 4096]  # q = 4 fits M=3 too, but lies below p**n


@pytest.mark.parametrize("n", ["0", "-1"])
def test_count_sweep_csv_rejects_small_degree(capsys, n):
    code, out, err = run(capsys, "count", "--p", "2", "--n", n, "--d", "2", "--M", "3", "--format", "csv")
    assert (code, out) == (2, "")
    assert "n must be >= 1" in err


@pytest.mark.parametrize("M", ["0", "1", "-3"])
def test_count_sweep_csv_rejects_small_alphabet(capsys, M):
    code, out, err = run(capsys, "count", "--p", "2", "--d", "2", "--M", M, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "M must be >= 2" in err


@pytest.mark.parametrize("p", ["0", "1", "6", "-2"])
def test_count_sweep_csv_rejects_non_prime(capsys, p):
    code, out, err = run(capsys, "count", "--p", p, "--d", "2", "--M", "3", "--format", "csv")
    assert code == 2
    assert out == ""
    assert f"p={p} is not prime" in err


@pytest.mark.parametrize("command", ["generate", "family"])
def test_out_into_missing_directory(tmp_path, capsys, command):
    target = str(tmp_path / "missing" / "out")
    code, out, err = run(
        capsys, command, "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--out", target
    )
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --p 1000000000000000003 --d 2 --M 2",  # p above the limit: no primality test
        "count --p 1000000000000000003 --d 2 --M 2 --format csv",
        "generate --p 2 --n 100000000 --M 5",  # q = p**n far too large to print
        "correlate --p 2 --n 4 --d 100000000 --M 5",
        "count --p 2 --n 4 --d 10 --M 5",  # q**d above the limit
        "count --p 2 --n 4 --d 40 --M 5",
    ],
)
def test_oversized_field_exits_promptly(argv):
    code, out, err = run_subprocess(*argv.split())
    assert code == 2
    assert out == ""
    assert "exceeds the table limit" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_refuses_an_oversized_extension_before_building_the_field(capsys, fmt):
    # GF(2**24) alone would take seconds and hundreds of MB to build
    with mock.patch("seqfam.cli.build_field", side_effect=AssertionError("GF(q) was built")):
        code, out, err = run(capsys, "count", "--p", "2", "--n", "24", "--d", "2", "--M", "3", "--format", fmt)
    assert (code, out) == (2, "")
    assert "q**d = 16777216**2 exceeds the table limit" in err and "Traceback" not in err


GCD_3 = "strict policy violated: gcd(d, q-1) = 3 != 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --p 2 --n 8 --d 3 --M 5", GCD_3),
        ("verify --p 2 --n 12 --d 2 --M 11", "M must divide q-1 (q=4096, M=11)"),
        ("verify --p 2 --n 12 --d 2 --M 5 --policy relaxed-d2", "relaxed-d2 policy requires d = 2 and q odd"),
        ("correlate --p 2 --n 8 --d 3 --M 5", GCD_3),
        ("family --p 2 --n 8 --d 3 --M 5", GCD_3),
        ("correlate --p 2 --n 12 --d 2 --M 11", "M must divide q-1 (q=4096, M=11)"),
        ("generate --p 2 --n 12 --d 2 --M 11", "M must divide q-1 (q=4096, M=11)"),
        ("family --p 2 --n 12 --d 2 --M 1", "M must be >= 2"),
        ("correlate --p 2 --n 8 --d 3 --M 11", "M must divide q-1 (q=256, M=11)"),  # M before the policy
        ("correlate --p 2 --n 4 --d 7 --M 5", "q**d = 16**7 exceeds the table limit 16777216"),  # size first
        ("generate --p 2 --n 24 --M 3 --column 1", "--column needs --d"),
        ("generate --p 2 --n 24 --M 4", "M must divide q-1 (q=16777216, M=4)"),
        ("correlate --p 2 --n 24 --d 2 --M 3", "q**d = 16777216**2 exceeds the table limit 16777216"),
        ("verify --p 2 --n 24 --d 2 --M 3", "q**d = 16777216**2 exceeds the table limit 16777216"),
        ("family --p 2 --n 24 --d 2 --M 4", "q**d = 16777216**2 exceeds the table limit 16777216"),
        ("count --p 2 --n 12 --d 2 --M 4", "M must divide q-1 (q=4096, M=4)"),
    ],
)
def test_parameter_errors_come_before_the_extension_is_built(capsys, argv, message):
    # Each message depends on (q, d, M, policy) and the flags only, so neither GF(q) nor GF(q**d)
    # is built; GF(2**24) alone takes seconds and hundreds of MB.
    built = AssertionError("GF(q) was built")
    with mock.patch("seqfam.cli.build_field", side_effect=built), \
            mock.patch("seqfam.verify.build_field", side_effect=built):
        code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("M", ["0", "1"])
def test_count_checks_the_alphabet_as_every_subcommand_does(capsys, M, fmt):
    code, out, err = run(capsys, "count", "--p", "2", "--n", "4", "--d", "2", "--M", M, "--format", fmt)
    assert (code, out, err) == (2, "", "error: M must be >= 2\n")


CORRELATE_JSON_KEYS = [
    "q", "d", "M", "policy", "family_size", "delta_max", "bound", "bound_ok", "pair_bound_ok",
    "pair_bound_violations", "same_column_bound_ok", "argmax", "histogram", "histogram_resolution",
    "backend", "scan", "elapsed", "cyclically_inequivalent", "equivalence_witness",
]


def test_correlate_json_keys_come_from_the_report(capsys, fam16_m5):
    code, out, _ = run(capsys, "correlate", *BASE.split(), "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == CORRELATE_JSON_KEYS
    assert list(max_correlation(fam16_m5).to_dict()) == CORRELATE_JSON_KEYS


SUBCOMMAND_FLAGS = {  # every flag a subcommand accepts, besides --p --n --d --M --out --table-limit
    "generate": {"--column", "--tau"},
    "family": {"--policy"},
    "correlate": {"--policy", "--format", "--jobs"},
    "count": {"--format"},
    "verify": {"--policy", "--format", "--jobs"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    accepted = {
        name: {flag for action in cmd._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, cmd in commands.items()
    }
    shared = {"--p", "--n", "--d", "--M", "--out", "--table-limit"}
    assert accepted == {name: shared | extra for name, extra in SUBCOMMAND_FLAGS.items()}
    assert sum(map(len, accepted.values())) == 40


BASE = "--p 2 --n 4 --d 2 --M 5"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(f"generate {BASE} --policy strict", id="generate-policy"),
        pytest.param(f"generate {BASE} --format json", id="generate-format"),
        pytest.param(f"generate {BASE} --jobs 2", id="generate-jobs"),
        pytest.param(f"family {BASE} --column 3", id="family-column"),
        pytest.param(f"family {BASE} --tau 1", id="family-tau"),
        pytest.param(f"family {BASE} --format json", id="family-format"),
        pytest.param(f"family {BASE} --jobs 2", id="family-jobs"),
        pytest.param(f"correlate {BASE} --column 3", id="correlate-column"),
        pytest.param(f"correlate {BASE} --tau 1", id="correlate-tau"),
        # count never read --policy: it printed the strict size 21, where the relaxed family has 18
        pytest.param("count --p 13 --d 2 --M 4 --policy relaxed-d2", id="count-policy-relaxed-d2"),
        pytest.param(f"count {BASE} --column 3", id="count-column"),
        pytest.param(f"count {BASE} --tau 1", id="count-tau"),
        pytest.param(f"count {BASE} --jobs 2", id="count-jobs"),
        pytest.param(f"verify {BASE} --column 3", id="verify-column"),
        pytest.param(f"verify {BASE} --tau 1", id="verify-tau"),
        pytest.param(f"verify {BASE} --format csv", id="verify-format-csv"),  # printed text
        pytest.param("generate --p 5 --M 4 --d 0", id="generate-d-0"),  # printed the base sequence
        pytest.param("generate --p 5 --M 4 --d -3", id="generate-d-negative"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("usage: seqfam ") and "Traceback" not in err


def test_column_needs_d(capsys):
    code, out, err = run(capsys, "generate", "--p", "5", "--M", "4", "--column", "1")
    assert (code, out) == (2, "")
    assert "--column needs --d" in err


def test_table_limit_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("SEQFAM_TABLE_LIMIT", "abc")
    code, out, err = run(capsys, "generate", "--p", "5", "--M", "4")
    assert code == 2
    assert out == ""
    assert "SEQFAM_TABLE_LIMIT" in err and "Traceback" not in err


def test_table_limit_flag_not_positive(capsys):
    code, out, err = run(capsys, "generate", "--p", "5", "--M", "4", "--table-limit", "-3")
    assert (code, out) == (2, "")
    assert err == "error: table limit must be a positive integer, got -3\n"


def test_table_limit_env_not_positive(monkeypatch, capsys):
    monkeypatch.setenv("SEQFAM_TABLE_LIMIT", "-5")
    code, out, err = run(capsys, "generate", "--p", "5", "--M", "4")
    assert (code, out) == (2, "")
    assert err == "error: table limit must be a positive integer, got -5\n"


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


def test_correlate_text(capsys, fam16_m5):
    code, out, _ = run(capsys, "correlate", *BASE.split())
    lines = out.splitlines()
    assert code == 0 and len(lines) == 6
    assert lines[:5] == [
        "family q=16 d=2 M=5 policy=strict: 32 sequences",
        "delta_max = 10.207522 (bound 13.000000) OK",
        "per-pair bounds: OK",
        "cyclically inequivalent: True",
        f"histogram bins: {len(max_correlation(fam16_m5).histogram)} at resolution 1e-06",
    ]
    assert lines[5].startswith("backend: gemm, elapsed ")


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", *BASE.split())
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "verification for q=16 (p=2, n=4), d=2, M=5, policy=strict"
    assert len(lines) > 2 and all(line.startswith("PASS  ") for line in lines[1:-1])
    assert lines[-1].startswith("overall: PASS in ")


def test_family_to_stdout(capsys):
    code, out, _ = run(capsys, "family", *BASE.split())
    assert code == 0
    manifest, payload = out.split("\n}\n")
    assert json.loads(manifest + "}")["size"] == 32
    lines = payload.splitlines()
    assert len(lines) == 64 and lines[0] == "# q=16 d=2 M=5 l=1 c=1"


@pytest.mark.parametrize(
    "error, message",
    [
        (errors.InternalCheckError("factor product is not x**m - 1"),
         "internal consistency failure: factor product is not x**m - 1\n"),
        (errors.SeqfamError("something else"), "error: something else\n"),
    ],
    ids=["internal-check", "other"],
)
def test_errors_that_are_not_bad_input_exit_1(capsys, error, message):
    with mock.patch.dict(cli._COMMANDS, {"count": mock.Mock(side_effect=error)}):
        assert run(capsys, "count", *BASE.split()) == (1, "", message)


def test_out_of_memory_exits_2(capsys):
    oom = MemoryError("Unable to allocate 64.0 MiB for an array with shape (16777215,) and data type int32")
    with mock.patch("seqfam.cli.build_field", side_effect=oom):
        code, out, err = run(capsys, "generate", "--p", "2", "--n", "12", "--d", "2", "--M", "3", "--column", "1")
    assert (code, out) == (2, "")
    assert err == f"error: out of memory in generate: {oom}\n"


def test_out_of_memory_under_an_address_space_cap_exits_2():
    # The cap is the child's own import peak plus 32 MiB, set in that child alone; GF(2**24)'s
    # exp table takes 64 MiB, and nothing before it comes near 32.
    env = {**os.environ, "PYTHONPATH": str(Path(seqfam.__file__).resolve().parent.parent)}
    env.pop("SEQFAM_TABLE_LIMIT", None)
    peak = "import seqfam.cli; print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak:')))"
    baseline = int(subprocess.run([sys.executable, "-c", peak], env=env, capture_output=True, text=True,
                                  check=True, timeout=CLI_TIMEOUT).stdout) * 1024
    cap = baseline + (32 << 20)
    done = subprocess.run(
        [sys.executable, "-m", "seqfam.cli", *"generate --p 2 --n 12 --d 2 --M 3 --column 1".split()],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: out of memory in generate: Unable to allocate 64.0 MiB")
    assert "Traceback" not in done.stderr


def test_a_thread_that_cannot_start_exits_2(capsys, monkeypatch):
    # As under a tight address-space cap: the scan's pool cannot start its thread. Two usable CPUs
    # give the scan a pool even where the tests run on one.
    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, err = run(capsys, *"correlate --p 2 --n 8 --d 2 --M 15".split())
    assert (code, out) == (2, "")
    assert err == "error: cannot start a worker thread: can't start new thread\n"
