from seqfam.verify import format_verification, run_verification


def test_verify_q16(capsys):
    result = run_verification(2, 4, 2, 5)
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]
    names = {c["name"] for c in result["checks"]}
    assert "correlation-bound" in names
    assert "cyclic-inequivalence-negative-control" in names
    assert "count-degree-two-identity" in names
    text = format_verification(result)
    assert "overall: PASS" in text
    assert text.count("PASS") == len(result["checks"]) + 1


def test_verify_relaxed_q13():
    result = run_verification(13, 1, 2, 4, policy="relaxed-d2")
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]
    params = result["parameters"]
    assert params["policy"] == "relaxed-d2" and params["q"] == 13


def test_verify_computes_each_family_s_rotation_keys_once(rotation_key_calls):
    result = run_verification(2, 4, 2, 5)
    # The scan: the members' keys and two generator candidates. The negative
    # control: its own pass over the family plus one shifted member.
    assert rotation_key_calls == [(32, 15)] * 3 + [(33, 15)]
    checks = {c["name"]: c for c in result["checks"]}
    assert checks["cyclic-inequivalence"]["ok"] and checks["cyclic-inequivalence-negative-control"]["ok"]
    assert "'index2': 32" in checks["cyclic-inequivalence-negative-control"]["detail"]
