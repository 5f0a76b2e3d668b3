"""Tests of the benchmark itself.  Run with ``python -m pytest bench/tests``
(tier-1's ``testpaths`` stays ``tests``, so tier-1 time does not grow).

Covers the smoke pass end to end, the line the driver parses, the
checker's failure paths and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import check, compare, hostspeed, suite  # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# ----------------------------------------------------------------------
# check.py: failure paths
# ----------------------------------------------------------------------
def _delivered(seqs: list[int], stream: int = 0) -> list[tuple[int, int, bytes]]:
    return [
        (stream, seq, check.body_digest(check.message_body(7, stream, seq))) for seq in seqs
    ]


def test_delivery_clean_run_passes():
    assert check.delivery_problems(7, [5], _delivered([0, 1, 3, 4])) == []


def test_delivery_duplicate_is_flagged():
    problems = check.delivery_problems(7, [3], _delivered([0, 1, 0]))
    assert len(problems) == 1 and "duplicate" in problems[0]


def test_delivery_corrupted_body_is_flagged():
    wrong = check.body_digest(check.message_body(7, 0, 0) + "x")
    problems = check.delivery_problems(7, [2], [(0, 0, wrong)])
    assert len(problems) == 1 and "do not hash" in problems[0]


def test_delivery_of_unoffered_message_is_flagged():
    for stream, seq in ((0, 1), (3, 0)):
        problems = check.delivery_problems(7, [1], _delivered([seq], stream))
        assert len(problems) == 1 and "never offered" in problems[0]


def test_message_body_is_a_function_of_seed_stream_and_seq():
    assert check.message_body(1, 2, 3) == check.message_body(1, 2, 3)
    assert len(check.message_body(1, 2, 3, 512)) == 512
    assert len({check.message_body(s, t, q) for s in (1, 2) for t in (0, 1) for q in (0, 1)}) == 8


def test_determinism_shared_slices_must_agree():
    a = {"setup": ["s"], "checkpoints": ["c0", "c1", "c2"]}
    longer = {"setup": ["s", "s"], "checkpoints": ["c0", "c1", "c2", "c3"]}
    assert check.determinism_problems([a, longer]) == []
    diverged = {"setup": ["s"], "checkpoints": ["c0", "XX", "c2"]}
    problems = check.determinism_problems([a, diverged])
    assert len(problems) == 1 and "slice 1" in problems[0]


def test_determinism_setup_mismatch_is_flagged():
    problems = check.determinism_problems([{"setup": ["s", "t"], "checkpoints": []}])
    assert len(problems) == 1 and "set-up" in problems[0]


def test_membership_failed_share_and_closure():
    assert check.membership_problems(27, 28) == []
    assert check.membership_problems(20, 28)
    assert check.failed_share_problems(1000, 20) == []
    assert check.failed_share_problems(1000, 21)
    assert check.failed_share_problems(0, 0)
    assert check.closure_problems({"a": 0.6, "b": 0.395}, 1.0, "x") == []
    assert check.closure_problems({"a": 0.6, "b": 0.3}, 1.0, "x")


# ----------------------------------------------------------------------
# hostspeed.py: the reference and the speed it gives
# ----------------------------------------------------------------------
def test_host_speed_is_nominal_over_mean_pass():
    assert hostspeed.speed([hostspeed.NOMINAL_S] * 4) == pytest.approx(1.0)
    assert hostspeed.speed([2 * hostspeed.NOMINAL_S] * 4) == pytest.approx(0.5)
    samples: list[float] = []
    hostspeed.sample(samples, 3.4 * hostspeed.PERIOD_S)
    hostspeed.sample(samples, 0.0)  # a short slice still gets one pass
    assert len(samples) == 4 and all(0 < s < 1 for s in samples)


# ----------------------------------------------------------------------
# compare.py: verdicts
# ----------------------------------------------------------------------
def _result(msgs: list[float], failed: int = 0, lost: int = 0) -> dict:
    def block(values: list[float], better: str) -> dict:
        return {"unit": "x", "better": better, **suite._summary(values, better)}

    return {
        "seed": 12, "seconds": 8, "smoke": False,
        "workloads": {
            "msg_onion": {
                "end_to_end": {
                    "msgs_per_s": block(msgs, "higher"),
                    "setup_s": block([4.0, 4.1, 4.05], "lower"),
                },
                "attempted": [1000] * len(msgs),
                "failed": [failed] * len(msgs),
                "lost": [lost] * len(msgs),
            }
        },
    }


def _verdicts(a: dict, b: dict) -> tuple[dict[str, str], bool]:
    rows, any_worse = compare.compare(a, b, SPEC)
    return {row[1]: row[5] for row in rows}, any_worse


def test_compare_within_better_worse():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "msgs_per_s")
    base = _result([600.0, 605.0, 610.0])
    verdicts, any_worse = _verdicts(base, copy.deepcopy(base))
    assert verdicts == {"msgs_per_s": "within", "setup_s": "within", "failed_share": "within"}
    assert not any_worse
    up = 1 + 2 * bound
    faster = _result([600.0 * up, 605.0 * up, 610.0 * up])
    assert _verdicts(base, faster)[0]["msgs_per_s"] == "better"
    verdicts, any_worse = _verdicts(faster, base)
    assert verdicts["msgs_per_s"] == "worse" and any_worse


def test_compare_unresolved_when_repeats_spread_exceeds_bound():
    base = _result([600.0, 605.0, 610.0])
    noisy = _result([300.0, 605.0, 900.0])
    assert _verdicts(base, noisy)[0]["msgs_per_s"] == "unresolved"


def test_compare_flags_higher_failed_share(tmp_path, capsys):
    base, broken = _result([600.0, 605.0, 610.0]), _result([600.0, 605.0, 610.0], failed=30)
    verdicts, any_worse = _verdicts(base, broken)
    assert verdicts["failed_share"] == "worse" and any_worse
    lossy = _result([600.0, 605.0, 610.0], lost=30)  # lost counts like failed
    assert _verdicts(base, lossy)[0]["failed_share"] == "worse"
    assert _verdicts(lossy, _result([600.0, 605.0, 610.0], lost=31))[0]["failed_share"] == "within"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(broken))
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a)]) == 2


# ----------------------------------------------------------------------
# run.py: the line the driver parses, failed runs, the smoke pass
# ----------------------------------------------------------------------
def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, names", [(0, END_TO_END), (1, PER_LAYER)])
def test_single_run_prints_the_contract_line(tmp_path, trace, names):
    done = subprocess.run(
        RUN + ["--workload", "gossip1k", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    line = _last_line(done.stdout)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1
    assert isinstance(line["attempted"], int) and line["failed"] == 0
    assert list(line["metrics"]) == names
    for metric in line["metrics"].values():
        assert sorted(metric) == ["unit", "value"]
    if trace == 0:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    else:
        assert (tmp_path / "trace_gossip1k.json").exists()


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gossip1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_failed_run_is_reported_with_its_reason(tmp_path):
    record, reason = suite._one_run(
        "no_such_workload", 1, 1.0, 0, True, tmp_path, tmp_path / "r.json"
    )
    assert record is None and "no_such_workload" in reason


def test_smoke_pass(tmp_path):
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "12", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["smoke"] is True and result["repeats"] == 1
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in result["workloads"].items():
        assert entry["ok"], (name, entry["problems"])
        assert list(entry["end_to_end"]) == END_TO_END
        assert list(entry["per_layer"]) == PER_LAYER
        assert entry["attempted"][0] >= 1 and entry["failed"] == [0]
        assert Path(entry["trace_file"]).exists()
    layers = {name: e["per_layer"] for name, e in result["workloads"].items()}
    assert layers["gossip1k"]["wire.encode_s"] == 0 and layers["live_udp"]["wire.encode_s"] > 0
    assert layers["gossip1k"]["harness.barrier_s"] == 0 and layers["shard10k"]["harness.barrier_s"] > 0
    assert layers["msg_onion"]["crypto.rsa_decrypts"] > layers["msg_circuit"]["crypto.rsa_decrypts"]
    # A result compared with itself is within every bound.
    path = str(tmp_path / "result.json")
    assert compare.main([path, path]) == 0
