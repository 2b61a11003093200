"""Golden outputs: SHA-256 of seeded CLI outputs, pinned byte for byte.

A refactor or speedup of the estimator or the simulator must leave these
files unchanged. A change that alters a seeded stream on purpose (a new
noise stream version, say) updates the digests here and says why.
"""

import hashlib

import pytest

from taglok.cli import main

COMPARE_INI = """
[trajectory]
duration = 1.0

[compare]
scenarios = hover:1.5:2.5:0.8 hover:1.5:2.5:2.0 t1
"""
T1_INI = "[trajectory]\nkind = t1\n"
T2_INI = "[trajectory]\nkind = t2\n"
HOVER_INI = "[trajectory]\nz = 2.0\nduration = 5\n"
T3_INI = "[trajectory]\nkind = t3\n"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_compare_csv(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", _config(tmp_path, "c.ini", COMPARE_INI),
                 "--out", str(out), "--seed", "5"]) == 0
    assert _sha256(out) == "b6c8d62acdf660cb19cf68d115a20051b87c1174b3f192dbe06093106e4e1f71"


def test_map_build_default(tmp_path, capsys):
    # 85 of its lines end in -0.0: a mirrored column's tags get the yaw -0.0
    out = tmp_path / "m.txt"
    assert main(["map-build", "--out", str(out)]) == 0
    assert _sha256(out) == "2bd1b6278c24522339f0ece9db4617e2161e14457620e8333c4e69f9017fc87a"


def test_run_t2_log(tmp_path, capsys):
    log = tmp_path / "t2.jsonl"
    assert main(["run", "--config", _config(tmp_path, "t2.ini", T2_INI),
                 "--seed", "3", "--log", str(log)]) == 0
    assert _sha256(log) == "dd0592c2704c6a8694183c1b58fab942a66e4df3fef69f3ed510e68843f2b962"


@pytest.mark.parametrize("text, lines, digest", [
    pytest.param(T1_INI, 576, "e715bae1f7b3300e343e99ed6be19659b7b677274136601ff587b0f0da731d14",
                 id="t1"),
    pytest.param(T3_INI, 442, "af952c41fd82e84c1f7012e52800351ca0d19a8059632b62d178ce9272c9cd5b",
                 id="t3"),
])
def test_run_log(tmp_path, capsys, text, lines, digest):
    # the phase labels and true poses of every frame pin the trajectory
    log = tmp_path / "run.jsonl"
    assert main(["run", "--config", _config(tmp_path, "run.ini", text),
                 "--seed", "4", "--log", str(log)]) == 0
    assert len(log.read_text(encoding="utf-8").splitlines()) == lines
    assert _sha256(log) == digest


def test_run_hover_all_noor_ql2_log(tmp_path, capsys):
    log = tmp_path / "hover.jsonl"
    assert main(["run", "--config", _config(tmp_path, "h.ini", HOVER_INI),
                 "--seed", "9", "--variant", "all-noor-ql2", "--log", str(log)]) == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert sum('"dispersion_warning": true' in line for line in lines) == 39
    assert len(lines) == 100
    assert _sha256(log) == "b1379f85ba5bde737f1fbe6d57df6972215b01aa6d39ff4933d31b9ae447512e"


def test_run_t1_timeseries_csv(tmp_path, capsys):
    # one of its 576 frames has no estimate, so a row with empty error fields
    out = tmp_path / "t1.csv"
    assert main(["run", "--config", _config(tmp_path, "t1.ini", T1_INI),
                 "--seed", "4", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 577
    assert _sha256(out) == "194f99fa670882b5aa3849270d44958908b2240dcc5309f6a3b06d3e11ed9573"


@pytest.fixture(scope="module")
def t3_stream(tmp_path_factory):
    folder = tmp_path_factory.mktemp("t3")
    config = _config(folder, "t3.ini", T3_INI)
    stream = folder / "t3.txt"
    assert main(["dump-detections", "--config", config, "--seed", "7",
                 "--out", str(stream)]) == 0
    assert _sha256(stream) == "10fe98456c1cc08d3b98edf2ae7ceb4f3ad78326db22195fb2254266a1393fb2"
    return config, stream


@pytest.mark.parametrize("variant, digest", [
    ("ql2", "3ae9dc905e38109b506943bbd067625b1b40fd199481b48167cf101e7aa63965"),
    ("cl2", "42a38c7b61f86184aaff990bce84679a4a72af4ad7f0ea1a19d62938da6eb56c"),
])
def test_replay_t3_csv(tmp_path, capsys, t3_stream, variant, digest):
    config, stream = t3_stream
    out = tmp_path / f"replay-{variant}.csv"
    assert main(["replay", "--config", config, "--detections", str(stream),
                 "--variant", variant, "--out", str(out)]) == 0
    assert _sha256(out) == digest


def test_run_hover_log_at_the_first_two_word_seed(tmp_path, capsys):
    # 2**32 is the first seed SeedSequence takes as two uint32 words
    log = tmp_path / "hover.jsonl"
    assert main(["run", "--config", _config(tmp_path, "h.ini", HOVER_INI),
                 "--seed", "4294967296", "--log", str(log)]) == 0
    assert len(log.read_text(encoding="utf-8").splitlines()) == 100
    assert _sha256(log) == "a2490a95ddc30ca7f159d00ebd7641d26a6a349174371a15f2a9702d2de2048b"


def test_replay_t3_log(tmp_path, capsys, t3_stream):
    config, stream = t3_stream
    out, log = tmp_path / "replay.csv", tmp_path / "replay.jsonl"
    assert main(["replay", "--config", config, "--detections", str(stream),
                 "--out", str(out), "--log", str(log)]) == 0
    assert len(log.read_text(encoding="utf-8").splitlines()) == 442
    assert _sha256(log) == "98a356cc56bad8909b53bbf5c00f7742e64a2d1ecf369d5a029df657ff780ffd"


@pytest.mark.parametrize("text, seed, printed", [
    pytest.param(T1_INI, "4", [
        "t1: ep 2.493 +/- 0.236 cm, eo 0.113 +/- 0.066 deg (575 frames, 1 dropped)",
        "  F: ep 2.450 +/- 0.304 cm, eo 0.113 +/- 0.061 deg",
        "  R: ep 2.490 +/- 0.215 cm, eo 0.107 +/- 0.075 deg",
        "  B: ep 2.489 +/- 0.177 cm, eo 0.108 +/- 0.055 deg",
        "  L: ep 2.541 +/- 0.220 cm, eo 0.125 +/- 0.068 deg",
    ], id="t1"),
    pytest.param(T2_INI, "3", [
        "t2: ep 0.784 +/- 1.432 cm, eo 0.099 +/- 0.050 deg (632 frames, 0 dropped)",
        "  S0: ep 0.255 +/- 0.183 cm, eo 0.120 +/- 0.067 deg",
        "  A1: ep 0.909 +/- 1.531 cm, eo 0.127 +/- 0.048 deg",
        "  A2: ep 0.815 +/- 1.530 cm, eo 0.075 +/- 0.036 deg",
        "  A3: ep 0.888 +/- 1.554 cm, eo 0.096 +/- 0.038 deg",
        "  D1: ep 0.844 +/- 1.478 cm, eo 0.085 +/- 0.045 deg",
        "  D2: ep 0.869 +/- 1.502 cm, eo 0.096 +/- 0.050 deg",
        "  D3: ep 0.837 +/- 1.493 cm, eo 0.096 +/- 0.044 deg",
    ], id="t2"),
])
def test_run_prints_overall_and_phase_stats(tmp_path, capsys, text, seed, printed):
    # the error statistics `run` reads off its frame records, as printed
    assert main(["run", "--config", _config(tmp_path, "run.ini", text), "--seed", seed]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in printed)
