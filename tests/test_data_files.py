"""The CSV data files: every reader's messages and every writer's bytes.

Both are pinned literally, so that a change to the shared reader
(``signals.read_csv``) or writer (``signals.write_csv``) that moves a
message or a byte of any file fails here.
"""

import json
import math

import pytest

from involution.channel import ChannelError, read_eta_sequence, write_eta_sequence
from involution.cli import EXIT_OK, main
from involution.delay_model import DelayModelError, read_delay_samples, write_delay_samples
from involution.signals import SignalError, make_signal, read_trace, write_trace
from involution.waveform_lab import DeviationResult, DeviationSample, write_deviation_csv

_NOT_UTF8 = "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"

_TRACE = "signal,time,value\ni,-inf,0\n"
_ETA = "n,eta\n"
_DELAY = "T,delta_up,delta_down\n"

_CASES = [
    (read_trace, SignalError, b"\xffsignal,time,value\n", _NOT_UTF8),
    (read_trace, SignalError, "sig,time,value\n", "line 1: bad trace header ['sig', 'time', 'value']"),
    (read_trace, SignalError, "", "line 1: bad trace header None"),
    (
        read_trace, SignalError, _TRACE + "i,1.0\n",
        "line 3: bad trace row ['i', '1.0'] (not enough values to unpack (expected 3, got 2))",
    ),
    (
        read_trace, SignalError, _TRACE + "i,1.0,1,2\n",
        "line 3: bad trace row ['i', '1.0', '1', '2'] (too many values to unpack (expected 3))",
    ),
    (
        read_trace, SignalError, _TRACE + "i,abc,1\n",
        "line 3: bad trace row ['i', 'abc', '1'] (could not convert string to float: 'abc')",
    ),
    (
        read_trace, SignalError, _TRACE + "i,abc,x\n",  # both fields bad: the value is named
        "line 3: bad trace row ['i', 'abc', 'x'] (invalid literal for int() with base 10: 'x')",
    ),
    (read_trace, SignalError, _TRACE + "i,1.0,1\ni,-inf,0\n", "line 4: repeated -inf initial-value row of signal 'i'"),
    (read_eta_sequence, ChannelError, b"\xffn,eta\n", _NOT_UTF8),
    (read_eta_sequence, ChannelError, "n,e\n", "line 1: bad eta-sequence header ['n', 'e']"),
    (read_eta_sequence, ChannelError, "", "line 1: bad eta-sequence header None"),
    (
        read_eta_sequence, ChannelError, _ETA + "1\n",
        "line 2: bad eta-sequence row ['1'] (not enough values to unpack (expected 2, got 1))",
    ),
    (
        read_eta_sequence, ChannelError, _ETA + "1,0.0\n2,abc\n",
        "line 3: bad eta-sequence row ['2', 'abc'] (could not convert string to float: 'abc')",
    ),
    (
        read_eta_sequence, ChannelError, _ETA + "x,0.1\n",
        "line 2: bad eta-sequence row ['x', '0.1'] (invalid literal for int() with base 10: 'x')",
    ),
    (read_eta_sequence, ChannelError, _ETA + "1,0.0\n3,0.1\n", "line 3: rows must be numbered consecutively from 1, got n=3"),
    (read_delay_samples, DelayModelError, b"\xffT,delta_up,delta_down\n", _NOT_UTF8),
    (read_delay_samples, DelayModelError, "T,up,down\n", "line 1: bad delay-sample header ['T', 'up', 'down']"),
    (read_delay_samples, DelayModelError, "", "line 1: bad delay-sample header None"),
    (
        read_delay_samples, DelayModelError, _DELAY + "0,1.0\n",
        "line 2: bad delay-sample row ['0', '1.0'] (not enough values to unpack (expected 3, got 2))",
    ),
    (
        read_delay_samples, DelayModelError, _DELAY + "abc,1.0,1.0\n",
        "line 2: bad delay-sample row ['abc', '1.0', '1.0'] (could not convert string to float: 'abc')",
    ),
    (
        read_delay_samples, DelayModelError, _DELAY + "0,1.0,x\n",
        "line 2: bad delay-sample row ['0', '1.0', 'x'] (could not convert string to float: 'x')",
    ),
]
_IDS = [
    "trace-not-utf8", "trace-header", "trace-empty", "trace-short-row", "trace-long-row", "trace-bad-time",
    "trace-bad-time-and-value", "trace-second-initial-row", "eta-not-utf8", "eta-header", "eta-empty",
    "eta-short-row", "eta-bad-eta", "eta-bad-n", "eta-gap-in-n", "delay-not-utf8", "delay-header", "delay-empty",
    "delay-short-row", "delay-bad-T", "delay-bad-delay",
]


@pytest.mark.parametrize("reader, error, content, message", _CASES, ids=_IDS)
def test_a_bad_data_file_names_the_file_and_line(tmp_path, reader, error, content, message):
    path = tmp_path / "data.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(error) as exc_info:
        reader(path)
    assert type(exc_info.value) is error and str(exc_info.value) == f"{path}: {message}"


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "NaN"])
def test_a_non_finite_eta_is_rejected_naming_the_file_and_line(tmp_path, eta):
    path = tmp_path / "etas.csv"
    path.write_text(f"n,eta\n1,0.0\n2,{eta}\n")
    with pytest.raises(ChannelError) as exc_info:
        read_eta_sequence(path)
    assert str(exc_info.value) == f"{path}: line 3: eta {float(eta)} is not finite"


def test_each_writer_writes_the_same_bytes(tmp_path):
    signals = {"b": make_signal(1, [(0.1 + 0.2, 0), (1e16, 1)]), 'x,"y': make_signal(0, [(0.0, 1)]), "a": make_signal(0, [])}
    write_trace(tmp_path / "trace.csv", signals)
    assert (tmp_path / "trace.csv").read_bytes() == (
        b'signal,time,value\r\na,-inf,0\r\nb,-inf,1\r\nb,0.30000000000000004,0\r\nb,1e+16,1\r\n'
        b'"x,""y",-inf,0\r\n"x,""y",0.0,1\r\n'
    )
    write_eta_sequence(tmp_path / "eta.csv", [0.0, -0.1, 0.1 + 0.2, 1e-17])
    assert (tmp_path / "eta.csv").read_bytes() == b"n,eta\r\n1,0.0\r\n2,-0.1\r\n3,0.30000000000000004\r\n4,1e-17\r\n"
    write_delay_samples(tmp_path / "delay.csv", [(-0.5, 0.5, 1), (-0.5, 0.5, 0), (1e-05, 0.831797, 1), (3.0, 1.177933, 0)])
    assert (tmp_path / "delay.csv").read_bytes() == (
        b"T,delta_up,delta_down\r\n-0.5,0.5,\r\n-0.5,,0.5\r\n1e-05,0.831797,\r\n3.0,,1.177933\r\n"
    )
    samples = [DeviationSample(0.1, -0.01, 1, 0.6), DeviationSample(-math.inf, 0.03, 0, 1e-05), DeviationSample(2.5, 0.0, 0, 0.7)]
    write_deviation_csv(tmp_path / "dev.csv", DeviationResult(samples, 0.005, 0.02))
    assert (tmp_path / "dev.csv").read_bytes() == (
        b"edge,T,D,covered,delay\r\nrising,0.1,-0.01,0,0.6\r\nfalling,-inf,0.03,0,1e-05\r\nfalling,2.5,0.0,1,0.7\r\n"
    )


def test_spf_sweep_writes_the_same_sweep_csv_and_verdict_keys(tmp_path, capsys):
    # a width below pass_below and one above lock_above: every cell is exact on any host
    out = tmp_path / "sweep"
    argv = [
        "spf-sweep", "--tau", "1", "--t-p", "0.5", "--vth", "0.5", "--eta-plus", "0.05", "--eta-minus", "0.05",
        "--grid", "0.3", "1.5", "1.2", "--strategy", "zero", "--strategy", "worst", "--epsilon", "0.25",
        "--horizon", "40", "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    runs = [b",zero,0,0,-inf,", b"0.3,pass_through,0,0,0.3,", b"1.5,lock,0,1,0.0,"]
    header = b"delta0,regime,pulses_observed,resolved_to,stabilization_time,strategy\r\n"
    rows = b"".join(run + strategy + b"\r\n" for strategy in (b"zero", b"worst") for run in runs)
    assert (out / "sweep.csv").read_bytes() == header + rows
    verdict = json.loads((out / "spf_verdict.json").read_text())
    assert list(verdict) == ["epsilon", "f2_pass", "f3_pass", "f4_pass", "f4_witnesses", "ht_params"]
    assert verdict["epsilon"] == 0.25 and verdict["f4_witnesses"] == [] and verdict["f2_pass"] is True
    assert capsys.readouterr().out.strip() == '{"f2": true, "f3": true, "f4": true}'
