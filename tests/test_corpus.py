import json

import pytest

import corpus


def test_every_case_keeps_its_recorded_digests():
    recorded = json.loads(corpus.DIGESTS.read_text())
    if recorded["host"] != corpus.host():
        pytest.skip(f"digests recorded on {recorded['host']}, this host is {corpus.host()}")
    got = corpus.digests()
    assert sorted(got) == sorted(recorded["cases"])
    differ = sorted(name for name, d in got.items() if d != recorded["cases"][name])
    assert not differ, differ


def test_horizon_exceeded_case_carries_its_last_100_events():
    case = corpus.horizon_exceeded_case()
    with pytest.raises(corpus.HorizonExceeded, match="event budget 3000 exhausted") as exc_info:
        corpus.execute(case.circuit, case.inputs, case.horizon, events_max=case.events_max)
    assert len(exc_info.value.events) == 100
