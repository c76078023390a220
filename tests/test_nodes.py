import logging

from biofsm.nodes import run_wearable
from biofsm.protocol import EndpointConfig
from biofsm.signals import SignalProfile, synth_physio


def test_failed_sends_are_recorded_as_not_sent(caplog):
    # Port 0 is not a valid destination: every sendto fails with EINVAL.
    caplog.set_level(logging.INFO, logger="biofsm")
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 40_000, seed=4)
    emissions = run_wearable(samples, endpoint=EndpointConfig(port=0))
    assert [e.arousal for e in emissions] == ["MILD", "MILD", "MILD"]
    assert all(e.frames_used > 0 for e in emissions)
    assert [e.byte_sent for e in emissions] == [None, None, None]
    assert sum("send failed" in r.getMessage() for r in caplog.records) == 3
