"""Stacked trace synthesis against the per-packet loop it replaced.

``ChannelSimulator.generate_trace`` makes every draw of a trace first,
in the generator's order, then builds the trace as one ``(K, M, N)``
stack.  It must return exactly what ``reference_generate_trace`` (one
packet at a time, noise drawn with ``rng.normal``) returns: every
frame's CSI bytes, RSSI and timestamp, and the generator must end in
the same state.
"""

from dataclasses import replace

import numpy as np
import pytest
from reference import reference_generate_trace

from repro.channel.chains import ChainOffsets
from repro.channel.impairments import ideal_impairments
from repro.channel.multipath import MultipathProfile
from repro.channel.paths import PropagationPath
from repro.testbed.layout import office_testbed, small_testbed
from repro.wifi.csi import CsiTrace


def _frame_bits(trace: CsiTrace):
    return [
        (f.csi.tobytes(), float(f.rssi_dbm).hex(), float(f.timestamp_s).hex(), f.source)
        for f in trace
    ]


def assert_matches_reference(sim, ap, num_packets, seed, profile, **kwargs) -> None:
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sim.generate_trace(None, ap, num_packets, rng=rng, profile=profile, **kwargs)
    want = reference_generate_trace(sim, ap, num_packets, reference_rng, profile, **kwargs)
    assert _frame_bits(got) == _frame_bits(want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.fixture(scope="module")
def office():
    testbed = office_testbed()
    sim = testbed.simulator()
    links = [(target, ap) for target in testbed.targets[::7] for ap in testbed.aps[::3]]
    return sim, [(ap, sim.profile(target.position, ap)) for target, ap in links]


@pytest.mark.parametrize("factory", [office_testbed, small_testbed], ids=["office", "small"])
def test_testbed_links_match_reference(factory):
    testbed = factory()
    sim = testbed.simulator()
    for t, target in enumerate(testbed.targets):
        for a, ap in enumerate(testbed.aps):
            profile = sim.profile(target.position, ap)
            assert_matches_reference(sim, ap, 10, 100 * t + a, profile, source=target.label)


@pytest.mark.parametrize(
    "simulator, impairments",
    [
        pytest.param({}, vars(ideal_impairments()), id="ideal"),
        pytest.param({}, {**vars(ideal_impairments()), "snr_db": 20.0}, id="ideal-with-noise"),
        pytest.param({}, {"quantizer": None}, id="no-quantizer"),
        pytest.param({"rssi_jitter_db": 0.0}, {}, id="no-rssi-jitter"),
        pytest.param({}, {"sto_jitter_s": 0.0}, id="no-sto-jitter"),
        pytest.param({}, {"random_cfo_phase": False}, id="no-cfo"),
        pytest.param({}, {"sto_jitter_s": 0.0, "snr_jitter_db": 0.0}, id="no-jitter"),
        pytest.param({"fading_std_db": 2.0}, {}, id="amplitude-fading"),
        pytest.param({"fading_phase_std_rad": 0.3}, {}, id="phase-fading"),
        pytest.param({"fading_std_db": 1.0, "fading_phase_std_rad": 0.2}, {}, id="fading"),
    ],
)
def test_model_settings_match_reference(office, simulator, impairments):
    sim, links = office
    sim = replace(sim, impairments=replace(sim.impairments, **impairments), **simulator)
    for seed, (ap, profile) in enumerate(links):
        assert_matches_reference(sim, ap, 12, seed, profile)


@pytest.mark.parametrize("fading", [False, True], ids=["frozen", "faded"])
def test_chain_offsets_match_reference(office, fading):
    sim, links = office
    sim = replace(sim, fading_std_db=1.5 if fading else 0.0)
    for seed, (ap, profile) in enumerate(links):
        chain = ChainOffsets.random(ap.num_antennas, np.random.default_rng(seed))
        assert_matches_reference(sim, ap, 8, seed, profile, chain=chain)


@pytest.mark.parametrize("num_packets", [1, 500])
def test_packet_counts_match_reference(office, num_packets):
    sim, links = office
    ap, profile = links[0]
    assert_matches_reference(sim, ap, num_packets, 5, profile, packet_interval_s=0.03)
    faded = replace(sim, fading_std_db=1.0, fading_phase_std_rad=0.1)
    assert_matches_reference(faded, ap, num_packets, 6, profile)


# Gains at the edge of underflow: |CSI|^2 rounds to zero for some packets
# and not for others, so a packet's noise draw depends on its own STO, CFO
# and fading draws.  Zero and subnormal gains never draw noise.
@pytest.mark.parametrize("scale", [2e-162, 1e-162, 1e-320, 0.0])
@pytest.mark.parametrize("fading_db", [0.0, 3.0], ids=["frozen", "faded"])
def test_vanishing_gains_match_reference(scale, fading_db):
    testbed = small_testbed()
    sim = testbed.simulator(fading_std_db=fading_db)
    profile = MultipathProfile(
        [
            PropagationPath(20.0, 30e-9, scale * (0.6 + 0.8j)),
            PropagationPath(-35.0, 45e-9, scale * (0.3 - 0.2j)),
        ]
    )
    with np.errstate(over="ignore"):
        assert_matches_reference(sim, testbed.aps[0], 40, 3, profile)
