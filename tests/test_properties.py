"""Property-based tests (hypothesis) for the core invariants.

These check the algebraic claims the design rests on, over randomized
inputs rather than hand-picked examples:

* Eq. 7 factorization: a(theta, tau) = phi (x) omega.
* Fig. 4 smoothing: rank of the smoothed matrix == number of paths.
* Algorithm 1: sanitized CSI is invariant to the packet's STO.
* Packet stacks: a packet's estimates do not depend on its stack.
* MUSIC: noise subspace orthogonal to true steering vectors; the
  signal/noise complement identity.
* Quantization: bounded error, scale invariance.
* Trace synthesis: a shorter trace is a prefix of a longer one.
* Geometry: mirroring is an involution; wrap_deg stays in range.
* CDF: monotone, quantile within sample range.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.esprit import EspritEstimator
from repro.core.estimator import JointEstimator
from repro.core.music import covariance, noise_subspace, subspaces
from repro.core.sanitize import sanitize_csi
from repro.core.smoothing import PAPER_CONFIG, smooth_csi
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.eval.metrics import Cdf
from repro.geom.points import Point, wrap_deg
from repro.geom.segments import Segment
from repro.testbed.layout import small_testbed
from repro.wifi.quantization import QuantizationModel

MODEL = SteeringModel(3, 30, 0.029, 5.19e9, 1.25e6)

aoa_st = st.floats(min_value=-85.0, max_value=85.0)
tof_st = st.floats(min_value=0.0, max_value=350e-9)
gain_st = st.tuples(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=-3.1, max_value=3.1),
).map(lambda t: t[0] * np.exp(1j * t[1]))


def ideal_csi(aoas, tofs, gains):
    a = MODEL.steering_matrix(list(aoas), list(tofs))
    return (a @ np.asarray(gains, dtype=complex)).reshape(3, 30)


class TestSteeringProperties:
    @given(aoa=aoa_st, tof=tof_st)
    @settings(max_examples=50, deadline=None)
    def test_kronecker_factorization(self, aoa, tof):
        a = MODEL.steering_vector(aoa, tof)
        expected = np.kron(MODEL.antenna_vector(aoa), MODEL.subcarrier_vector(tof))
        assert np.allclose(a, expected)

    @given(aoa=aoa_st, tof=tof_st)
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, aoa, tof):
        a = MODEL.steering_vector(aoa, tof)
        assert np.allclose(np.abs(a), 1.0)


class TestSmoothingProperties:
    @given(
        params=st.lists(
            st.tuples(aoa_st, tof_st, gain_st), min_size=1, max_size=5, unique_by=lambda t: round(t[0])
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_rank_at_most_path_count(self, params):
        aoas = [p[0] for p in params]
        tofs = [p[1] for p in params]
        gains = [p[2] for p in params]
        x = smooth_csi(ideal_csi(aoas, tofs, gains), PAPER_CONFIG)
        s = np.linalg.svd(x, compute_uv=False)
        rank = int(np.sum(s > s[0] * 1e-8))
        assert rank <= len(params)

    @given(
        params=st.lists(
            st.tuples(aoa_st, tof_st, gain_st),
            min_size=2,
            max_size=4,
            unique_by=lambda t: (round(t[0] / 15), round(t[1] / 60e-9)),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_noise_subspace_orthogonal_to_truth(self, params):
        aoas = [p[0] for p in params]
        tofs = [p[1] for p in params]
        gains = [p[2] for p in params]
        # A path far weaker than the strongest falls below the eigenvalue
        # threshold by design (it is treated as noise); the orthogonality
        # property is claimed only for paths the threshold keeps.
        mags = [abs(g) for g in gains]
        assume(min(mags) >= 0.2 * max(mags))
        # ...and only for paths the array can resolve:
        # (a) arrivals closer than ~a resolution cell in both axes merge
        #     (AoA resolution lives in sin-space: it collapses at endfire);
        # (b) the 2-antenna subarray spans only a 2-dim AoA space, so at
        #     most two paths may share a ToF bin, whatever their AoAs.
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                # For same-ToF pairs only the 2-element Phi factor
                # discriminates, and it is periodic in sin(theta) with
                # period 2 (half-wavelength spacing): separations near 0
                # *or* near 2 are both degenerate.
                sin_sep = abs(
                    np.sin(np.deg2rad(aoas[i])) - np.sin(np.deg2rad(aoas[j]))
                )
                assume(
                    0.35 <= sin_sep <= 1.65 or abs(tofs[i] - tofs[j]) >= 80e-9
                )
        sorted_tofs = sorted(tofs)
        for i in range(len(sorted_tofs) - 2):
            assume(sorted_tofs[i + 2] - sorted_tofs[i] >= 80e-9)
        x = smooth_csi(ideal_csi(aoas, tofs, gains), PAPER_CONFIG)
        e_n, _ = noise_subspace(covariance(x))
        sub = MODEL.subarray_model(2, 15)
        for aoa, tof in zip(aoas, tofs):
            a = sub.steering_vector(aoa, tof)
            proj = np.linalg.norm(e_n.conj().T @ a) / np.linalg.norm(a)
            assert proj < 1e-4


class TestMusicProperties:
    @given(
        params=st.lists(st.tuples(aoa_st, tof_st, gain_st), min_size=1, max_size=5),
        aoa=aoa_st,
        tof=tof_st,
    )
    @settings(max_examples=40, deadline=None)
    def test_signal_noise_complement(self, params, aoa, tof):
        # ||E_N^H a||^2 = ||a||^2 - ||E_S^H a||^2: E_S and E_N together
        # form an orthonormal basis, whatever split the threshold picks.
        aoas, tofs, gains = zip(*params)
        x = smooth_csi(ideal_csi(aoas, tofs, gains), PAPER_CONFIG)
        e_s, e_n, _ = subspaces(covariance(x))
        a = MODEL.subarray_model(2, 15).steering_vector(aoa, tof)
        noise = np.linalg.norm(e_n.conj().T @ a) ** 2
        signal = np.linalg.norm(e_s.conj().T @ a) ** 2
        assert noise == pytest.approx(np.linalg.norm(a) ** 2 - signal, abs=1e-9)


class TestSanitizeProperties:
    # Unwrapping requires the per-subcarrier phase step to stay below pi:
    # (tof + sto) < 1 / (2 f_delta) = 400 ns.  Indoor ToF spreads are
    # < 200 ns and STOs tens of ns, so the operating regime is well inside;
    # the strategy bounds keep the property in that regime.
    @given(
        params=st.lists(
            st.tuples(aoa_st, st.floats(min_value=0.0, max_value=150e-9), gain_st),
            min_size=1,
            max_size=4,
        ),
        sto1=st.floats(min_value=0.0, max_value=100e-9),
        sto2=st.floats(min_value=0.0, max_value=100e-9),
    )
    @settings(max_examples=25, deadline=None)
    def test_sto_invariance(self, params, sto1, sto2):
        csi = ideal_csi([p[0] for p in params], [p[1] for p in params], [p[2] for p in params])
        n = np.arange(30)

        def with_sto(sto):
            return csi * np.exp(-2j * np.pi * 1.25e6 * n * sto)[None, :]

        def unwrap_valid(x):
            # Algorithm 1's validity condition: unwrapping is branch-safe
            # when every inter-subcarrier phase step plus the largest STO
            # ramp increment (<= 0.79 rad at 100 ns) stays below pi, i.e.
            # principal steps below ~2.2 rad.  Met in the paper's regime
            # (indoor delay spreads + tens-of-ns STOs).
            steps = np.angle(x[:, 1:] * np.conj(x[:, :-1]))
            return np.max(np.abs(steps)) < 2.2

        in1, in2 = with_sto(sto1), with_sto(sto2)
        assume(unwrap_valid(in1) and unwrap_valid(in2))
        out1 = sanitize_csi(in1)
        out2 = sanitize_csi(in2)
        assert np.allclose(out1, out2, atol=1e-7)

    @given(sto=st.floats(min_value=0.0, max_value=400e-9))
    @settings(max_examples=25, deadline=None)
    def test_magnitude_preserved(self, sto):
        csi = ideal_csi([20.0, -40.0], [30e-9, 120e-9], [1.0, 0.6j])
        n = np.arange(30)
        shifted = csi * np.exp(-2j * np.pi * 1.25e6 * n * sto)[None, :]
        assert np.allclose(np.abs(sanitize_csi(shifted)), np.abs(csi))


class TestPacketStackProperties:
    """The per-AP stack kernel is exact: a packet's estimates do not
    depend on which other packets share its stack."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_packets=st.integers(min_value=1, max_value=6),
        estimator_class=st.sampled_from([JointEstimator, EspritEstimator]),
        zero_packet=st.integers(min_value=-1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_stacked_equals_per_packet(
        self, seed, num_packets, estimator_class, zero_packet
    ):
        rng = np.random.default_rng(seed)
        paths = rng.integers(1, 4)
        csi = [
            ideal_csi(
                rng.uniform(-80.0, 80.0, paths),
                rng.uniform(0.0, 300e-9, paths),
                rng.normal(size=paths) + 1j * rng.normal(size=paths),
            )
            + 0.05 * (rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30)))
            for _ in range(num_packets)
        ]
        if zero_packet < num_packets:
            csi[zero_packet] = np.zeros((3, 30), complex)
        estimator = estimator_class(model=MODEL)
        stacked = estimator.estimate_stack(csi, first_index=3)
        for k, matrix in enumerate(csi):
            try:
                expected = estimator.estimate_packet(matrix, packet_index=3 + k)
            except EstimationError as exc:
                assert isinstance(stacked[k], EstimationError)
                assert str(stacked[k]) == str(exc)
            else:
                assert stacked[k] == expected


class TestQuantizationProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=4,
            max_size=64,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_error_bounded(self, data):
        arr = np.array([complex(r, i) for r, i in data]).reshape(1, -1)
        arr = np.vstack([arr, arr])  # satisfy the 2-antenna minimum
        q = QuantizationModel()
        out = q.quantize(arr)
        peak = max(np.abs(arr.real).max(), np.abs(arr.imag).max())
        if peak == 0:
            assert np.array_equal(out, arr)
        else:
            step = peak / (q.max_level * q.headroom)
            assert np.abs((out - arr).real).max() <= step / 2 + 1e-9
            assert np.abs((out - arr).imag).max() <= step / 2 + 1e-9


class TestTraceSynthesisProperties:
    @pytest.fixture(scope="class")
    def link(self):
        testbed = small_testbed()
        ap = testbed.aps[1]
        sim = testbed.simulator()
        return sim, ap, sim.profile(testbed.targets[2].position, ap)

    @given(
        num_packets=st.integers(min_value=1, max_value=30),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fading_db=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_trace_prefix(self, link, num_packets, data, seed, fading_db):
        """The first k frames of a K-packet trace are the k-packet trace."""
        sim, ap, profile = link
        sim = replace(sim, fading_std_db=fading_db)
        prefix = data.draw(st.integers(min_value=1, max_value=num_packets))
        full = sim.generate_trace(None, ap, num_packets, rng=np.random.default_rng(seed), profile=profile)
        short = sim.generate_trace(None, ap, prefix, rng=np.random.default_rng(seed), profile=profile)
        assert len(short) == prefix
        for got, want in zip(full, short):
            assert got.csi.tobytes() == want.csi.tobytes()
            assert (got.rssi_dbm, got.timestamp_s) == (want.rssi_dbm, want.timestamp_s)


class TestGeometryProperties:
    segment_st = st.tuples(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    ).filter(lambda t: abs(t[0] - t[2]) + abs(t[1] - t[3]) > 1e-3)

    point_st = st.tuples(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )

    @given(seg=segment_st, p=point_st)
    @settings(max_examples=50, deadline=None)
    def test_mirror_involution(self, seg, p):
        wall = Segment(Point(seg[0], seg[1]), Point(seg[2], seg[3]))
        point = Point(*p)
        back = wall.mirror(wall.mirror(point))
        assert back.distance_to(point) < 1e-6

    @given(seg=segment_st, p=point_st)
    @settings(max_examples=50, deadline=None)
    def test_mirror_preserves_distance_to_line(self, seg, p):
        wall = Segment(Point(seg[0], seg[1]), Point(seg[2], seg[3]))
        point = Point(*p)
        mirrored = wall.mirror(point)
        # Both are equidistant from any point on the wall's line.
        for t in (0.0, 0.5, 1.0):
            ref = wall.point_at(t)
            assert ref.distance_to(point) == pytest.approx(
                ref.distance_to(mirrored), abs=1e-6
            )

    @given(angle=st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_wrap_deg_in_range(self, angle):
        wrapped = wrap_deg(angle)
        assert -180.0 <= wrapped < 180.0
        # Wrapping preserves the angle modulo 360.
        assert abs((angle - wrapped) % 360.0) < 1e-6 or abs(
            (angle - wrapped) % 360.0 - 360.0
        ) < 1e-6


class TestEspritProperties:
    @given(
        params=st.lists(
            st.tuples(
                st.floats(min_value=-70.0, max_value=70.0),
                st.floats(min_value=0.0, max_value=250e-9),
                gain_st,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_clean_recovery(self, params):
        from repro.core.esprit import EspritEstimator

        aoas = [p[0] for p in params]
        tofs = [p[1] for p in params]
        gains = [p[2] for p in params]
        # ESPRIT's automatic pairing diagonalizes the ToF operator and
        # reads the AoA operator in its eigenbasis — which requires the
        # ToF eigenvalues Omega(tau_k) to be *distinct*.  Two paths at the
        # same delay defeat it regardless of angular separation (a real
        # limitation vs the spectral search), so the validity condition
        # here is simply pairwise ToF separation, plus comparable powers.
        mags = [abs(g) for g in gains]
        assume(min(mags) >= 0.3 * max(mags))
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                assume(abs(tofs[i] - tofs[j]) >= 60e-9)

        estimator = EspritEstimator(model=MODEL, sanitize=False)
        estimates = estimator.estimate_packet(ideal_csi(aoas, tofs, gains))
        assert len(estimates) >= len(params)
        for aoa in aoas:
            best = min(abs(e.aoa_deg - aoa) for e in estimates)
            assert best < 1.0


class TestLocalizationProperties:
    target_st = st.tuples(
        st.floats(min_value=1.0, max_value=19.0),
        st.floats(min_value=1.0, max_value=11.0),
    )

    @given(target=target_st, aoa_only=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_perfect_observations_recovered(self, target, aoa_only):
        from repro.channel.pathloss import LogDistancePathLoss
        from repro.core.localization import ApObservation, Localizer
        from repro.wifi.arrays import UniformLinearArray

        aps = [
            UniformLinearArray(3, position=(0.5, 6.0), normal_deg=0.0),
            UniformLinearArray(3, position=(19.5, 6.0), normal_deg=180.0),
            UniformLinearArray(3, position=(10.0, 0.5), normal_deg=90.0),
        ]
        # Degenerate geometry (target at an AP) is excluded by the bounds.
        model = LogDistancePathLoss(p0_dbm=-40.0, exponent=2.5)
        obs = [
            ApObservation(
                array=ap,
                aoa_deg=ap.aoa_to(target),
                rssi_dbm=float(model.rssi_dbm(ap.distance_to(target))),
            )
            for ap in aps
        ]
        localizer = Localizer(bounds=(0.0, 0.0, 20.0, 12.0))
        result = localizer.locate_aoa_only(obs) if aoa_only else localizer.locate(obs)
        assert result.error_to(target) < 0.01


class TestCdfProperties:
    samples_st = st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100
    )

    @given(samples=samples_st)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_monotone(self, samples):
        cdf = Cdf.of(samples)
        qs = np.linspace(0, 1, 11)
        vals = [cdf.quantile(float(q)) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(samples=samples_st)
    @settings(max_examples=50, deadline=None)
    def test_quantile_within_range(self, samples):
        cdf = Cdf.of(samples)
        assert min(samples) <= cdf.median <= max(samples)

    @given(samples=samples_st, x=st.floats(min_value=-10, max_value=110))
    @settings(max_examples=50, deadline=None)
    def test_at_is_probability(self, samples, x):
        cdf = Cdf.of(samples)
        assert 0.0 <= cdf.at(x) <= 1.0
