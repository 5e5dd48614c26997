"""Tests for the Eq. 9 localization solver."""

from dataclasses import replace

import numpy as np
import pytest
from reference import reference_nelder_mead_locate, reference_objective

from repro.channel.pathloss import LogDistancePathLoss
from repro.core.indexcache import ap_grid_geometry, cell_centres
from repro.core.localization import ApObservation, Localizer, _centre_angle
from repro.errors import LocalizationError
from repro.testbed.layout import office_testbed
from repro.wifi.arrays import UniformLinearArray

BOUNDS = (0.0, 0.0, 20.0, 12.0)
TRUTH_MODEL = LogDistancePathLoss(p0_dbm=-38.0, exponent=2.8)


def make_aps():
    return [
        UniformLinearArray(3, position=(0.5, 6.0), normal_deg=0.0),
        UniformLinearArray(3, position=(19.5, 6.0), normal_deg=180.0),
        UniformLinearArray(3, position=(10.0, 0.5), normal_deg=90.0),
        UniformLinearArray(3, position=(10.0, 11.5), normal_deg=-90.0),
    ]


def perfect_observations(target, aps=None, likelihood=1.0):
    aps = aps or make_aps()
    return [
        ApObservation(
            array=ap,
            aoa_deg=ap.aoa_to(target),
            rssi_dbm=float(TRUTH_MODEL.rssi_dbm(ap.distance_to(target))),
            likelihood=likelihood,
        )
        for ap in aps
    ]


class TestPerfectObservations:
    @pytest.mark.parametrize("target", [(5.0, 4.0), (12.0, 8.0), (15.5, 3.3)])
    def test_exact_recovery(self, target):
        localizer = Localizer(bounds=BOUNDS)
        result = localizer.locate(perfect_observations(target))
        assert result.error_to(target) < 0.05

    def test_residuals_near_zero(self):
        target = (7.0, 5.0)
        result = Localizer(bounds=BOUNDS).locate(perfect_observations(target))
        assert max(abs(r) for r in result.aoa_residuals_deg) < 0.5
        finite = [r for r in result.rssi_residuals_db if np.isfinite(r)]
        assert max(abs(r) for r in finite) < 0.5

    def test_path_loss_recovered(self):
        target = (7.0, 5.0)
        result = Localizer(bounds=BOUNDS).locate(perfect_observations(target))
        assert result.path_loss.exponent == pytest.approx(2.8, abs=0.1)

    def test_two_aps_suffice_with_aoa(self):
        target = (8.0, 4.0)
        obs = perfect_observations(target)[:2]
        result = Localizer(bounds=BOUNDS).locate(obs)
        assert result.error_to(target) < 0.2

    def test_aoa_only_mode(self):
        target = (6.0, 7.0)
        localizer = Localizer(bounds=BOUNDS)
        result = localizer.locate_aoa_only(perfect_observations(target))
        assert result.error_to(target) < 0.1
        # locate_aoa_only must restore the RSSI weight.
        assert localizer.rssi_weight > 0

    def test_aoa_only_leaves_the_instance_untouched(self, monkeypatch):
        localizer = Localizer(bounds=BOUNDS, rssi_weight=2.5)
        before = replace(localizer)
        seen = []
        real_locate = Localizer.locate

        def spy(self, observations):
            seen.append((self is localizer, localizer.rssi_weight, self.rssi_weight))
            return real_locate(self, observations)

        monkeypatch.setattr(Localizer, "locate", spy)
        localizer.locate_aoa_only(perfect_observations((6.0, 7.0)))
        # The solve ran on a copy with the RSSI term off: a thread sharing
        # the caller's instance never sees its weight at 0.
        assert seen == [(False, 2.5, 0.0)]
        assert localizer == before


class TestWeighting:
    def test_bad_ap_downweighted(self):
        target = (9.0, 6.0)
        obs = perfect_observations(target, likelihood=3.0)
        # Corrupt one AP's AoA badly but give it a tiny likelihood.
        bad = obs[0]
        obs[0] = ApObservation(
            array=bad.array,
            aoa_deg=bad.aoa_deg + 50.0,
            rssi_dbm=bad.rssi_dbm,
            likelihood=0.01,
        )
        weighted = Localizer(bounds=BOUNDS).locate(obs)
        unweighted = Localizer(bounds=BOUNDS, use_likelihood_weights=False).locate(obs)
        assert weighted.error_to(target) < unweighted.error_to(target)
        assert weighted.error_to(target) < 0.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_likelihood_gets_zero_weight(self, bad):
        # max(nan, 0.0) is nan: every grid value used to be nan, argmin
        # returned cell 0 and the fix was the (0.125, 0.125) corner.
        target = (9.0, 6.0)
        obs = perfect_observations(target)
        obs[0] = replace(obs[0], likelihood=bad, aoa_deg=obs[0].aoa_deg + 30.0)
        localizer = Localizer(bounds=BOUNDS)
        assert localizer._weights(obs)[0] == 0.0
        result = localizer.locate(obs)
        assert np.isfinite(result.objective)
        assert result.error_to(target) < 0.05

    def test_non_finite_objective_raises(self):
        # The two APs with an RSSI both weigh 0, so the (P0, gamma) fit
        # divides 0 by 0 at every cell: no cell is a minimum.
        obs = perfect_observations((9.0, 6.0))[:3]
        obs[0] = replace(obs[0], likelihood=0.0)
        obs[1] = replace(obs[1], likelihood=0.0)
        obs[2] = replace(obs[2], rssi_dbm=float("nan"))
        with np.errstate(invalid="ignore"), pytest.raises(
            LocalizationError, match="not finite"
        ):
            Localizer(bounds=BOUNDS).locate(obs)

    def test_zero_likelihoods_fall_back_to_uniform(self):
        target = (9.0, 6.0)
        obs = perfect_observations(target, likelihood=0.0)
        result = Localizer(bounds=BOUNDS).locate(obs)
        assert result.error_to(target) < 0.2


class TestRobustness:
    def test_noisy_observations(self, rng):
        target = (11.0, 7.0)
        obs = []
        for o in perfect_observations(target):
            obs.append(
                ApObservation(
                    array=o.array,
                    aoa_deg=o.aoa_deg + rng.normal(0, 2.0),
                    rssi_dbm=o.rssi_dbm + rng.normal(0, 2.0),
                    likelihood=1.0,
                )
            )
        result = Localizer(bounds=BOUNDS).locate(obs)
        assert result.error_to(target) < 1.5

    def test_nan_aoa_observations_skipped(self):
        target = (8.0, 4.0)
        obs = perfect_observations(target)
        obs.append(
            ApObservation(
                array=UniformLinearArray(3, position=(1.0, 1.0)),
                aoa_deg=float("nan"),
                rssi_dbm=-50.0,
            )
        )
        result = Localizer(bounds=BOUNDS).locate(obs)
        assert result.error_to(target) < 0.1

    def test_missing_rssi_still_locates_by_aoa(self):
        target = (8.0, 4.0)
        obs = [
            ApObservation(array=o.array, aoa_deg=o.aoa_deg, rssi_dbm=float("nan"))
            for o in perfect_observations(target)
        ]
        result = Localizer(bounds=BOUNDS).locate(obs)
        assert result.error_to(target) < 0.1

    def test_too_few_observations(self):
        obs = perfect_observations((8.0, 4.0))[:1]
        with pytest.raises(LocalizationError):
            Localizer(bounds=BOUNDS).locate(obs)

    def test_solution_clamped_to_bounds(self):
        # Observations pointing at a target outside the search region must
        # still produce an in-bounds answer.
        outside = (25.0, 6.0)
        obs = perfect_observations(outside)[:2]
        result = Localizer(bounds=BOUNDS).locate(obs)
        x0, y0, x1, y1 = BOUNDS
        assert x0 <= result.position.x <= x1
        assert y0 <= result.position.y <= y1


class TestCorridorGeometry:
    """Nearly-collinear APs — the paper's Sec. 4.3.3 failure geometry."""

    def _corridor_aps(self):
        # Three APs along one wall of a corridor, all looking across it.
        return [
            UniformLinearArray(3, position=(2.0, 11.8), normal_deg=-90.0),
            UniformLinearArray(3, position=(10.0, 11.8), normal_deg=-90.0),
            UniformLinearArray(3, position=(18.0, 11.8), normal_deg=-90.0),
        ]

    def test_aoa_plus_rssi_localizes_along_corridor(self):
        target = (14.0, 11.0)
        model = TRUTH_MODEL
        obs = [
            ApObservation(
                array=ap,
                aoa_deg=ap.aoa_to(target),
                rssi_dbm=float(model.rssi_dbm(ap.distance_to(target))),
            )
            for ap in self._corridor_aps()
        ]
        result = Localizer(bounds=(0.0, 10.0, 20.0, 12.0)).locate(obs)
        assert result.error_to(target) < 0.3

    def test_noisy_aoa_hurts_more_in_corridors(self, rng):
        # The same AoA noise produces a larger positional error with the
        # corridor's correlated vantage points than with surrounding APs
        # — quantifying why Fig. 7(c) is worse than Fig. 7(a).
        target_corridor = (14.0, 11.0)
        corridor_errors, surround_errors = [], []
        for trial in range(10):
            noise = rng.normal(0, 3.0, size=4)
            obs_c = [
                ApObservation(
                    array=ap,
                    aoa_deg=ap.aoa_to(target_corridor) + noise[i],
                    rssi_dbm=float("nan"),
                )
                for i, ap in enumerate(self._corridor_aps())
            ]
            corridor_errors.append(
                Localizer(bounds=(0.0, 10.0, 20.0, 12.0))
                .locate(obs_c)
                .error_to(target_corridor)
            )
            target_surrounded = (10.0, 6.0)
            obs_s = [
                ApObservation(
                    array=ap,
                    aoa_deg=ap.aoa_to(target_surrounded) + noise[i],
                    rssi_dbm=float("nan"),
                )
                for i, ap in enumerate(make_aps())
            ]
            surround_errors.append(
                Localizer(bounds=BOUNDS).locate(obs_s).error_to(target_surrounded)
            )
        assert np.median(corridor_errors) > np.median(surround_errors)


class TestValidation:
    def test_empty_bounds_rejected(self):
        with pytest.raises(LocalizationError):
            Localizer(bounds=(5.0, 0.0, 5.0, 10.0))

    def test_bad_grid_step_rejected(self):
        with pytest.raises(LocalizationError):
            Localizer(bounds=BOUNDS, grid_step_m=0.0)

    def test_grid_step_larger_than_bounds_rejected(self):
        # Used to build an empty grid, on which argmin raised ValueError.
        with pytest.raises(LocalizationError, match="larger than the bounds"):
            Localizer(bounds=(0.0, 0.0, 1.0, 1.0), grid_step_m=2.5)

    @pytest.mark.parametrize("min_aps", [0, -1])
    def test_min_aps_below_one_rejected(self, min_aps):
        # Used to let locate([]) fail with IndexError.
        with pytest.raises(LocalizationError, match="min_aps"):
            Localizer(bounds=BOUNDS, min_aps=min_aps)

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, 0.0, float("inf"), 12.0), (float("nan"), 0.0, 20.0, 12.0)],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(LocalizationError, match="non-finite"):
            Localizer(bounds=bounds)

    def test_no_refine_still_coarse_locates(self):
        target = (8.0, 4.0)
        result = Localizer(bounds=BOUNDS, refine=False).locate(
            perfect_observations(target)
        )
        assert result.error_to(target) < 0.5


OFFICE = office_testbed()

#: Localizer settings and observation kind of each solver mode: the
#: SpotFi fix (likelihood-weighted AoA + RSSI), the same without the
#: likelihoods, the ``tof`` tier (RSSI only) and ArrayTrack (AoA only).
MODES = {
    "spotfi": (dict(), "aoa+rssi"),
    "aoa+rssi": (dict(use_likelihood_weights=False), "aoa+rssi"),
    "rssi": (dict(aoa_weight=0.0, rssi_weight=1.0, use_likelihood_weights=False), "rssi"),
    "aoa": (dict(use_likelihood_weights=False, rssi_weight=0.0), "aoa"),
}


def office_sets(mode, seed, count=12):
    """Seeded noisy observation sets of 2-9 office APs for one solver mode.

    Targets lie at least 1 m from every AP: at an AP position the
    predicted AoA takes every value, so the AoA term has a singular
    spike there that a simplex can fall into and no grid resolves.
    """
    settings, kind = MODES[mode]
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = OFFICE.bounds
    sets = []
    while len(sets) < count:
        k = int(rng.integers(2, 10))
        aps = [OFFICE.aps[i] for i in rng.choice(len(OFFICE.aps), size=k, replace=False)]
        target = (rng.uniform(x0 + 0.5, x1 - 0.5), rng.uniform(y0 + 0.5, y1 - 0.5))
        if min(ap.distance_to(target) for ap in aps) < 1.0:
            continue
        obs = [
            ApObservation(
                array=ap,
                aoa_deg=0.0 if kind == "rssi" else ap.aoa_to(target) + rng.normal(0, 5.0),
                rssi_dbm=float("nan")
                if kind == "aoa"
                else float(TRUTH_MODEL.rssi_dbm(ap.distance_to(target)) + rng.normal(0, 3.0)),
                likelihood=float(rng.uniform(0.1, 2.0)),
            )
            for ap in aps
        ]
        sets.append(obs)
    return Localizer(bounds=OFFICE.bounds, **settings), sets


def _near_an_ap(point, obs, tol=0.5):
    return min(np.hypot(*(np.asarray(o.array.position) - point)) for o in obs) < tol


class TestAgainstNelderMead:
    """The nested-grid solve against the Nelder-Mead oracle it replaces."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_objective_and_position_match_oracle(self, mode, seed):
        localizer, sets = office_sets(mode, seed)
        aoa_on = MODES[mode][1] != "rssi"
        lo, hi = np.array(OFFICE.bounds[:2]), np.array(OFFICE.bounds[2:])
        for obs in sets:
            result = localizer.locate(obs)
            solution, objective, unclipped = reference_nelder_mead_locate(localizer, obs)
            if aoa_on and _near_an_ap(solution, obs):
                # Within ~0.5 m of an AP its predicted AoA turns faster than
                # the 5 cm first refinement step resolves; the oracle's
                # optimum there (or on the AP itself) is out of scope.
                continue
            assert result.objective <= objective * (1 + 1e-4) + 1e-6
            inside = np.all(unclipped > lo) and np.all(unclipped < hi)
            if aoa_on and inside:
                assert result.error_to(tuple(solution)) < 0.01

    def test_in_bounds_search_beats_clip_after_optimize(self):
        # Both bearings meet at (14, 12.6), outside the 12 m top wall, and
        # the valley between them runs diagonally: clipping the unconstrained
        # optimum onto y = 12 lands beside the valley floor on that wall.
        target = (14.0, 12.6)
        aps = [
            UniformLinearArray(3, position=(2.0, 6.0), normal_deg=0.0),
            UniformLinearArray(3, position=(19.5, 2.0), normal_deg=180.0),
        ]
        obs = perfect_observations(target, aps=aps)
        localizer = Localizer(bounds=BOUNDS)
        clipped, clipped_objective, unclipped = reference_nelder_mead_locate(localizer, obs)
        assert unclipped[1] > BOUNDS[3]  # the oracle's optimum is outside
        result = localizer.locate(obs)
        x0, y0, x1, y1 = BOUNDS
        assert x0 <= result.position.x <= x1 and y0 <= result.position.y <= y1
        # At the clipped point itself the old solver's answer: strictly
        # better means the search really is in-bounds, not clip-after.
        assert result.objective < clipped_objective

    def test_out_of_range_measured_aoa_is_wrapped(self):
        target = (7.0, 5.0)
        obs = perfect_observations(target)
        turned = [replace(o, aoa_deg=o.aoa_deg + 360.0 * (-1) ** i) for i, o in enumerate(obs)]
        localizer = Localizer(bounds=BOUNDS)
        a, b = localizer.locate(obs), localizer.locate(turned)
        assert b.error_to(a.position) < 1e-6
        assert b.objective == pytest.approx(a.objective, abs=1e-9)


class TestCachedGrid:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_grid_values_bit_identical_to_reference(self, mode):
        localizer, sets = office_sets(mode, seed=2, count=6)
        cells = localizer._grid_points()
        # 9 APs too: numpy sums 8 or more columns pairwise, so a layout
        # change would show there first.
        for obs in sets + [office_sets(mode, seed=3, count=1)[1][0] + sets[0]]:
            obs = obs[:9]
            fix = localizer._fix(obs)
            cached = localizer._grid_values(fix)
            assert np.array_equal(cached, localizer._objective_batch(cells, fix))
            reference = reference_objective(localizer, cells, obs, localizer._weights(obs))
            assert np.array_equal(cached, reference)

    def test_angle_wrap_matches_np_mod(self):
        t = np.array(
            [-360.0, -180.0, -1e-17, -0.0, 0.0, 1e-17, 179.5, 359.99999999999994]
            + [360.0, 540.0, 719.9]
        )
        assert np.array_equal(_centre_angle(t.copy()), t % 360.0 - 180.0)

    def test_cached_arrays_are_read_only(self):
        bounds, step = (0.0, 0.0, 20.0, 12.0), 0.25
        cells = cell_centres(bounds, step)
        x, pred_aoa = ap_grid_geometry(bounds, step, (0.5, 6.0), 0.0)
        assert cells.shape == (80 * 48, 2)
        assert x.shape == pred_aoa.shape == (len(cells),)
        for array in (cells, x, pred_aoa):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert ap_grid_geometry(bounds, step, (0.5, 6.0), 0.0)[0] is x
