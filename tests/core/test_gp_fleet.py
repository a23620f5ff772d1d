"""GPFleet identity and error-path tests.

The GP counterpart of ``test_random_forest_fleet``: every batched fleet
operation — stacked full refits, concatenated factor extensions, fused
posterior prediction — must leave each member **bitwise identical** to the
solo :class:`~repro.core.surrogate.gaussian_process.GaussianProcessSurrogate`
method, and a rejected batch (bad shapes, NaNs, refresh-due members) must not
corrupt any member's cached Cholesky factor.
"""

import numpy as np
import pytest

from oracles import FullRefitGP
from repro.core.surrogate import GaussianProcessSurrogate, GPFleet, gp_fleet_key

D = 5


def make_data(key, n, d=D):
    rng = np.random.default_rng(10_000 + key)
    X = rng.random((n, d))
    y = np.sin(X @ rng.random(d)) + 0.1 * rng.random(n)
    return X, y


def make_pair(count, ns, fit=True):
    """Matched (solo, fleet) member lists fitted on identical data."""
    solo = [GaussianProcessSurrogate() for _ in range(count)]
    fleet = [GaussianProcessSurrogate() for _ in range(count)]
    sets = [make_data(k, n) for k, n in enumerate(ns)]
    if fit:
        for a, b, (X, y) in zip(solo, fleet, sets):
            a.fit(X, y)
            b.fit(X, y)
    return solo, fleet, sets


def assert_members_identical(solo, fleet, num_queries=17):
    Xq = np.random.default_rng(999).random((num_queries, D))
    for k, (a, b) in enumerate(zip(solo, fleet)):
        assert a._n == b._n, f"member {k}: training size"
        assert a._noise_used == b._noise_used, f"member {k}: noise"
        assert a._signal_var == b._signal_var, f"member {k}: signal"
        assert a.num_full_fits == b.num_full_fits, f"member {k}: full fits"
        assert a.num_partial_fits == b.num_partial_fits, f"member {k}: partial fits"
        assert np.array_equal(
            a._L_buf[: a._n, : a._n], b._L_buf[: b._n, : b._n]
        ), f"member {k}: factor"
        ma, sa = a.predict(Xq)
        mb, sb = b.predict(Xq)
        assert np.array_equal(ma, mb), f"member {k}: posterior mean"
        assert np.array_equal(sa, sb), f"member {k}: posterior std"


class TestFleetFullFit:
    def test_batched_full_fit_bitwise_identical(self):
        solo, fleet, sets = make_pair(5, [40] * 5, fit=False)
        for gp, (X, y) in zip(solo, sets):
            gp.fit(X, y)
        GPFleet(fleet).fit([X for X, _ in sets], [y for _, y in sets])
        assert_members_identical(solo, fleet)

    def test_heterogeneous_hyperparameter_flags(self):
        """Members may mix auto/fixed hyperparameters and normalisation."""
        variants = [
            dict(),
            dict(auto_hyperparameters=False),
            dict(normalize_y=False),
            dict(noise=1e-3, length_scale=0.5),
        ]
        solo = [GaussianProcessSurrogate(**kw) for kw in variants]
        fleet = [GaussianProcessSurrogate(**kw) for kw in variants]
        sets = [make_data(k, 32) for k in range(len(variants))]
        for gp, (X, y) in zip(solo, sets):
            gp.fit(X, y)
        GPFleet(fleet).fit([X for X, _ in sets], [y for _, y in sets])
        assert_members_identical(solo, fleet)

    def test_unequal_training_shapes_rejected_without_mutation(self):
        _, fleet, _ = make_pair(2, [30, 30])
        before = [gp._L_buf[: gp._n, : gp._n].copy() for gp in fleet]
        X1, y1 = make_data(7, 30)
        X2, y2 = make_data(8, 31)
        with pytest.raises(ValueError, match="equal-shape"):
            GPFleet(fleet).fit([X1, X2], [y1, y2])
        for gp, L in zip(fleet, before):
            assert np.array_equal(gp._L_buf[: gp._n, : gp._n], L)

    def test_single_member_fleet_is_the_solo_fit(self):
        solo, fleet, sets = make_pair(1, [24], fit=False)
        solo[0].fit(*sets[0])
        GPFleet(fleet).fit([sets[0][0]], [sets[0][1]])
        assert_members_identical(solo, fleet)


class TestFleetExtension:
    def test_ragged_extension_bitwise_identical(self):
        """History sizes differ per member — the norm for GP campaigns."""
        ns = [30, 45, 52, 30, 61]
        solo, fleet, _ = make_pair(5, ns)
        for round_idx in range(5):
            new = [make_data(100 + k + 10 * round_idx, 1) for k in range(5)]
            for gp, (X, y) in zip(solo, new):
                gp.partial_fit(X, y)
            GPFleet(fleet).partial_fit([X for X, _ in new], [y for _, y in new])
        assert_members_identical(solo, fleet)

    def test_multi_row_updates_bitwise_identical(self):
        solo, fleet, _ = make_pair(3, [40, 55, 47])
        new = [make_data(200 + k, 3) for k in range(3)]
        for gp, (X, y) in zip(solo, new):
            gp.partial_fit(X, y)
        GPFleet(fleet).partial_fit([X for X, _ in new], [y for _, y in new])
        assert_members_identical(solo, fleet)

    def test_refresh_due_member_rejected_without_mutation(self):
        _, fleet, _ = make_pair(2, [20, 20])
        state = [gp._L_buf[: gp._n, : gp._n].copy() for gp in fleet]
        # 20 rows at refresh_growth=1.25 refresh at ≥ 25: an 8-row update
        # crosses the boundary and must be refused by the extension.
        X1, y1 = make_data(31, 8)
        X2, y2 = make_data(32, 8)
        with pytest.raises(ValueError, match="refresh"):
            GPFleet(fleet).partial_fit([X1, X2], [y1, y2])
        for gp, L in zip(fleet, state):
            assert np.array_equal(gp._L_buf[: gp._n, : gp._n], L)
            assert gp.num_partial_fits == 0

    def test_unequal_update_shapes_rejected(self):
        _, fleet, _ = make_pair(2, [30, 30])
        with pytest.raises(ValueError, match="equal update shapes"):
            GPFleet(fleet).partial_fit(
                [make_data(1, 1)[0], make_data(2, 2)[0]],
                [make_data(1, 1)[1], make_data(2, 2)[1]],
            )

    def test_unfitted_member_rejected(self):
        fitted = GaussianProcessSurrogate()
        fitted.fit(*make_data(0, 20))
        with pytest.raises(RuntimeError, match="fitted"):
            GPFleet([fitted, GaussianProcessSurrogate()]).partial_fit(
                [make_data(1, 1)[0]] * 2, [make_data(1, 1)[1]] * 2
            )


class TestFleetPredict:
    def test_ragged_training_sizes_fused_prediction(self):
        ns = [25, 40, 33, 58]
        solo, fleet, _ = make_pair(4, ns)
        pools = [make_data(300 + k, 23)[0] for k in range(4)]
        fused = GPFleet(fleet).predict(pools)
        for gp, X, (mean, std) in zip(solo, pools, fused):
            m_ref, s_ref = gp.predict(X)
            assert np.array_equal(mean, m_ref)
            assert np.array_equal(std, s_ref)

    def test_unequal_candidate_counts_rejected(self):
        _, fleet, _ = make_pair(2, [30, 30])
        with pytest.raises(ValueError, match="candidate counts"):
            GPFleet(fleet).predict([make_data(1, 8)[0], make_data(2, 9)[0]])

    def test_feature_width_mismatch_rejected(self):
        _, fleet, _ = make_pair(2, [30, 30])
        with pytest.raises(ValueError, match="features"):
            GPFleet(fleet).predict([np.zeros((4, D + 1))] * 2)


class TestFleetConstruction:
    def test_duplicate_member_rejected(self):
        gp = GaussianProcessSurrogate()
        with pytest.raises(ValueError, match="once"):
            GPFleet([gp, gp])

    def test_non_gp_member_rejected(self):
        with pytest.raises(TypeError):
            GPFleet([GaussianProcessSurrogate(), object()])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            GPFleet([])


class TestFleetKey:
    def test_modes(self):
        gp = GaussianProcessSurrogate()
        assert gp_fleet_key(gp, 20, 20, D)[0] == "full"  # unfitted
        gp.fit(*make_data(0, 20))
        assert gp_fleet_key(gp, 22, 2, D) == ("extend", D, 2)
        assert gp_fleet_key(gp, 40, 20, D) == ("full", D, 40)  # past refresh
        frozen = FullRefitGP()
        frozen.fit(*make_data(1, 20))
        assert gp_fleet_key(frozen, 22, 2, D)[0] == "full"

    def test_extend_keys_ignore_history_size(self):
        """Ragged histories share one extension group."""
        a = GaussianProcessSurrogate()
        b = GaussianProcessSurrogate()
        a.fit(*make_data(0, 30))
        b.fit(*make_data(1, 47))
        assert gp_fleet_key(a, 31, 1, D) == gp_fleet_key(b, 48, 1, D)

    def test_full_keys_ignore_hyperparameter_flags(self):
        """Refining and fixed-hyperparameter members share one full refit
        (``GPFleet.fit`` handles the mix, see
        ``test_heterogeneous_hyperparameter_flags``)."""
        a = GaussianProcessSurrogate()
        b = GaussianProcessSurrogate(auto_hyperparameters=False)
        a.fit(*make_data(0, 20))
        b.fit(*make_data(1, 20))
        assert gp_fleet_key(a, 40, 20, D) == gp_fleet_key(b, 40, 20, D)

    def test_factor_state_mismatch_gets_singleton_key(self):
        gp = GaussianProcessSurrogate()
        gp.fit(*make_data(0, 20))
        # Claiming 23 fitted rows (≠ the factor's 20) must not be groupable.
        assert gp_fleet_key(gp, 24, 1, D)[0] == "solo"
        # Same past the refresh boundary: the solo path would full-refit on
        # the member's own stored rows plus the update, not on all claimed
        # rows, so a desynced member is never "full"-groupable either.
        assert gp_fleet_key(gp, 30, 7, D)[0] == "solo"
        # A synced member past the boundary stays a groupable full refit.
        assert gp_fleet_key(gp, 30, 10, D) == ("full", D, 30)


class TestPartialFitValidation:
    """A rejected update must never corrupt the cached Cholesky factor."""

    def snapshot(self, gp, Xq):
        return gp.predict(Xq), gp._n, gp._L_buf[: gp._n, : gp._n].copy()

    def assert_unchanged(self, gp, Xq, snap):
        (mean, std), n, L = snap
        assert gp._n == n
        assert np.array_equal(gp._L_buf[: gp._n, : gp._n], L)
        m2, s2 = gp.predict(Xq)
        assert np.array_equal(mean, m2)
        assert np.array_equal(std, s2)

    def test_nan_rows_raise_and_preserve_state(self):
        gp = GaussianProcessSurrogate()
        gp.fit(*make_data(0, 25))
        Xq = np.random.default_rng(1).random((6, D))
        snap = self.snapshot(gp, Xq)
        bad = make_data(1, 2)[0]
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gp.partial_fit(bad, [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            gp.partial_fit(make_data(2, 2)[0], [1.0, np.nan])
        self.assert_unchanged(gp, Xq, snap)
        # The factor still extends correctly after the rejected updates.
        X_new, y_new = make_data(3, 1)
        gp.partial_fit(X_new, y_new)
        assert gp.num_partial_fits == 1

    def test_width_mismatch_raises_and_preserves_state(self):
        gp = GaussianProcessSurrogate()
        gp.fit(*make_data(0, 25))
        Xq = np.random.default_rng(2).random((6, D))
        snap = self.snapshot(gp, Xq)
        with pytest.raises(ValueError, match="features"):
            gp.partial_fit(np.zeros((2, D + 3)), [1.0, 2.0])
        self.assert_unchanged(gp, Xq, snap)

    def test_length_mismatch_raises(self):
        gp = GaussianProcessSurrogate()
        gp.fit(*make_data(0, 25))
        with pytest.raises(ValueError, match="inconsistent"):
            gp.partial_fit(make_data(1, 3)[0], [1.0, 2.0])

    def test_fleet_rejects_bad_member_without_touching_any(self):
        """Fleet validation completes before any member is mutated."""
        _, fleet, _ = make_pair(3, [30, 41, 35])
        Xq = np.random.default_rng(3).random((6, D))
        snaps = [self.snapshot(gp, Xq) for gp in fleet]
        updates = [make_data(400 + k, 1) for k in range(3)]
        bad_X = updates[2][0].copy()
        bad_X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GPFleet(fleet).partial_fit(
                [updates[0][0], updates[1][0], bad_X],
                [updates[0][1], updates[1][1], updates[2][1]],
            )
        for gp, snap in zip(fleet, snaps):
            self.assert_unchanged(gp, Xq, snap)
            assert gp.num_partial_fits == 0
