"""Gaussian-process surrogate (the "GP" model of Fig. 4 and GPtune's model).

A standard GP regressor with an anisotropic RBF kernel plus white noise,
implemented on NumPy's Cholesky and thin LAPACK solve wrappers.
Hyperparameters are set by a
light-weight heuristic (median-distance length scales, signal variance from
the data variance) with an optional marginal-likelihood grid refinement —
enough to be a competent surrogate while keeping the implementation
self-contained.

The important property for the reproduction is the :math:`O(n^3)` update cost:
the asynchronous search charges this cost to the manager (see
:mod:`repro.core.overhead`), which is what collapses worker utilisation for GP
in Fig. 4 (d)/(f).

Two fit paths are provided:

* :meth:`GaussianProcessSurrogate.fit` — the full reference fit: choose
  hyperparameters from the data, build the kernel, factorise from scratch.
* :meth:`GaussianProcessSurrogate.partial_fit` — the incremental hot path
  used by the optimizer's ``tell``: new observations extend the existing
  Cholesky factor by rank-1 block updates (:math:`O(n^2)` per batch instead
  of :math:`O(n^3)`), with hyperparameters frozen between scheduled full
  refreshes.  Between refreshes the extended factor equals the full
  factorisation of the same kernel up to floating-point rounding, so
  posteriors match the reference fit to far better than ``1e-8``; a refresh
  (triggered once the history grows by ``refresh_growth``) re-runs the full
  reference fit so hyperparameters keep tracking the data.

Both paths also come in a *fleet* form: :class:`GPFleet` advances K member
GPs at once — stacked ``(K, n, n)`` kernel matrices, one batched
``np.linalg.cholesky`` per full refit, one batched factor extension per
``partial_fit`` round, and one batched cross-kernel per posterior
prediction.  Every batched operation is chosen so its per-member slice is
**bitwise identical** to the solo method on the same member (stacked
elementwise ops, per-slice BLAS contractions, batched LAPACK ``potrf``; the
remaining per-member triangular solves call the very same LAPACK wrappers), so
a fleet of campaigns proposes exactly what the campaigns would propose one by
one.  Fleets require equal member shapes — ragged fleets (the norm for GPs,
whose training sets grow per campaign) are grouped by :func:`gp_fleet_key`
and fall back to solo fits where shapes cannot align.  Padding was measured
and rejected: BLAS results on this hardware are not bitwise stable under
zero-padding, which would silently void the identity guarantee.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

from repro.core.arrays import grow_buffer
from repro.core.surrogate.base import Surrogate

__all__ = ["GaussianProcessSurrogate", "GPFleet", "gp_fleet_key"]


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between scaled rows of A and B."""
    As = A / length_scales
    Bs = B / length_scales
    a2 = np.sum(As**2, axis=1)[:, None]
    b2 = np.sum(Bs**2, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * As @ Bs.T
    return np.maximum(d2, 0.0)


def _batched_sq_dists(
    A: np.ndarray, B: np.ndarray, length_scales: np.ndarray
) -> np.ndarray:
    """Per-member scaled squared distances, ``(K, a, b)``.

    The stacked form of :func:`_pairwise_sq_dists` over ``(K, a, d)`` /
    ``(K, b, d)`` row stacks with per-member length scales ``(K, d)``.  Every
    operation is elementwise, a contiguous-axis row reduction, or a per-slice
    BLAS contraction, so each member's slice is bitwise identical to the 2-D
    function on that member's matrices — the property the fleet identity
    guarantee rests on.
    """
    As = A / length_scales[:, None, :]
    Bs = B / length_scales[:, None, :]
    a2 = np.sum(As**2, axis=2)[:, :, None]
    b2 = np.sum(Bs**2, axis=2)[:, None, :]
    d2 = a2 + b2 - 2.0 * As @ Bs.transpose(0, 2, 1)
    return np.maximum(d2, 0.0)


def _cho_solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((L, True), b)`` through the raw LAPACK ``potrs`` wrapper.

    Bitwise identical to SciPy's ``cho_solve`` (measured — both dispatch the
    same ``dpotrs`` with the same flags) but without its per-call validation
    overhead, which at fleet scale is a measurable share of every tick.
    """
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrs failed with info={info}")
    return x


def _solve_lower_triangular(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``solve_triangular(L, B, lower=True)`` through raw LAPACK ``trtrs``.

    Bitwise identical to the SciPy wrapper (measured), minus its per-call
    validation overhead.
    """
    x, info = dtrtrs(L, B, lower=1, trans=0, unitdiag=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
    return x


#: The (noise, signal-variance) grid the marginal-likelihood refinement
#: scans, in scan order.  One definition shared by the solo fit and the
#: batched fleet fit so their selections can never drift apart.
_HYPERPARAMETER_GRID = tuple(
    (noise, signal)
    for noise in (1e-6, 1e-4, 1e-2, 1e-1)
    for signal in (0.5, 1.0, 2.0)
)


def _cholesky_with_jitter(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``K``, retrying once with a jittered diagonal.

    Mutates ``K`` in place on the retry (callers treat it as scratch).
    """
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        K[np.diag_indices_from(K)] += 1e-6
        return np.linalg.cholesky(K)


def _batched_cholesky_each(K_stack: np.ndarray) -> List[Optional[np.ndarray]]:
    """Per-slice lower Cholesky factors of a ``(K, n, n)`` stack.

    One batched ``np.linalg.cholesky`` in the common all-definite case; the
    batched gufunc fails as a whole when *any* slice is indefinite, so on
    failure every slice is redone solo (same LAPACK kernel, so the definite
    slices lose nothing) and the indefinite ones come back as ``None`` for
    the caller to skip or repair.
    """
    try:
        return list(np.linalg.cholesky(K_stack))
    except np.linalg.LinAlgError:
        factors: List[Optional[np.ndarray]] = []
        for i in range(K_stack.shape[0]):
            try:
                factors.append(np.linalg.cholesky(K_stack[i]))
            except np.linalg.LinAlgError:
                factors.append(None)
        return factors


def _log_marginal_likelihood(L: np.ndarray, y_n: np.ndarray) -> float:
    """Gaussian log marginal likelihood from a kernel's lower factor."""
    alpha = _cho_solve_lower(L, y_n)
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    n = y_n.shape[0]
    return -0.5 * float(y_n @ alpha) - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi)


class GaussianProcessSurrogate(Surrogate):
    """GP regression with an RBF kernel and white noise.

    Parameters
    ----------
    noise:
        Observation noise variance added to the kernel diagonal.
    length_scale:
        Initial isotropic length scale; refined from the data when
        ``auto_hyperparameters`` is True.
    auto_hyperparameters:
        Whether to set length scales from the median pairwise distance and
        refine the noise/signal amplitude on a small grid by marginal
        likelihood.
    normalize_y:
        Whether to centre/scale the targets before fitting.
    refresh_growth:
        Hyperparameter-refresh schedule of the incremental path: a full
        reference fit (recomputing length scales and the noise/signal grid) is
        triggered whenever the training set has grown by this factor since the
        last full fit.  Between refreshes hyperparameters are frozen, which is
        what makes the rank-1 update exact.
    """

    #: :meth:`partial_fit` extends the Cholesky factor by rank-1 block updates.
    supports_partial_fit = True

    def __init__(
        self,
        noise: float = 1e-4,
        length_scale: float = 1.0,
        auto_hyperparameters: bool = True,
        normalize_y: bool = True,
        refresh_growth: float = 1.25,
    ):
        if noise <= 0:
            raise ValueError("noise must be positive")
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        if refresh_growth <= 1.0:
            raise ValueError("refresh_growth must be > 1")
        self.noise = float(noise)
        self.length_scale = float(length_scale)
        self.auto_hyperparameters = bool(auto_hyperparameters)
        self.normalize_y = bool(normalize_y)
        self.refresh_growth = float(refresh_growth)
        self.fitted = False
        self._X: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._cho = None
        self._length_scales: Optional[np.ndarray] = None
        self._signal_var = 1.0
        self._y_mean = 0.0
        self._y_std = 1.0
        self._noise_used = self.noise
        # Incremental state: training rows/targets and the lower Cholesky
        # factor live in capacity-doubling buffers so a partial_fit extends
        # them in place instead of refactorising from scratch.
        self._n = 0
        self._X_buf = np.empty((0, 0), dtype=float)
        self._y_raw_buf = np.empty(0, dtype=float)
        self._L_buf = np.zeros((0, 0), dtype=float)
        self._n_last_full = 0
        self.num_full_fits = 0
        self.num_partial_fits = 0

    # --------------------------------------------------------------- plumbing
    @property
    def training_size(self) -> int:
        """Number of training rows the cached factor currently covers."""
        return self._n

    def _ensure_capacity(self, n: int, d: int) -> None:
        """Grow the X/y/L buffers to hold ``n`` rows of dimension ``d``."""
        if self._X_buf.shape[1] != d:
            self._X_buf = np.empty((0, d), dtype=float)
            self._y_raw_buf = np.empty(0, dtype=float)
            self._L_buf = np.zeros((0, 0), dtype=float)
            self._n = 0
        if n <= self._X_buf.shape[0]:
            return
        self._X_buf = grow_buffer(self._X_buf, n)
        self._y_raw_buf = grow_buffer(self._y_raw_buf, n)
        # The square factor buffer needs bespoke growth: zero-initialised so
        # the never-written upper triangle stays finite (SciPy's solvers
        # validate the whole array), matching the X buffer's capacity.
        capacity = self._X_buf.shape[0]
        L_grown = np.zeros((capacity, capacity), dtype=float)
        L_grown[: self._n, : self._n] = self._L_buf[: self._n, : self._n]
        self._L_buf = L_grown

    @staticmethod
    def _target_stats(y: np.ndarray, normalize: bool) -> Tuple[float, float]:
        """The (mean, std) normalisation statistics of a target vector.

        Pure — shared by :meth:`_normalize_targets` and the fleet's staged
        commit, so the statistic the bit-identity guarantee depends on has
        exactly one definition.
        """
        if normalize:
            return float(np.mean(y)), float(np.std(y)) or 1.0
        return 0.0, 1.0

    def _normalize_targets(self, y: np.ndarray) -> np.ndarray:
        self._y_mean, self._y_std = self._target_stats(y, self.normalize_y)
        return (y - self._y_mean) / self._y_std

    # -------------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessSurrogate":
        """Full reference fit: hyperparameters from the data, fresh factor."""
        X, y = self._validate(X, y)
        n, d = X.shape
        y_n = self._normalize_targets(y)

        self._length_scales = self._choose_length_scales(X)
        self._signal_var = 1.0
        noise = self.noise
        E = None
        if self.auto_hyperparameters and n >= 8:
            # The unit-signal kernel exp(-0.5·D²) is shared by every grid
            # combination and the final factorisation — computed once.
            E = np.exp(-0.5 * _pairwise_sq_dists(X, X, self._length_scales))
            noise, self._signal_var = self._refine_hyperparameters(E, y_n)
        self._noise_used = noise

        self._store_training_set(X, y)
        self._factorize_full(y_n, E=E)
        self._n_last_full = n
        self.num_full_fits += 1
        self.fitted = True
        return self

    def _store_training_set(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        self._n = 0  # a full fit replaces the stored rows
        self._ensure_capacity(n, d)
        self._X_buf[:n] = X
        self._y_raw_buf[:n] = y
        self._n = n
        self._X = self._X_buf[:n]

    def _factorize_full(self, y_n: np.ndarray, E: Optional[np.ndarray] = None) -> None:
        """Factorise the kernel of the stored rows with current hyperparameters.

        ``E`` optionally passes in the precomputed unit-signal kernel
        ``exp(-0.5·D²)`` of the stored rows (:meth:`fit` shares it with the
        hyperparameter grid; recomputing it yields the same bits).  Uses
        ``np.linalg.cholesky`` — the same LAPACK kernel the batched
        :class:`GPFleet` stack factorisation dispatches per slice, so a solo
        fit and a fleet fit of the same member produce the same factor bits.
        """
        n = self._n
        if E is None:
            X = self._X_buf[:n]
            E = np.exp(-0.5 * _pairwise_sq_dists(X, X, self._length_scales))
        K = self._signal_var * E
        K[np.diag_indices_from(K)] += self._noise_used
        self._L_buf[:n, :n] = _cholesky_with_jitter(K)
        self._cho = (self._L_buf[:n, :n], True)
        self._alpha = _cho_solve_lower(self._cho[0], y_n)

    # ---------------------------------------------------------- partial fit
    def partial_fit_plan(self, total_rows: int) -> str:
        """Which path :meth:`partial_fit` takes at this total training size.

        Returns ``"extend"`` (rank-1/block factor extension with frozen
        hyperparameters) or ``"full"`` (fall back to the reference
        :meth:`fit`, refreshing hyperparameters).  The decision — including
        the ``total >= refresh_growth * n_last_full`` refresh boundary — is
        the single source of truth shared by :meth:`partial_fit` and external
        fleet drivers (:func:`gp_fleet_key`), so grouping members for a
        batched pass can never disagree with what each member would do solo.
        """
        if not self.fitted:
            return "full"
        if total_rows >= self.refresh_growth * self._n_last_full:
            return "full"
        return "extend"

    def _validate_update(
        self, X_new: np.ndarray, y_new: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate a pending :meth:`partial_fit` batch *before* any mutation.

        Raises on non-finite values, row/target length mismatches and — when
        the model is already fitted — a feature width differing from the
        training set's.  Nothing is written until every check passes, so a
        rejected update can never corrupt the cached Cholesky factor: the
        model keeps answering predictions exactly as before the call
        (regression-tested, solo and fleet).
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        X_new, y_new = self._validate(X_new, y_new)
        if self.fitted and X_new.shape[1] != self._X_buf.shape[1]:
            raise ValueError(
                f"expected {self._X_buf.shape[1]} features, got {X_new.shape[1]}"
            )
        return X_new, y_new

    def partial_fit(self, X_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcessSurrogate":
        """Incorporate new observations without refactorising from scratch.

        Extends the lower Cholesky factor ``L`` of the kernel matrix by the
        block-update

        .. math::

            L' = \\begin{pmatrix} L & 0 \\\\ B^T & L_S \\end{pmatrix},
            \\quad B = L^{-1} K_{12},
            \\quad L_S L_S^T = K_{22} - B^T B,

        which costs :math:`O(n^2 m)` for ``m`` new rows instead of the
        :math:`O((n+m)^3)` full refit, then recomputes the target
        normalisation and ``alpha`` in :math:`O(n^2)`.  Hyperparameters stay
        frozen; once the training set has grown by ``refresh_growth`` since
        the last full fit (or the Schur complement loses positive
        definiteness) the method falls back to :meth:`fit`, which refreshes
        them.
        """
        X_new, y_new = self._validate_update(X_new, y_new)
        if not self.fitted:
            return self.fit(X_new, y_new)
        n, m = self._n, X_new.shape[0]
        d = self._X_buf.shape[1]
        total = n + m

        if self.partial_fit_plan(total) == "full":
            X_all = np.vstack([self._X_buf[:n], X_new])
            y_all = np.concatenate([self._y_raw_buf[:n], y_new])
            return self.fit(X_all, y_all)

        self._ensure_capacity(total, d)
        X_old = self._X_buf[:n]
        K12 = self._signal_var * np.exp(
            -0.5 * _pairwise_sq_dists(X_old, X_new, self._length_scales)
        )
        K22 = self._signal_var * np.exp(
            -0.5 * _pairwise_sq_dists(X_new, X_new, self._length_scales)
        )
        K22[np.diag_indices_from(K22)] += self._noise_used
        L = self._L_buf[:n, :n]
        B = _solve_lower_triangular(L, K12)
        S = K22 - B.T @ B
        try:
            L_S = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            # Numerically losing positive definiteness means the factor has
            # drifted too far — refactorise (and refresh hyperparameters).
            X_all = np.vstack([X_old, X_new])
            y_all = np.concatenate([self._y_raw_buf[:n], y_new])
            return self.fit(X_all, y_all)

        self._L_buf[n:total, :n] = B.T
        self._L_buf[n:total, n:total] = L_S
        self._X_buf[n:total] = X_new
        self._y_raw_buf[n:total] = y_new
        self._n = total
        self._X = self._X_buf[:total]
        y_n = self._normalize_targets(self._y_raw_buf[:total])
        self._cho = (self._L_buf[:total, :total], True)
        self._alpha = _cho_solve_lower(self._cho[0], y_n)
        self.num_partial_fits += 1
        return self

    def _choose_length_scales(self, X: np.ndarray) -> np.ndarray:
        """Median-heuristic anisotropic length scales.

        The quartiles of all columns come from one columnar ``np.percentile``
        call (bitwise identical to per-column calls — the interpolation is
        per column either way); the standard deviations stay per column, whose
        strided axis-0 reduction would accumulate in a different order.
        """
        d = X.shape[1]
        scales = np.empty(d)
        quartiles = np.percentile(X, [75, 25], axis=0)
        for j in range(d):
            spread = quartiles[0, j] - quartiles[1, j]
            scales[j] = max(spread, np.std(X[:, j]), 1e-3) * self.length_scale
        return scales

    def _refine_hyperparameters(self, E: np.ndarray, y_n: np.ndarray) -> Tuple[float, float]:
        """Small grid search over noise and signal variance by log marginal likelihood.

        ``E`` is the unit-signal kernel ``exp(-0.5·D²)`` of the training
        rows, shared by all combinations (the old code re-exponentiated it
        per combination).  The combinations factorise one by one: stacking
        them into a ``(12, n, n)`` batched Cholesky was measured *slower*
        (and 12× the peak memory) at realistic training sizes — batching
        pays across fleet members, not across a solo fit's grid.
        """
        best = (self.noise, 1.0)
        best_lml = -np.inf
        diag = np.arange(E.shape[0])
        for noise, signal in _HYPERPARAMETER_GRID:
            K = signal * E
            K[diag, diag] += noise
            try:
                L = np.linalg.cholesky(K)
            except np.linalg.LinAlgError:
                continue
            lml = _log_marginal_likelihood(L, y_n)
            if lml > best_lml:
                best_lml = lml
                best = (noise, signal)
        return best

    # ---------------------------------------------------------------- predict
    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not self.fitted:
            raise RuntimeError("the GP has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = self._signal_var * np.exp(
            -0.5 * _pairwise_sq_dists(X, self._X, self._length_scales)
        )
        mean_n = Ks @ self._alpha
        # Posterior variance through the half-solve norm form
        # signal − ‖L⁻¹·Ksᵀ‖²: one triangular solve instead of the full
        # K⁻¹ back-substitution — half the flops of the ks·K⁻¹·ks quadratic
        # form, the same value to rounding, and non-negative by construction.
        B = _solve_lower_triangular(self._cho[0], Ks.T)
        var_n = self._signal_var - np.sum(B * B, axis=0)
        var_n = np.maximum(var_n, 1e-12)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var_n) * self._y_std
        return mean, std


# --------------------------------------------------------------------- fleet
def gp_fleet_key(
    model: GaussianProcessSurrogate, num_rows: int, num_new: int, num_features: int
) -> Tuple:
    """The shape/mode signature a batched GP fit requires its members to share.

    ``num_rows`` is the member's total training-set size after the pending
    update and ``num_new`` the rows appended since its last fit.  Members
    mapping to the same key can advance as one :class:`GPFleet` pass: either
    one batched factor extension (``("extend", d, m)`` — history sizes may be
    ragged, the extension works on concatenated rows) or one batched full
    refit (``("full", d, n)``, which stacks kernels and therefore needs equal
    totals).  Full refits of unequal sizes — common, since each member
    follows its own ``refresh_growth`` schedule — group apart and fall back
    to solo fits, never to padding (BLAS is not bitwise padding-stable, which
    would break the fleet identity guarantee).

    A member whose cached factor does not cover exactly the already-fitted
    rows (``model._n != num_rows - num_new``) gets a per-model singleton key:
    only the solo path reproduces whatever that state would do.
    """
    num_old = num_rows - num_new
    if model.supports_partial_fit and model.fitted and 0 < num_old < num_rows:
        # The solo driver (``fit_now``) routes this member through
        # ``partial_fit``, whose outcome — extend, or full refit on the
        # *member's stored rows* plus the update — depends on the cached
        # factor covering exactly the already-fitted rows.  A desynced
        # factor is only reproducible solo, whatever the plan says.
        if model._n != num_old:
            return ("solo", id(model))
        if model.partial_fit_plan(num_rows) == "extend":
            return ("extend", num_features, num_new)
    return ("full", num_features, num_rows)


class GPFleet:
    """Several independent Gaussian processes advanced in one batched pass.

    The GP counterpart of
    :func:`~repro.core.surrogate.random_forest.fit_forest_fleet` and
    :class:`~repro.core.vae.tvae.VAEFleet`: K member GPs — typically the
    surrogates of K concurrent campaigns — share each tick's NumPy pass
    overhead by stacking their kernel matrices ``(K, n, n)`` and running one
    batched ``np.linalg.cholesky`` (full refits and marginal-likelihood grid
    scans), one batched factor extension (``partial_fit``), and one batched
    cross-kernel construction (``predict``).

    Every member ends up **bitwise identical** to calling the corresponding
    solo :class:`GaussianProcessSurrogate` method on its own: the batched
    operations are elementwise ops, contiguous-axis reductions, per-slice
    BLAS contractions and batched LAPACK ``potrf`` — all of which reproduce
    the 2-D results slice by slice — and the remaining per-member triangular
    solves call the identical SciPy routines.  Members must share shapes
    (training-set sizes, update sizes, candidate counts); group ragged
    fleets with :func:`gp_fleet_key` and fall back to solo calls where
    shapes cannot align.  Hyperparameters may differ freely between members
    (each keeps its own length scales, noise and signal variance).
    """

    def __init__(self, members: Sequence[GaussianProcessSurrogate]):
        members = list(members)
        if not members:
            raise ValueError("need at least one fleet member")
        for member in members:
            if not isinstance(member, GaussianProcessSurrogate):
                raise TypeError(
                    f"fleet members must be GaussianProcessSurrogate, got {type(member).__name__}"
                )
        if len({id(member) for member in members}) != len(members):
            raise ValueError("each GP may appear only once per fleet")
        self.members = members

    # ------------------------------------------------------------------- fit
    def fit(self, Xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> "GPFleet":
        """Batched full reference fit of every member.

        Mirrors :meth:`GaussianProcessSurrogate.fit` per member — target
        normalisation, median-heuristic length scales, the marginal-likelihood
        (noise, signal) grid when a member has ``auto_hyperparameters`` and at
        least 8 rows, and the final factorisation — with the O(n³) work (the
        grid's and the final pass's Cholesky factorisations) batched across
        the fleet.  Training sets must share one ``(n, d)`` shape.  All math
        is staged into locals and committed to the members only once every
        factor exists, so a failure (bad shapes, or one member's kernel
        staying indefinite even after the jitter retry) never leaves any
        member — failing or sibling — half-updated.
        """
        members = self.members
        if len(Xs) != len(members) or len(ys) != len(members):
            raise ValueError("need exactly one (X, y) pair per fleet member")
        pairs = [
            member._validate(X, y) for member, X, y in zip(members, Xs, ys)
        ]
        shapes = {pair[0].shape for pair in pairs}
        if len(shapes) != 1:
            raise ValueError(
                f"fleet full fits require equal-shape training sets, got {sorted(shapes)}"
            )
        if len(members) == 1:
            members[0].fit(*pairs[0])
            return self
        n, _ = pairs[0][0].shape
        diag = np.arange(n)

        # Staged normalisation — the same arithmetic _normalize_targets runs,
        # without touching member state yet.
        y_stats = []
        y_norm = []
        for member, (_, y) in zip(members, pairs):
            mean, std = member._target_stats(y, member.normalize_y)
            y_stats.append((mean, std))
            y_norm.append((y - mean) / std)
        scale_list = [
            member._choose_length_scales(X) for member, (X, _) in zip(members, pairs)
        ]
        length_scales = np.stack(scale_list)
        X_stack = np.stack([X for X, _ in pairs])
        # The unit-signal kernel stack exp(-0.5·D²) is shared by every grid
        # combination and the final factorisation — computed once per fit,
        # exactly like the solo path.
        E = np.exp(-0.5 * _batched_sq_dists(X_stack, X_stack, length_scales))

        noises = np.array([member.noise for member in members])
        signals = np.ones(len(members))
        refine = [
            k
            for k, member in enumerate(members)
            if member.auto_hyperparameters and n >= 8
        ]
        if refine:
            # Avoid a full-stack copy in the common all-members-refine case.
            E_refine = E if len(refine) == len(members) else E[refine]
            best = {k: (members[k].noise, 1.0) for k in refine}
            best_lml = {k: -np.inf for k in refine}
            for noise, signal in _HYPERPARAMETER_GRID:
                K_stack = signal * E_refine
                K_stack[:, diag, diag] += noise
                # Indefinite combinations are skipped per member, exactly
                # like the solo grid scan does.
                L_stack = _batched_cholesky_each(K_stack)
                for i, k in enumerate(refine):
                    if L_stack[i] is None:
                        continue
                    lml = _log_marginal_likelihood(L_stack[i], y_norm[k])
                    if lml > best_lml[k]:
                        best_lml[k] = lml
                        best[k] = (noise, signal)
            for k in refine:
                noises[k], signals[k] = best[k]

        K_stack = signals[:, None, None] * E
        K_stack[:, diag, diag] += noises[:, None]
        # One bad member must not sink the fleet: indefinite slices get the
        # solo path's jitter fallback, the healthy ones keep their batched
        # (bitwise-equal) factors.  A jitter failure raises here, before any
        # member has been written.
        L_each = _batched_cholesky_each(K_stack)
        factors = [
            L if L is not None else _cholesky_with_jitter(K_stack[k])
            for k, L in enumerate(L_each)
        ]
        alphas = [_cho_solve_lower(factors[k], y_norm[k]) for k in range(len(members))]

        # ---- commit: every factor exists, write the members in one sweep.
        for k, member in enumerate(members):
            member._y_mean, member._y_std = y_stats[k]
            member._length_scales = scale_list[k]
            member._signal_var = float(signals[k])
            member._noise_used = float(noises[k])
            member._store_training_set(*pairs[k])
            member._L_buf[:n, :n] = factors[k]
            member._cho = (member._L_buf[:n, :n], True)
            member._alpha = alphas[k]
            member._n_last_full = n
            member.num_full_fits += 1
            member.fitted = True
        return self

    # ----------------------------------------------------------- partial fit
    def partial_fit(
        self, X_news: Sequence[np.ndarray], y_news: Sequence[np.ndarray]
    ) -> "GPFleet":
        """Batched rank-1/block factor extension of every member.

        Mirrors :meth:`GaussianProcessSurrogate.partial_fit`'s extension
        branch per member: the cross- and new-block kernels are built as one
        ``(K, n, m)`` / ``(K, m, m)`` stack and the Schur complements are
        factorised by one batched ``np.linalg.cholesky``; the per-member
        ``B = L⁻¹·K₁₂`` triangular solves and ``alpha`` recomputations call
        the same LAPACK wrappers the solo path calls.  Members must be
        fitted, share one update shape ``(m, d)`` and not be due
        a hyperparameter refresh (group with :func:`gp_fleet_key`) — their
        training-set sizes may differ freely: the cross-kernel is built on
        the *concatenated* old rows (row-local scaling/reductions and
        per-member cross contractions reproduce each member's solo bits
        regardless of its neighbours), which is what keeps ragged fleets —
        the norm for GP campaigns — fully fused.  Validation completes for
        every member before any member is mutated, so a rejected batch never
        corrupts a cached factor.  If any member's Schur complement loses
        positive definiteness the whole group falls back to solo
        ``partial_fit`` calls — bitwise identical for the healthy members, a
        hyperparameter-refreshing full refit for the failing ones, exactly
        as solo.
        """
        members = self.members
        if len(X_news) != len(members) or len(y_news) != len(members):
            raise ValueError("need exactly one (X_new, y_new) pair per fleet member")
        prepared: List[Tuple[np.ndarray, np.ndarray]] = []
        for member, X_new, y_new in zip(members, X_news, y_news):
            if not member.fitted:
                raise RuntimeError(
                    "fleet extension requires fitted members — use GPFleet.fit"
                )
            X_new, y_new = member._validate_update(X_new, y_new)
            if member.partial_fit_plan(member._n + X_new.shape[0]) != "extend":
                raise ValueError(
                    "fleet member is due a hyperparameter refresh — use GPFleet.fit"
                )
            prepared.append((X_new, y_new))
        shapes = {X_new.shape for X_new, _ in prepared}
        if len(shapes) != 1:
            raise ValueError(
                f"fleet extensions require equal update shapes, got {sorted(shapes)}"
            )
        if len(members) == 1:
            members[0].partial_fit(*prepared[0])
            return self
        m, d = shapes.pop()
        ns = [member._n for member in members]
        diag = np.arange(m)

        for member, n in zip(members, ns):
            member._ensure_capacity(n + m, d)
        length_scales = np.stack([member._length_scales for member in members])
        signals = np.array([member._signal_var for member in members])
        noises = np.array([member._noise_used for member in members])

        # Cross-kernel K₁₂ on the concatenated old rows.  Row scaling, row
        # square-sums and the final elementwise assembly reproduce each
        # member's solo bits row by row; only the cross contraction
        # ``As @ Bsᵀ`` runs per member (its GEMM shape is member-specific).
        X_old_cat = np.concatenate([member._X_buf[:n] for member, n in zip(members, ns)])
        scale_rows = np.repeat(length_scales, ns, axis=0)
        As_cat = X_old_cat / scale_rows
        a2_cat = np.sum(As_cat**2, axis=1)[:, None]
        X_new_stack = np.stack([X_new for X_new, _ in prepared])
        Bs_new = X_new_stack / length_scales[:, None, :]
        b2 = np.sum(Bs_new**2, axis=2)
        cross_cat = np.empty((sum(ns), m))
        offset = 0
        for k, n in enumerate(ns):
            cross_cat[offset : offset + n] = (
                As_cat[offset : offset + n] @ Bs_new[k].T
            )
            offset += n
        d2_cat = np.maximum(
            a2_cat + np.repeat(b2, ns, axis=0) - 2.0 * cross_cat, 0.0
        )
        K12_cat = np.repeat(signals, ns)[:, None] * np.exp(-0.5 * d2_cat)

        # New-block kernel K₂₂, batched over the (equal-m) updates.
        K22 = signals[:, None, None] * np.exp(
            -0.5
            * np.maximum(
                b2[:, :, None] + b2[:, None, :] - 2.0 * Bs_new @ Bs_new.transpose(0, 2, 1),
                0.0,
            )
        )
        K22[:, diag, diag] += noises[:, None]

        Bs = []
        S = np.empty((len(members), m, m))
        offset = 0
        for k, (member, n) in enumerate(zip(members, ns)):
            B = _solve_lower_triangular(
                member._L_buf[:n, :n], K12_cat[offset : offset + n]
            )
            Bs.append(B)
            S[k] = K22[k] - B.T @ B
            offset += n
        try:
            L_S = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            # Some member's factor drifted out of positive definiteness:
            # nothing has been written yet, so the solo path (which refreshes
            # exactly the failing members) can take over cleanly.
            for member, (X_new, y_new) in zip(members, prepared):
                member.partial_fit(X_new, y_new)
            return self
        for k, (member, n) in enumerate(zip(members, ns)):
            X_new, y_new = prepared[k]
            total = n + m
            member._L_buf[n:total, :n] = Bs[k].T
            member._L_buf[n:total, n:total] = L_S[k]
            member._X_buf[n:total] = X_new
            member._y_raw_buf[n:total] = y_new
            member._n = total
            member._X = member._X_buf[:total]
            y_n = member._normalize_targets(member._y_raw_buf[:total])
            member._cho = (member._L_buf[:total, :total], True)
            member._alpha = _cho_solve_lower(member._cho[0], y_n)
            member.num_partial_fits += 1
        return self

    # --------------------------------------------------------------- predict
    def predict(
        self, Xs: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fused posterior prediction, one candidate matrix per member.

        One fused cross-kernel construction — candidate-side scaling and
        square-sums batched over the (equal-count) pools, training-side row
        sums on the concatenated training rows, the distance assembly and the
        exponential (the bulk of a GP predict's elementwise work) on one
        ``(nc, Σn)`` sheet — followed by the solo per-member posterior
        algebra on each member's column segment.  Returns per-member
        ``(mean, std)`` pairs bitwise identical to ``member.predict(X)``.
        Members must propose over pools of one candidate count; their
        training-set sizes may differ freely (the segments are column
        slices, not stacked), which keeps the ragged fleets GP campaigns
        produce fully fused.
        """
        members = self.members
        if len(Xs) != len(members):
            raise ValueError("need exactly one candidate matrix per fleet member")
        mats = []
        for member, X in zip(members, Xs):
            if not member.fitted:
                raise RuntimeError("the GP has not been fitted")
            X = np.atleast_2d(np.asarray(X, dtype=float))
            if X.shape[1] != member._X_buf.shape[1]:
                raise ValueError(
                    f"expected {member._X_buf.shape[1]} features, got {X.shape[1]}"
                )
            mats.append(X)
        if len({X.shape for X in mats}) != 1:
            raise ValueError(
                "fleet prediction requires equal candidate counts, got "
                f"{sorted({X.shape for X in mats})}"
            )
        if len(members) == 1:
            return [members[0].predict(mats[0])]
        ns = [member._n for member in members]
        total = sum(ns)

        length_scales = np.stack([member._length_scales for member in members])
        signals = np.array([member._signal_var for member in members])
        # Candidate side, batched over the equal-count pools.
        As = np.stack(mats) / length_scales[:, None, :]
        a2 = np.sum(As**2, axis=2)
        # Training side, on the concatenated rows (row-local ops).
        X_train_cat = np.concatenate(
            [member._X_buf[:n] for member, n in zip(members, ns)]
        )
        Bs_cat = X_train_cat / np.repeat(length_scales, ns, axis=0)
        b2_cat = np.sum(Bs_cat**2, axis=1)
        # Cross contractions per member (shapes are member-specific), written
        # into their column segments of the shared sheet.
        cross_cat = np.empty((len(mats[0]), total))
        offset = 0
        for k, n in enumerate(ns):
            cross_cat[:, offset : offset + n] = As[k] @ Bs_cat[offset : offset + n].T
            offset += n
        d2_cat = np.maximum(
            np.repeat(a2.T, ns, axis=1) + b2_cat[None, :] - 2.0 * cross_cat, 0.0
        )
        Ks_cat = np.repeat(signals, ns)[None, :] * np.exp(-0.5 * d2_cat)
        # Posterior algebra per member on its column segment: the GEMV, the
        # ``potrs`` solve and the weighted row reduction see the same values
        # (and, for the row-contiguous segment, the same layout) a solo
        # predict sees.  The clamp and denormalisation batch as elementwise
        # ops with per-member scalars broadcast per row.
        mean_n = np.empty((len(members), len(mats[0])))
        var_n = np.empty_like(mean_n)
        offset = 0
        for k, (member, n) in enumerate(zip(members, ns)):
            Ks = Ks_cat[:, offset : offset + n]
            mean_n[k] = Ks @ member._alpha
            B = _solve_lower_triangular(member._cho[0], Ks.T)
            var_n[k] = member._signal_var - np.sum(B * B, axis=0)
            offset += n
        var_n = np.maximum(var_n, 1e-12)
        y_stds = np.array([member._y_std for member in members])
        y_means = np.array([member._y_mean for member in members])
        means = mean_n * y_stds[:, None] + y_means[:, None]
        stds = np.sqrt(var_n) * y_stds[:, None]
        return [(means[k], stds[k]) for k in range(len(members))]
