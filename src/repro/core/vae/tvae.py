"""The tabular variational autoencoder.

Architecture (following the TVAE of Xu et al., scaled to the size of the
autotuning histories):

* encoder: MLP ``input → hidden → hidden``, then two linear heads producing
  the latent mean ``µ`` and log-variance ``log σ²``;
* latent space: diagonal Gaussian with the reparameterisation trick;
* decoder: MLP ``latent → hidden → hidden → input``; numeric columns go
  through a sigmoid (they live in ``[0, 1]`` after the tabular transform) and
  are scored with a Gaussian reconstruction loss, categorical blocks go
  through a softmax and are scored with cross-entropy;
* loss: reconstruction + β · KL(q(z|x) ‖ N(0, I)), optimised with Adam.

Everything — forward pass, backward pass, training loop, sampling — is
implemented with NumPy; the gradients are verified against finite differences
in the test suite.

Two training entry points exist:

* :meth:`TabularVAE.fit` — one model, the reference training loop (with
  preallocated per-epoch batch buffers);
* :class:`VAEFleet` — ``K`` structurally identical models trained in fused
  lock-step epochs over stacked ``(K, batch, dim)`` activations, one batched
  contraction per layer.  Every member's weights, training trace and RNG
  state end up **bitwise identical** to ``K`` sequential
  :meth:`TabularVAE.fit` calls with the same seeds (asserted by the test
  suite and by ``benchmarks/bench_vae_fleet.py``); the fleet only changes
  wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vae.layers import Dense, DenseFleet, MLP, MLPFleet
from repro.core.vae.optim import Adam, AdamFleet

__all__ = ["TabularVAE", "TrainingTrace", "VAEFleet", "vae_fleet_key"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _slice_sums(arr: np.ndarray) -> np.ndarray:
    """Per-leading-slice totals of a stacked array, one ``np.sum`` per slice.

    The trace terms must reduce each member's slice exactly as the solo fit
    reduces its 2-D array.  Full reductions traverse *memory* order, and the
    fancy-indexed loss operands carry an advanced-axis-outermost layout that
    ``np.sum(arr[k])`` preserves — whereas clever stacked alternatives
    (``arr.sum(axis=(1, 2))``, ``arr.reshape(K, -1).sum(axis=1)``) re-block
    or re-copy the reduction and drift by an ulp.  Per-slice sums keep the
    fleet traces bitwise identical to sequential fits.
    """
    return np.asarray([float(np.sum(arr[k])) for k in range(arr.shape[0])])


def _softmax(x: np.ndarray) -> np.ndarray:
    # Normalise along the last axis so the same kernel serves both the solo
    # (batch, block) and the fleet-stacked (K, batch, block) activations;
    # per-row arithmetic is unchanged either way.
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass
class TrainingTrace:
    """Per-epoch training diagnostics."""

    loss: List[float]
    reconstruction: List[float]
    kl: List[float]

    @property
    def final_loss(self) -> float:
        """Loss of the last epoch (inf if training never ran)."""
        return self.loss[-1] if self.loss else float("inf")


class TabularVAE:
    """A VAE over tabular rows produced by
    :class:`~repro.core.vae.transforms.TabularTransform`.

    Parameters
    ----------
    input_dim:
        Number of input columns.
    numeric_columns:
        Indices of the numeric (unit-interval) columns.
    categorical_blocks:
        ``(start, stop)`` ranges of the categorical one-hot blocks.
    latent_dim:
        Dimensionality of the latent Gaussian.
    hidden:
        Hidden-layer widths shared by encoder and decoder.
    beta:
        Weight of the KL term.
    numeric_sigma:
        Standard deviation of the Gaussian reconstruction model for numeric
        columns (smaller = sharper reconstructions).
    seed:
        Seed for weight initialisation, the reparameterisation noise and
        mini-batch shuffling.
    """

    def __init__(
        self,
        input_dim: int,
        numeric_columns: Sequence[int],
        categorical_blocks: Sequence[Tuple[int, int]],
        latent_dim: int = 8,
        hidden: Sequence[int] = (64, 64),
        beta: float = 1.0,
        numeric_sigma: float = 0.15,
        seed: int = 0,
    ):
        if input_dim < 1 or latent_dim < 1:
            raise ValueError("dimensions must be positive")
        if numeric_sigma <= 0:
            raise ValueError("numeric_sigma must be positive")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.numeric_columns = list(numeric_columns)
        self.categorical_blocks = [tuple(b) for b in categorical_blocks]
        self.beta = float(beta)
        self.numeric_sigma = float(numeric_sigma)
        self.rng = np.random.default_rng(seed)

        self.encoder = MLP.build(input_dim, hidden, hidden[-1], rng=self.rng)
        self.mu_head = Dense(hidden[-1], latent_dim, rng=self.rng)
        self.logvar_head = Dense(hidden[-1], latent_dim, rng=self.rng)
        self.decoder = MLP.build(latent_dim, hidden, input_dim, rng=self.rng)
        self.fitted = False
        self.trace: Optional[TrainingTrace] = None

    # -------------------------------------------------------------- internals
    def _all_parameters(self):
        return (
            self.encoder.parameters()
            + self.mu_head.parameters()
            + self.logvar_head.parameters()
            + self.decoder.parameters()
        )

    def _zero_grad(self) -> None:
        for _, grad in self._all_parameters():
            grad[...] = 0.0

    def _decode_activations(self, logits: np.ndarray) -> np.ndarray:
        """Apply sigmoid to numeric columns and softmax to categorical blocks."""
        out = np.empty_like(logits)
        if self.numeric_columns:
            cols = self.numeric_columns
            out[:, cols] = _sigmoid(logits[:, cols])
        for start, stop in self.categorical_blocks:
            out[:, start:stop] = _softmax(logits[:, start:stop])
        return out

    def _loss_and_grad(self, X: np.ndarray) -> Tuple[float, float, np.ndarray, np.ndarray, dict]:
        """Forward pass returning losses and the gradients wrt decoder logits and latent stats."""
        n = X.shape[0]
        h = self.encoder.forward(X)
        mu = self.mu_head.forward(h)
        logvar = np.clip(self.logvar_head.forward(h), -10.0, 10.0)
        eps = self.rng.standard_normal(mu.shape)
        std = np.exp(0.5 * logvar)
        z = mu + eps * std

        logits = self.decoder.forward(z)
        recon = self._decode_activations(logits)

        # ---------------------------------------------------------- losses
        recon_loss = 0.0
        grad_logits = np.zeros_like(logits)
        if self.numeric_columns:
            cols = self.numeric_columns
            diff = recon[:, cols] - X[:, cols]
            recon_loss += float(0.5 * np.sum((diff / self.numeric_sigma) ** 2)) / n
            # d/dlogit of 0.5*((sigmoid(l)-x)/s)^2 = (sigmoid-x)/s^2 * sigmoid'
            grad_logits[:, cols] = (
                diff / (self.numeric_sigma**2) * recon[:, cols] * (1.0 - recon[:, cols])
            ) / n
        for start, stop in self.categorical_blocks:
            probs = recon[:, start:stop]
            target = X[:, start:stop]
            recon_loss += float(-np.sum(target * np.log(np.clip(probs, 1e-12, None)))) / n
            grad_logits[:, start:stop] = (probs - target) / n

        kl = float(-0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar))) / n
        return recon_loss, kl, grad_logits, z, {
            "mu": mu,
            "logvar": logvar,
            "eps": eps,
            "std": std,
            "n": n,
        }

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        X: np.ndarray,
        epochs: int = 300,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> TrainingTrace:
        """Train the VAE on the transformed rows ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} columns, got {X.shape[1]}")
        if X.shape[0] < 1:
            raise ValueError("cannot train on an empty dataset")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        optimizer = Adam(self._all_parameters(), lr=lr)
        n = X.shape[0]
        batch_size = max(1, min(batch_size, n))
        trace = TrainingTrace(loss=[], reconstruction=[], kl=[])
        # One gather buffer for the whole fit: each minibatch is copied into
        # it instead of fancy-indexing a fresh array per step (values are
        # identical; only the per-minibatch allocation disappears).
        batch_buf = np.empty((batch_size, X.shape[1]), dtype=float)

        for _ in range(epochs):
            order = self.rng.permutation(n)
            epoch_recon, epoch_kl, batches = 0.0, 0.0, 0
            for start in range(0, n, batch_size):
                rows = min(batch_size, n - start)
                batch = batch_buf[:rows]
                np.take(X, order[start : start + rows], axis=0, out=batch)
                self._zero_grad()
                recon_loss, kl, grad_logits, z, cache = self._loss_and_grad(batch)

                # Backward through the decoder to the latent sample.
                grad_z = self.decoder.backward(grad_logits)
                # Reparameterisation: z = mu + eps * exp(0.5*logvar)
                mu, logvar = cache["mu"], cache["logvar"]
                eps, std, nb = cache["eps"], cache["std"], cache["n"]
                grad_mu = grad_z + self.beta * mu / nb
                grad_logvar = (
                    grad_z * eps * 0.5 * std
                    + self.beta * 0.5 * (np.exp(logvar) - 1.0) / nb
                )
                grad_h = self.mu_head.backward(grad_mu) + self.logvar_head.backward(
                    grad_logvar
                )
                self.encoder.backward(grad_h)
                optimizer.step()

                epoch_recon += recon_loss
                epoch_kl += kl
                batches += 1
            trace.reconstruction.append(epoch_recon / batches)
            trace.kl.append(epoch_kl / batches)
            trace.loss.append(trace.reconstruction[-1] + self.beta * trace.kl[-1])

        self.fitted = True
        self.trace = trace
        return trace

    # ----------------------------------------------------------------- sample
    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``n`` rows from the learned distribution (decoded activations)."""
        if not self.fitted:
            raise RuntimeError("the VAE has not been fitted")
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = rng or self.rng
        z = rng.standard_normal((n, self.latent_dim))
        logits = self.decoder.forward(z)
        return self._decode_activations(logits)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Encode-decode ``X`` using the latent mean (no sampling noise)."""
        if not self.fitted:
            raise RuntimeError("the VAE has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        h = self.encoder.forward(X)
        mu = self.mu_head.forward(h)
        logits = self.decoder.forward(mu)
        return self._decode_activations(logits)

    def loss_on(self, X: np.ndarray) -> float:
        """Total loss (reconstruction + β·KL) on ``X`` without training."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        recon_loss, kl, _, _, _ = self._loss_and_grad(X)
        return recon_loss + self.beta * kl


# -------------------------------------------------------------------- fleets
def vae_fleet_key(
    vae: TabularVAE,
    n_rows: int,
    epochs: int,
    batch_size: int,
    lr: float = 1e-3,
) -> Tuple:
    """The training configuration a fused :class:`VAEFleet` pass must share.

    Fleet members stack their activations, so they need identical network
    structure, loss layout and per-epoch batch schedule.  Batch drivers
    (:class:`~repro.service.runner.CampaignRunner`) group due VAE refits by
    this key; :class:`VAEFleet` itself re-validates and rejects mixed fleets,
    so the two can never silently drift apart.
    """
    return (
        vae.input_dim,
        vae.latent_dim,
        tuple(layer.W.shape for layer in vae.encoder.layers if isinstance(layer, Dense)),
        tuple(layer.W.shape for layer in vae.decoder.layers if isinstance(layer, Dense)),
        tuple(type(layer).__name__ for layer in vae.encoder.layers),
        tuple(type(layer).__name__ for layer in vae.decoder.layers),
        tuple(vae.numeric_columns),
        tuple(vae.categorical_blocks),
        vae.beta,
        vae.numeric_sigma,
        int(n_rows),
        int(epochs),
        max(1, min(int(batch_size), int(n_rows))),
        float(lr),
    )


class VAEFleet:
    """Train ``K`` independent :class:`TabularVAE`\\ s in fused lock-step epochs.

    The members' encoder/decoder stacks are fused into
    :class:`~repro.core.vae.layers.MLPFleet`\\ s (one stacked ``(K, in, out)``
    contraction per layer per step) and optimised by one
    :class:`~repro.core.vae.optim.AdamFleet`; per-member RNG draws (epoch
    permutations, reparameterisation noise) come from each member's own
    generator in the member's own order.  Every member therefore finishes
    with weights, :class:`TrainingTrace` and RNG state bitwise identical to a
    sequential ``member.fit(...)`` — the fleet only amortises the Python and
    NumPy dispatch overhead of the small per-layer operations across ``K``
    models.

    Members must be structurally identical (architecture, loss layout) and
    train on datasets of equal shape with the same epochs/batch-size/learning
    rate — group heterogeneous refits with :func:`vae_fleet_key` first.

    Parameters
    ----------
    members:
        The (distinct, unfitted or refittable) member VAEs.
    """

    def __init__(self, members: Sequence[TabularVAE]):
        if not members:
            raise ValueError("need at least one member VAE")
        if len({id(m) for m in members}) != len(members):
            raise ValueError("each VAE may appear only once per fleet")
        self.members = list(members)
        first = self.members[0]
        for member in self.members[1:]:
            if (
                member.input_dim != first.input_dim
                or member.latent_dim != first.latent_dim
                or member.numeric_columns != first.numeric_columns
                or member.categorical_blocks != first.categorical_blocks
                or member.beta != first.beta
                or member.numeric_sigma != first.numeric_sigma
            ):
                raise ValueError("incompatible fleet member: architectures and loss layouts must match")

    @property
    def fleet_size(self) -> int:
        """Number of member VAEs."""
        return len(self.members)

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        datasets: Sequence[np.ndarray],
        epochs: int = 300,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> List[TrainingTrace]:
        """Train every member on its own dataset, in fused lock-step epochs.

        Parameters
        ----------
        datasets:
            One training matrix per member, all of equal shape
            ``(n, input_dim)``.
        epochs, batch_size, lr:
            Shared training budget (see :meth:`TabularVAE.fit`).
        """
        if len(datasets) != len(self.members):
            raise ValueError(f"need {len(self.members)} datasets, got {len(datasets)}")
        mats = [np.atleast_2d(np.asarray(X, dtype=float)) for X in datasets]
        shape = mats[0].shape
        if any(X.shape != shape for X in mats):
            raise ValueError("fused fleet training requires datasets of equal shape")
        if shape[1] != self.members[0].input_dim:
            raise ValueError(f"expected {self.members[0].input_dim} columns, got {shape[1]}")
        if shape[0] < 1:
            raise ValueError("cannot train on an empty dataset")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        members = self.members
        K = len(members)
        n, dim = mats[0].shape
        latent = members[0].latent_dim
        batch_size = max(1, min(batch_size, n))
        numeric = members[0].numeric_columns
        blocks = members[0].categorical_blocks
        beta = members[0].beta
        sigma = members[0].numeric_sigma

        encoder = MLPFleet.from_members([m.encoder for m in members])
        mu_head = DenseFleet.from_members([m.mu_head for m in members])
        logvar_head = DenseFleet.from_members([m.logvar_head for m in members])
        decoder = MLPFleet.from_members([m.decoder for m in members])
        params = (
            encoder.parameters()
            + mu_head.parameters()
            + logvar_head.parameters()
            + decoder.parameters()
        )
        optimizer = AdamFleet(params, fleet_size=K, lr=lr)
        traces = [TrainingTrace(loss=[], reconstruction=[], kl=[]) for _ in members]

        # Preallocated per-step buffers (the fleet analogue of fit's gather
        # buffer): the stacked minibatch and the reparameterisation noise.
        batch_buf = np.empty((K, batch_size, dim), dtype=float)
        eps_buf = np.empty((K, batch_size, latent), dtype=float)

        for _ in range(epochs):
            # Per-member draws in each member's own stream order (permutation
            # first, then one noise draw per minibatch) keep the generators in
            # lock step with a sequential member.fit.
            orders = [member.rng.permutation(n) for member in members]
            epoch_recon = np.zeros(K)
            epoch_kl = np.zeros(K)
            batches = 0
            for start in range(0, n, batch_size):
                rows = min(batch_size, n - start)
                xb = batch_buf[:, :rows, :]
                eps = eps_buf[:, :rows, :]
                for k, member in enumerate(members):
                    np.take(mats[k], orders[k][start : start + rows], axis=0, out=xb[k])
                for k, member in enumerate(members):
                    eps[k] = member.rng.standard_normal((rows, latent))

                for _, grad in params:
                    grad[...] = 0.0
                h = encoder.forward(xb)
                mu = mu_head.forward(h)
                logvar = np.clip(logvar_head.forward(h), -10.0, 10.0)
                std = np.exp(0.5 * logvar)
                z = mu + eps * std
                logits = decoder.forward(z)

                # Per-batch loss scalars accumulate member-locally first and
                # join the epoch totals once, matching the float addition
                # order of the solo fit.  The per-member reductions run as one
                # trailing-axes sum per term: NumPy reduces each leading slice
                # over the same contiguous layout a solo fit sums, so the
                # traces stay bit-identical.
                batch_recon = np.zeros(K)
                grad_logits = np.zeros_like(logits)
                if numeric:
                    rec_num = _sigmoid(logits[:, :, numeric])
                    diff = rec_num - xb[:, :, numeric]
                    grad_logits[:, :, numeric] = (
                        diff / (sigma**2) * rec_num * (1.0 - rec_num)
                    ) / rows
                    batch_recon += (0.5 * _slice_sums((diff / sigma) ** 2)) / rows
                for b_start, b_stop in blocks:
                    probs = _softmax(logits[:, :, b_start:b_stop])
                    target = xb[:, :, b_start:b_stop]
                    grad_logits[:, :, b_start:b_stop] = (probs - target) / rows
                    logp = np.log(np.clip(probs, 1e-12, None))
                    batch_recon += -_slice_sums(target * logp) / rows
                kl_terms = 1.0 + logvar - mu**2 - np.exp(logvar)
                epoch_recon += batch_recon
                epoch_kl += (-0.5 * _slice_sums(kl_terms)) / rows

                grad_z = decoder.backward(grad_logits)
                grad_mu = grad_z + beta * mu / rows
                grad_logvar = (
                    grad_z * eps * 0.5 * std
                    + beta * 0.5 * (np.exp(logvar) - 1.0) / rows
                )
                grad_h = mu_head.backward(grad_mu) + logvar_head.backward(grad_logvar)
                encoder.backward(grad_h)
                optimizer.step()
                batches += 1
            for k, trace in enumerate(traces):
                trace.reconstruction.append(float(epoch_recon[k]) / batches)
                trace.kl.append(float(epoch_kl[k]) / batches)
                trace.loss.append(trace.reconstruction[-1] + beta * trace.kl[-1])

        encoder.write_back([m.encoder for m in members])
        mu_head.write_back([m.mu_head for m in members])
        logvar_head.write_back([m.logvar_head for m in members])
        decoder.write_back([m.decoder for m in members])
        for member, trace in zip(members, traces):
            member.fitted = True
            member.trace = trace
        return traces
