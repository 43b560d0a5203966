"""Loss, optimizer, schedule, and the training loop."""

from __future__ import annotations

import csv

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig
from .errors import NonFiniteLoss
from .geometry import PoseQT, rre_rte
from .params import Module, Parameter, save_checkpoint
from .registration import RegistrationNet, StageOutput


class LossParams(Module):
    """Learnable loss scales s_q and s_t; their inits here are train()'s."""

    def __init__(self, sq_init=-2.5, st_init=0.0):
        self.s_q = Parameter("loss.s_q", np.array(sq_init))
        self.s_t = Parameter("loss.s_t", np.array(st_init))


def single_loss(q: Tensor, t: Tensor, gt: PoseQT, lp: LossParams) -> Tensor:
    """|q_gt - q|_2 * exp(-s_q) + s_q + |t_gt - t|_1 * exp(-s_t) + s_t, as
    one node (the learned-scale pose loss of Kendall & Cipolla, 2017)."""
    sq, st = lp.s_q, lp.s_t
    d_q, d_t = q.data - gt.q, t.data - gt.t
    dq, dt = np.sqrt((d_q * d_q).sum()), np.abs(d_t).sum()
    eq, et = np.exp(-sq.data), np.exp(-st.data)

    def backward(g):
        if q.requires_grad:  # the zero subgradient at q = q_gt
            q._accum(g * eq / dq * d_q if dq != 0 else np.zeros_like(d_q))
        if t.requires_grad:
            t._accum(g * et * np.sign(d_t))
        if sq.requires_grad:
            sq._accum(g - g * dq * eq)
        if st.requires_grad:
            st._accum(g - g * dt * et)

    return Tensor._make(dq * eq + sq.data + dt * et + st.data, (q, t, sq, st), backward)


def total_loss(coarse: StageOutput, fine: StageOutput, gt: PoseQT,
               lp: LossParams, alpha3=0.8, alpha4=1.6) -> Tensor:
    """The stage-weighted loss; train() uses these weights."""
    return alpha3 * single_loss(fine.q_t, fine.t_t, gt, lp) + \
        alpha4 * single_loss(coarse.q_t, coarse.t_t, gt, lp)


class Adam:
    """First/second-moment adaptive optimizer with bias correction."""

    def __init__(self, params: list[Parameter], lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_grad_norm(params: list[Parameter], max_norm: float):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    total = np.sqrt(total)
    if total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


def evaluate_scenes(model: RegistrationNet, scenes, geometries=None) -> tuple[float, float]:
    """Mean RRE (deg) and RTE over scenes, no gating. `geometries`, when
    given, holds each scene's RegistrationNet.geometry."""
    rres, rtes = [], []
    for i, scene in enumerate(scenes):
        target = scene.gt_pose.inverse()
        geometry = None if geometries is None else geometries[i]
        _, fine = model(scene.cloud, scene.image, scene.K, train=False, geometry=geometry)
        rre, rte = rre_rte(fine.pose, target)
        rres.append(rre)
        rtes.append(rte)
    return float(np.mean(rres)), float(np.mean(rtes))


def train(model: RegistrationNet, scenes, cfg: TrainConfig, out_ckpt,
          log_path=None, max_steps=None, log_fn=None):
    """Train on Scene objects; returns (best_rte, history rows).

    Each step back-propagates every scene of its batch as soon as that
    scene's loss exists, scaled by 1 / batch size, so one scene's graph is
    alive at a time; the gradients add up in batch order, as one backward
    through the summed batch loss would add them. A scene whose loss, or
    the batch sum up to it, is not finite raises NonFiniteLoss before its
    backward, so no NaN reaches a gradient and no parameter moves.

    Writes a CSV log `epoch,split,loss,rre_deg,rte,lr` when log_path is set
    and checkpoints the best-by-holdout-RTE parameters to out_ckpt.
    """
    if not scenes:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    n_hold = int(round(len(scenes) * cfg.holdout_frac))
    every = list(range(len(scenes)))
    hold = every[len(scenes) - n_hold:]
    trainset = every[: len(scenes) - n_hold] or every
    if not hold:
        hold = trainset
    # each scene's fixed sampling and searches, built on first use and
    # reused by every later step and holdout evaluation of this call
    geometries = [None] * len(scenes)

    def geometry(i):
        if geometries[i] is None:
            s = scenes[i]
            geometries[i] = model.geometry(s.cloud, s.image, s.K)
        return geometries[i]

    lp = LossParams()
    params = model.named_parameters() + lp.named_parameters()
    opt = Adam(params, lr=cfg.lr)
    rows = []
    best_rte = np.inf
    steps = 0
    log_file = open(log_path, "w", newline="") if log_path else None
    writer = None
    if log_file:
        writer = csv.writer(log_file, lineterminator="\n")
        writer.writerow(["epoch", "split", "loss", "rre_deg", "rte", "lr"])
    try:
        for epoch in range(cfg.epochs):
            opt.lr = cfg.lr * (1.0 - cfg.lr_decay) ** epoch
            epoch_losses = []
            for bi in range(0, len(trainset), cfg.batch_size):
                batch = trainset[bi: bi + cfg.batch_size]
                opt.zero_grad()
                loss = None
                for i in batch:
                    scene = scenes[i]
                    target = scene.gt_pose.inverse()
                    coarse, fine = model(scene.cloud, scene.image, scene.K,
                                         train=True, rng=rng, geometry=geometry(i),
                                         dropout=cfg.dropout)
                    one = total_loss(coarse, fine, target, lp)
                    loss = one.data if loss is None else loss + one.data
                    # this scene's loss and the batch sum so far, before any
                    # of it reaches a gradient
                    if not np.isfinite(loss):
                        raise NonFiniteLoss(f"non-finite loss at epoch {epoch} batch {bi}")
                    # frees this scene's graph before the next forward
                    (one * (1.0 / len(batch))).backward()
                val = float(loss * (1.0 / len(batch)))
                clip_grad_norm(params, cfg.clip_norm)
                opt.step()
                epoch_losses.append(val)
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    break
            last_epoch = epoch == cfg.epochs - 1 or \
                (max_steps is not None and steps >= max_steps)
            if epoch % cfg.eval_every != 0 and not last_epoch:
                if log_fn:
                    log_fn(epoch, float(np.mean(epoch_losses)), None, None)
                continue
            rre, rte = evaluate_scenes(model, [scenes[i] for i in hold],
                                       [geometry(i) for i in hold])
            if not (np.isfinite(rre) and np.isfinite(rte)):
                raise NonFiniteLoss(f"non-finite holdout errors at epoch {epoch}")
            row = [epoch, "holdout", float(np.mean(epoch_losses)), rre, rte, opt.lr]
            rows.append(row)
            if writer:
                writer.writerow([f"{x:.9f}" if isinstance(x, float) else x for x in row])
                log_file.flush()
            if log_fn:
                log_fn(epoch, float(np.mean(epoch_losses)), rre, rte)
            if rte < best_rte:
                best_rte = rte
                save_checkpoint(out_ckpt, params, model.named_buffers())
            if max_steps is not None and steps >= max_steps:
                break
    finally:
        if log_file:
            log_file.close()
    return best_rte, rows
