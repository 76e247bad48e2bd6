"""Golden outputs: SHA-256 digests of the default 10x10 depth map and of
a seed-0 training run's Q-table and convergence trace, and that run's
best state.  Any change to the thermal quadrature, the bisection or the
learner that moves a single bit shows up here."""

import hashlib

from meltpool_rl.cli import main
from meltpool_rl.config import CONFIG_ENV_VAR, load_config
from meltpool_rl.qlearn import train

DEPTHS_SHA256 = "23ace9cf50196e2ed2ca68d83d1e8a5accad510753b60bd6adda7389c39cff14"
QTABLE_SHA256 = "28185f7b9ad111caae8727eab0d56161827c7a36b26e51b2e8185008e373f56f"
CONVERGENCE_SHA256 = "f37f62d0af87613e618210772baea341b04d688daac487b6a18b0879b2078d43"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_depth_map_digest(cache10):
    text = "\n".join(repr(cache10.depth(s)) for s in range(100))
    assert sha256(text.encode()) == DEPTHS_SHA256


def test_seed0_train_qtable_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main(["train", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "qtable.csv").read_bytes()) == QTABLE_SHA256
    assert sha256((tmp_path / "convergence.csv").read_bytes()) == CONVERGENCE_SHA256


def test_seed0_train_best_state(cache10, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    cfg = load_config()
    result = train(cache10, cfg.reward, cfg.qlearn)
    assert result.best_state == 75  # (i, j) = (7, 5)
    assert (result.best_power, result.best_speed) == (888.8888888888889, 566.6666666666666)
    assert result.best_depth == 1.0023117065429688
