"""Golden outputs: SHA-256 digests of the default 10x10 depth map and of
a seed-0 training run.  Any change to the thermal quadrature, the
bisection or the learner that moves a single bit shows up here."""

import hashlib

from meltpool_rl.cli import main
from meltpool_rl.config import CONFIG_ENV_VAR
from meltpool_rl.environment import StateId

DEPTHS_SHA256 = "23ace9cf50196e2ed2ca68d83d1e8a5accad510753b60bd6adda7389c39cff14"
QTABLE_SHA256 = "28185f7b9ad111caae8727eab0d56161827c7a36b26e51b2e8185008e373f56f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_depth_map_digest(cache10):
    text = "\n".join(repr(cache10.depth(StateId(i, j)))
                     for i in range(10) for j in range(10))
    assert sha256(text.encode()) == DEPTHS_SHA256


def test_seed0_train_qtable_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main(["train", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "qtable.csv").read_bytes()) == QTABLE_SHA256
