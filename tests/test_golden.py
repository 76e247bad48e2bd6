"""Golden outputs: SHA-256 digests of the default 10x10 depth map, of
every file written by a seed-0 `train` and a default `map`, and that
training run's best state.  Any change to the thermal quadrature, the
bisection, the learner or an output format that moves a single bit shows
up here."""

import hashlib

from meltpool_rl.cli import main
from meltpool_rl.config import CONFIG_ENV_VAR, load_config
from meltpool_rl.qlearn import train

DEPTHS_SHA256 = "23ace9cf50196e2ed2ca68d83d1e8a5accad510753b60bd6adda7389c39cff14"
QTABLE_SHA256 = "28185f7b9ad111caae8727eab0d56161827c7a36b26e51b2e8185008e373f56f"
CONVERGENCE_SHA256 = "f37f62d0af87613e618210772baea341b04d688daac487b6a18b0879b2078d43"
SNAPSHOT_SHA256 = "1606a55eaebed94d299b0dfa107d50902b3642ff6130a84fae32cf94ff52df9b"
TRAIN_SHA256 = {
    "config_snapshot.json": SNAPSHOT_SHA256,
    "qtable.csv": QTABLE_SHA256,
    "convergence.csv": CONVERGENCE_SHA256,
    "qtable.json": "b243d1d5e91f8a552d93163b467272f48f639569ce4c1f6465c30fb65dfdeaa0",
    "summary.json": "5ed64de1760efab0e7349e7cf857f3bd668f55640b28b4dc0fa19985a980f54c",
}
MAP_SHA256 = {
    "config_snapshot.json": SNAPSHOT_SHA256,
    "pv_map.csv": "c0ec41d1947cb0b999bf7af01979b3f0433715d40a98f33a6f5dafa7491b7db6",
    "depth_map.csv": "2c034f1b96ec06e63f673d0a25c942a01dbece11c0331c269bae68d0969bbf11",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_depth_map_digest(cache10):
    text = "\n".join(repr(cache10.depth(s)) for s in range(100))
    assert sha256(text.encode()) == DEPTHS_SHA256


def run_and_digest(tmp_path, monkeypatch, argv) -> dict:
    """SHA-256 of every file the default-config command leaves in its
    output directory."""
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    return {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}


def test_seed0_train_qtable_digest(tmp_path, monkeypatch):
    assert run_and_digest(tmp_path, monkeypatch, ["train", "--seed", "0"]) == TRAIN_SHA256


def test_default_map_digests(tmp_path, monkeypatch):
    assert run_and_digest(tmp_path, monkeypatch, ["map"]) == MAP_SHA256


def test_seed0_train_best_state(cache10, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    cfg = load_config()
    result = train(cache10, cfg.reward, cfg.qlearn)
    assert result.best_state == 75  # (i, j) = (7, 5)
    assert (result.best_power, result.best_speed) == (888.8888888888889, 566.6666666666666)
    assert result.best_depth == 1.0023117065429688
