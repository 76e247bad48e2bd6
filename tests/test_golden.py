"""Golden outputs: SHA-256 digests of the default 10x10 depth map, of a
wide 12x12 depth map and the benchmark's two 20x20 map grids, of every
file written by a seed-0 `train` and a default `map`, of the run files
of a small replicated epsilon sweep, of a greedy training run on a 2x2
grid, and the seed-0 run's best state.  Any change to the thermal
quadrature, the bisection, the learner or an output format that moves a
single bit shows up here."""

import hashlib

import pytest

from meltpool_rl.cli import main
from meltpool_rl.config import load_config
from meltpool_rl.environment import DepthCache, RewardConfig, StateGrid, state_params
from meltpool_rl.qlearn import Hyperparams, train
from meltpool_rl.thermal import MMPM_TO_MPS, batch_depths

DEPTHS_SHA256 = "23ace9cf50196e2ed2ca68d83d1e8a5accad510753b60bd6adda7389c39cff14"
#: 12x12 over 100-20000 W x 100-1200 mm/min: 34 states at the 5 mm bracket
#: edge, 4 not steady and 12 that never melt
WIDE_GRID = StateGrid(n=12, p_min_w=100.0, p_max_w=20000.0, v_min_mmpm=100.0, v_max_mmpm=1200.0)
WIDE_DEPTHS_SHA256 = "abbe5d2e97989ee650f552f6b74747ec9412aa879d2e34b907b0d4a7854dd5b4"
#: the 20x20 grids of perfbench's grid_map at seeds 0 and 1, whose own
#: reference check allows 1e-3 mm; these digests allow no bit
GRID_MAP_GRIDS = {
    0: StateGrid(n=20, p_min_w=489.0, p_max_w=1155.7, v_min_mmpm=360.1, v_max_mmpm=896.7),
    1: StateGrid(n=20, p_min_w=433.2, p_max_w=1161.2, v_min_mmpm=338.1, v_max_mmpm=836.7),
}
GRID_MAP_DEPTHS_SHA256 = {
    0: "dad5d6454677e22e10635894c84be7ec45352411eba28cab49aac96338129c18",
    1: "3f9a62d20fb5f4801e16989e06fca005d29ac0c63eea9a319c4953613a40d6ff",
}
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
#: small `sweep --param epsilon`: 4x4 grid, 2 replicates, 10 episodes,
#: epsilon 0.25 to 1.0 over eight seeds
SMALL_SWEEP_YAML = "grid: {n: 4}\nqlearn: {episodes: 10}\nsweep: {param: epsilon, replicates: 2}\n"
SMALL_SWEEP_SHA256 = {
    "summary.csv": "e3c65bcc0ffb24a46fc35252ee92a48d1c583eab928d0a76a1ee78fe08a43dfb",
    "epsilon_0.25/run_0_convergence.csv": "570dfa35ccfaca4243471e746dcc18e1ad6ae429d28e9ad895b235c7c1024611",
    "epsilon_0.25/run_0_qtable.csv": "63ffab28a3a1f04be056773d7917219cea9a53a21a94c19511d10d8cf51abe17",
    "epsilon_0.25/run_1_convergence.csv": "eb169d5c7bcba78757b9ebf9080c574d3cd5e30110f9707e53cde227d89db2f7",
    "epsilon_0.25/run_1_qtable.csv": "d1b10e24d72cb5c5b7a1512f90e87777dbf68d5f83933507893d513b78b07d32",
    "epsilon_0.5/run_0_convergence.csv": "65089e0b561cb30a436d95fc6034856aa5e002d3a77455022fe5f3956e22f8fe",
    "epsilon_0.5/run_0_qtable.csv": "072eb45f0f887e9ddd30b7050003f2f3def28daf4eaa02c692dd012f754f6add",
    "epsilon_0.5/run_1_convergence.csv": "8c72808a16338fa74ef9786d11b2c7338d70605276bad812fa7583abfba39106",
    "epsilon_0.5/run_1_qtable.csv": "f669cc7ad62cdb41082a5ff5df525c458dea8e9a95e43cc473b92b0e7b279a5a",
    "epsilon_0.75/run_0_convergence.csv": "54f21057d1e3bceb7be8208eb94a005fd78539c5b588846e22260f8aef7df9fb",
    "epsilon_0.75/run_0_qtable.csv": "3bdc021231af52b15bea4853d502f9c036c5f1888bfe916d9d6d891dc153eb94",
    "epsilon_0.75/run_1_convergence.csv": "15c9c3d2f8a1f1fc3ec5950d66fa70c0c5ef9545d5e2c06de382e3b39a007a19",
    "epsilon_0.75/run_1_qtable.csv": "6bdbe0a6c3ce199fbf19734c874b89acc559b164cdf2810908b31f063497e052",
    "epsilon_1.0/run_0_convergence.csv": "2a0db8b5193cdbfb7d297a96a22f1c38d7b179758ade112293f19ffcc62cb16d",
    "epsilon_1.0/run_0_qtable.csv": "790a241ea63335f48b2cc965c9f32643d1e338a86dd8b6408c342e98dd72e882",
    "epsilon_1.0/run_1_convergence.csv": "6d01fbcd1fcc1f7c470a4f4ec78abd9d9bd91482298efb91021455b85c3b39ca",
    "epsilon_1.0/run_1_qtable.csv": "d355b7ea02f869053455903b3f5bb3108a5c8014d4546497ed66a165c4be0785",
}

#: `train` on a 2x2 grid, where every state has 3 of the 8 actions, with
#: the paper reward, gamma = alpha = 1 and epsilon = 0: greedy picks over
#: tied and untied rows and a bootstrap that never discounts
GREEDY_2X2_SHA256 = "12f814bca2605be5169786994b6f7c9101dc2a91db74c097b5279dbcfe482c39"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_depth_map_digest(cache10):
    text = "\n".join(repr(cache10.depth(s)) for s in range(100))
    assert sha256(text.encode()) == DEPTHS_SHA256


def batch_depths_digest(material, grid: StateGrid) -> str:
    """SHA-256 of every state's batch_depths repr and edge flag."""
    queries = [(p, v * MMPM_TO_MPS) for p, v in
               (state_params(grid, s) for s in range(grid.n_states))]
    text = "\n".join(f"{res!r} at_edge={res.at_edge}"
                     for res in batch_depths(material, queries))
    return sha256(text.encode())


def test_wide_depth_map_digest(material):
    assert batch_depths_digest(material, WIDE_GRID) == WIDE_DEPTHS_SHA256


@pytest.mark.parametrize("seed", sorted(GRID_MAP_GRIDS))
def test_grid_map_depths_digest(material, seed):
    assert batch_depths_digest(material, GRID_MAP_GRIDS[seed]) == GRID_MAP_DEPTHS_SHA256[seed]


def run_and_digest(tmp_path, argv) -> dict:
    """SHA-256 of every file the default-config command leaves in its
    output directory."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    return {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}


def test_seed0_train_qtable_digest(tmp_path):
    assert run_and_digest(tmp_path, ["train", "--seed", "0"]) == TRAIN_SHA256


def test_default_map_digests(tmp_path):
    assert run_and_digest(tmp_path, ["map"]) == MAP_SHA256


def test_seed0_train_best_state(cache10):
    cfg = load_config()
    result = train(cache10, cfg.reward, cfg.qlearn)
    assert result.best_state == 75  # (i, j) = (7, 5)
    assert (result.best_power, result.best_speed) == (888.8888888888889, 566.6666666666666)
    assert result.best_depth == 1.0023117065429688


def test_small_epsilon_sweep_digests(tmp_path):
    """Every replicate's Q-table and convergence file, and the summary,
    of a sweep that includes epsilon = 1 and eight spawned seeds."""
    config = tmp_path / "sweep.yaml"
    config.write_text(SMALL_SWEEP_YAML)
    out = tmp_path / "out"
    assert main(["--config", str(config), "sweep", "--param", "epsilon",
                 "--out", str(out)]) == 0
    got = {p.relative_to(out).as_posix(): sha256(p.read_bytes())
           for p in out.rglob("*") if p.name == "summary.csv" or p.name.startswith("run_")}
    assert got == SMALL_SWEEP_SHA256


def test_greedy_2x2_train_digest(material):
    """Q-table bytes, every trace and the best state of one run."""
    result = train(DepthCache(material, StateGrid(n=2)), RewardConfig(variant="paper"),
                   Hyperparams(alpha=1.0, gamma=1.0, epsilon=0.0))
    traces = [(tr.total_reward.hex(), tr.epochs, tr.terminated_early) for tr in result.traces]
    data = result.qtable.tobytes() + repr((traces, result.best_state)).encode()
    assert sha256(data) == GREEDY_2X2_SHA256
