"""Tabular Q-learning over the process-parameter grid.

One table of shape (n^2, 8) holds a quality score per state-action pair,
initialized to zero.  During train it is a list of rows of Python floats,
which index far faster than an ndarray, holding -inf at every move that
would leave the grid, so a row's max() is the max over the actions
actually available; train returns it as a float64 ndarray with those
entries set back to zero.  Episodes start from a uniformly random state
and run epsilon-greedy until the landing state hits the target depth
tolerance or the epoch cap is reached.  The per-update rule is the
standard one-step temporal-difference target:

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

with the max taken over the actions actually available at s' (edge states
have fewer than 8).  train is the one training loop, one step inlined,
binding the grid's tables, cache.scores and the hyperparameters once per
run; it decides exploration on the raw PCG64 word (_explore_bound) and
reuses each update's bootstrap max as the next greedy pick's max.
select_action, environment.step and q_update are the same step as
single-call functions that take an unmasked list or ndarray table.
Training does not call them; they stay as the reference the tests pin
the loop to bit for bit, and as names perfbench traces.  All randomness
flows from the run's seed: episode e draws from the PCG64 that numpy
seeds from child e of SeedSequence(seed).spawn(episodes), so runs are
bit-reproducible.  episode_states takes the seed's mixed entropy pool
from numpy's SeedSequence(seed).pool and computes every child's PCG64
state from it in one vectorised pass, and train reseeds its one _Draws
with it before each episode.  _Draws rebuilds in Python the values
numpy's Generator makes from the same raw PCG64 words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .environment import ACTIONS, N_ACTIONS, DepthCache, RewardConfig
from .outputs import write_csv, write_json

GENERATOR_NAME = "numpy.random.PCG64"

#: a (n^2, 8) table as select_action and q_update take it: a list of
#: float lists or an ndarray
QTable = Union[list, np.ndarray]

#: the most episodes one run may have: episode_states takes each spawn
#: key 0..episodes-1 to be one uint32 word
MAX_EPISODES = 2**32


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 0.25
    gamma: float = 0.25
    epsilon: float = 0.25
    episodes: int = 100
    n_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("qlearn.alpha must be in (0, 1]")
        if not 0 <= self.gamma <= 1:
            raise ValueError("qlearn.gamma must be in [0, 1]")
        if not 0 <= self.epsilon <= 1:
            raise ValueError("qlearn.epsilon must be in [0, 1]")
        if not 1 <= self.episodes <= MAX_EPISODES:
            raise ValueError(f"qlearn.episodes must be in [1, 2**32], got {self.episodes}")
        if self.n_epochs < 1:
            raise ValueError("qlearn.n_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"qlearn.seed must be >= 0, got {self.seed}")


@dataclass
class EpisodeTrace:
    total_reward: float = 0.0
    epochs: int = 0
    terminated_early: bool = False


@dataclass
class RunResult:
    qtable: np.ndarray
    traces: list[EpisodeTrace]
    best_state: int
    best_power: float
    best_speed: float
    best_depth: float


#: raw 64-bit words a _Draws takes from PCG64 at a time
_CHUNK = 64
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_2_32 = 0x100000000


class _Draws:
    """The draws select_action and train ask of a Generator, made from
    the same PCG64 stream without the cost of numpy's scalar calls.

    random() and integers(n) return the values np.random.Generator(bits)
    returns, call for call, in any interleaving: random() is a raw word's
    top 53 bits times 2**-53, and integers(n), for 1 <= n <= 2**32, is
    numpy's 32-bit Lemire rejection on 32-bit halves of the raw words,
    low half first, the high half kept for the next call as PCG64's
    next_uint32 keeps it (random() leaves it in place).  n == 1 draws
    nothing.  bits is a freshly seeded PCG64 that nothing else draws from
    while this _Draws is in use; reseed(state, inc) starts it over on
    another stream, so train keeps one _Draws for a run and reseeds it
    before each episode.  _words is one list for the _Draws' lifetime,
    refilled in place, so a caller may hold its pop().
    tests/test_qlearn.py pins this against numpy's Generator."""

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, bits: np.random.PCG64):
        self._bits = bits
        self._words: list[int] = []  # reversed, so pop() takes the next
        self._half = None  # the unused high half of the last word, if any

    def reseed(self, state: int, inc: int) -> None:
        """Draw from here on as a PCG64 started at (state, inc) would."""
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        self._words.clear()
        self._half = None

    def _refill(self) -> list[int]:
        words = self._words
        words.extend(self._bits.random_raw(_CHUNK)[::-1].tolist())
        return words

    def random(self) -> float:
        return ((self._words or self._refill()).pop() >> 11) * _TO_UNIT

    def integers(self, n: int) -> int:
        if n <= 1 or n > _2_32:
            if n == 1:
                return 0
            raise ValueError(f"integers: n must be in [1, 2**32], got {n}")
        while True:
            half = self._half
            if half is None:
                w = (self._words or self._refill()).pop()
                self._half = w >> 32
                m = (w & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            low = m & 0xFFFFFFFF
            # numpy rejects low < (2**32 - n) % n, a threshold below n
            if low >= n or low >= (_2_32 - n) % n:
                return m >> 32


def _explore_bound(epsilon: float) -> int:
    """The raw-word test of random() < epsilon: a raw word w gives
    random() < epsilon exactly when w < _explore_bound(epsilon).

    random() is k * 2**-53 with k = w >> 11 < 2**53, an exact float, so
    it is below epsilon exactly when k < E = epsilon * 2**53, which a
    power-of-two scaling also keeps exact.  k is an integer, so that is
    k < ceil(E), that is w < ceil(E) << 11.  epsilon = 1 gives 2**64,
    above every word; epsilon = 0 gives 0, above none."""
    return math.ceil(epsilon * 2.0**53) << 11


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding (pcg64.h) constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: a SeedSequence's pool size, in uint32 words
_POOL = 4


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hash of uint32 words (a uint64 array of them) under
    hash constant h: (hashed value, next h).  mult is _MULT_A while
    mixing entropy and _MULT_B in generate_state."""
    value = value ^ h
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x, y):
    """SeedSequence's mix of a hashed word y into pool word x."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def episode_states(seed: int, n: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.PCG64(child) starts from,
    for each child of np.random.SeedSequence(seed).spawn(n), in order.

    A child's entropy is the seed's uint32 words, zero-padded to the
    4-word pool, then its spawn key e.  Everything before the key is the
    same for every child: that pool is SeedSequence(seed).pool, and the
    hash constant after it is _INIT_A * _MULT_A ** (4 * max(4, words))
    mod 2**32 for a seed of `words` uint32 words.  The key, the last word
    mixed in, and generate_state(4, uint64) run on uint64 arrays of
    uint32 values over all n children at once.  PCG64 then
    seeds from (initstate, initseq): inc = 2*initseq + 1, one LCG step
    from state 0, add initstate, one more step.  n <= MAX_EPISODES, so
    that each key is one word.  tests/test_qlearn.py pins this against
    numpy's own SeedSequence and PCG64."""
    if seed < 0 or not 1 <= n <= MAX_EPISODES:
        raise ValueError(f"episode_states: need seed >= 0 and n in [1, 2**32], "
                         f"got seed {seed}, n {n}")
    pool = np.random.SeedSequence(seed).pool.tolist()
    # the pool took 4 * max(4, words) _hashmix calls, each one h *= _MULT_A
    h = _INIT_A * pow(_MULT_A, 4 * max(_POOL, -(-seed.bit_length() // 32)), 1 << 32) & _M32
    keys = np.arange(n, dtype=np.uint64)
    mixed = []
    for dst in range(_POOL):
        v, h = _hashmix(keys, h)
        mixed.append(_mix(pool[dst], v))
    # generate_state(4, uint64): 8 uint32 words, read in little-endian pairs
    h = _INIT_B
    halves = []
    for k in range(2 * _POOL):
        v, h = _hashmix(mixed[k % _POOL], h, _MULT_B)
        halves.append(v)
    words = [(halves[2 * k + 1] << 32 | halves[2 * k]).tolist() for k in range(_POOL)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # the first step from state 0 gives inc
        state = (inc + (s_hi << 64 | s_lo)) & _M128
        states.append(((state * _PCG_MULT + inc) & _M128, inc))
    return states


def new_qtable(n: int) -> np.ndarray:
    return np.zeros((n * n, N_ACTIONS))


def q_update(q: QTable, s: int, a: int, r: float, s_next: int,
             next_valid: tuple[int, ...], hp: Hyperparams) -> float:
    """Apply the one-step update in place and return the new entry."""
    row = q[s_next]
    future = max([row[k] for k in next_valid])
    # algebraically identical to q + alpha*(target - q), but exact at alpha=1
    val = (1.0 - hp.alpha) * q[s][a] + hp.alpha * (r + hp.gamma * future)
    if not math.isfinite(val):
        raise ArithmeticError(f"non-finite Q-value at state {s}, action {a}")
    q[s][a] = val
    return val


def select_action(q: QTable, s: int, valid: tuple[int, ...],
                  epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the valid actions; greedy ties are broken
    uniformly at random from the same stream (first-index tie-breaking
    would bias the all-zero initial table toward action 0).  Indexing
    with rng.integers(len(seq)) makes the draw rng.choice(seq) makes,
    without its array conversion."""
    if rng.random() < epsilon:
        return valid[rng.integers(len(valid))]
    row = q[s]
    vals = [row[k] for k in valid]
    best = max(vals)
    ties = [k for k, v in zip(valid, vals) if v == best]
    return ties[rng.integers(len(ties))]


def masked_qtable(cache: DepthCache) -> list:
    """The zero Q list train starts from, with -inf at every off-grid
    (s, a), which then never wins a row's max()."""
    return np.where(cache.next_state < 0, -np.inf, 0.0).tolist()


def best_state_of(q: np.ndarray, cache: DepthCache) -> int:
    """Learned optimum: the landing state of the globally maximal
    state-action entry.

    Each Q(s, a) scores the cell the action moves *to* (rewards are
    evaluated at the landing state), so the table maps onto the grid via
    next_state[s, a], and the strongest entry points at the best process
    parameters.  Exact ties resolve to the lowest (flat id, action) for
    stable output.
    """
    masked = np.where(cache.next_state >= 0, q, -np.inf)
    s, a = divmod(int(np.argmax(masked)), N_ACTIONS)
    if masked[s, a] <= 0:
        # nothing positive was ever learned; fall back to the strongest row
        return s
    return int(cache.next_state[s, a])


def train(cache: DepthCache, rc: RewardConfig, hp: Hyperparams) -> RunResult:
    """Run hp.episodes episodes against one masked_qtable list: each
    starts from a random state and selects, moves and updates until the
    landing state is within tol_delta_mm of the target or the epoch cap.

    Each step draws, moves and updates as select_action, step and
    q_update do, in the same order.  Exploration tests the raw word
    against _explore_bound(epsilon), which decides as random() < epsilon
    does.  With off-grid entries at -inf the greedy pick is max() over
    the row; a unique max takes no draw, as select_action's integers(1)
    takes none.  That max is the step before's bootstrap max(q[nxt]),
    or one max() at an episode's start: every action leaves its state,
    so the one row written since is another.  Termination is evaluated
    on the landing state, so even a lucky start takes at least one step.
    Every landing state has a score: DepthCache is built only for a grid
    on which every depth is usable.

    Episode e draws from the PCG64 numpy seeds from child e of
    SeedSequence(hp.seed).spawn(hp.episodes), so traces are reproducible
    episode by episode: one _Draws serves the run, reseeded before each
    episode with that child's state from episode_states.
    """
    valid, moves, scores = cache.valid, cache.moves, cache.scores(rc)
    alpha, gamma, keep = hp.alpha, hp.gamma, 1.0 - hp.alpha
    explore = _explore_bound(hp.epsilon)
    q = masked_qtable(cache)
    draws = _Draws(np.random.PCG64(0))  # seeded, so it reads no OS entropy
    words, refill, integers = draws._words, draws._refill, draws.integers
    pop = words.pop
    traces = []
    for state, inc in episode_states(hp.seed, hp.episodes):
        draws.reseed(state, inc)
        s = integers(cache.grid.n_states)
        best = max(q[s])
        total = 0.0
        for epochs in range(1, hp.n_epochs + 1):
            row = q[s]
            if not words:
                refill()
            if pop() < explore:
                acts = valid[s]
                a = acts[integers(len(acts))]
            elif row.count(best) == 1:
                a = row.index(best)
            else:
                ties = [k for k, v in enumerate(row) if v == best]
                a = ties[integers(len(ties))]
            nxt = moves[s][a]
            if nxt < 0:
                raise ValueError(f"off-grid move at state {s}, action {a}: "
                                 "the Q list must hold -inf there")
            r, terminal = scores[nxt]
            best = max(q[nxt])
            val = keep * row[a] + alpha * (r + gamma * best)
            if not math.isfinite(val):
                raise ArithmeticError(f"non-finite Q-value at state {s}, action {a}")
            row[a] = val
            total += r
            s = nxt
            if terminal:
                break
        traces.append(EpisodeTrace(total, epochs, terminal))
    qtable = np.array(q)
    qtable[cache.next_state < 0] = 0.0
    best = best_state_of(qtable, cache)
    return RunResult(qtable, traces, best, *cache.params[best], cache.depth(best).depth_mm)


def write_qtable_csv(path, q: np.ndarray) -> None:
    write_csv(path, ["state_id"] + [f"a({di},{dj})" for di, dj in ACTIONS],
              ([flat, *row] for flat, row in enumerate(q.tolist())))


def write_qtable_json(path, q: np.ndarray, config_snapshot: dict, seed: int) -> None:
    write_json(path, {"config": config_snapshot, "seed": seed,
                      "generator": GENERATOR_NAME, "qtable": q.tolist()})


def write_convergence_csv(path, traces) -> None:
    write_csv(path, ["episode", "total_reward", "epochs", "terminated_early"],
              ([e, tr.total_reward, tr.epochs, int(tr.terminated_early)]
               for e, tr in enumerate(traces)))
