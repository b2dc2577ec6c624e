"""Best-response computation and the improvement loop that reaches equilibrium.

For a fixed player the cost of any candidate path splits into a per-edge
weight plus a constant, so the best response is a cheapest root-leaf path
under reweighted costs:

* an edge already carried by ``k`` other players weighs ``cost / (k + 1)``
  (the share the player would pay after joining it);
* a fresh edge weighs ``cost * (delta + 1)`` (its full share plus the page
  cost it newly adds, scaled by the cooperation weight).

The leftover term, ``delta`` times the other players' page cost, does not
depend on the candidate path, hence cheapest-path minimization is exact.

Each ``run_dynamics``, ``best_response`` or ``improving_move`` call registers
its players' roots (``GameGraph.root_masks``) before its first plan and keeps
one private state for all its best responses; only the graph's memos outlive it:

* the current profile's ``game.Tally``, changed only by ``Tally.move``. A
  best response takes the player off, reads the others' loads and page cost
  from the tally, and moves the same path back, restoring the page sum cached
  before; a move swaps the old path for the new one. Each costs O(path
  length), plus one page sum when an edge of the player's empties. The costs
  and potentials of the trace are read from it: the floats of ``cost_report``;
* each edge's weight, by the rule above, at its load: a move reweighs its
  two paths' edges, so with the player off they weigh against the others;
* a table of answers, keyed by root, leaf, current path and whether an RNG
  was given, holding what ``respond`` returned. Players with the same root,
  leaf and path see the same loads once taken off, hence the same weights,
  distances and page sum, so a stored answer equals a recomputed one bit for
  bit. Two rules keep it so: a move clears the table (``respond``'s own
  take-off and put-back do not), and an answer that drew from the RNG, or
  raised ``NoPath``, is never stored, so the stream advances as it would
  without the table. No distances are kept: a best response not in the table
  relaxes the plan of its root-leaf pair (``GameGraph.between``), in edge-id
  order, into fresh ones, infinite off the plan, and returns a path of edge
  positions.

A pair with one path (``GameGraph.only_path``), such as every player of a
document game, skips the relaxation and the tie walk below. Every other
out-edge of a node on the path leads off the plan, to an infinite distance,
so it never wins ``<`` and never stays within the tie bound. A fold back from
the leaf therefore gives the relaxation's distances, and a fold forward from
the root applies the tie walk's test to each edge; the answer is that path,
or ``NoPath`` where an edge fails the test. Floats, answers, draws (none)
and traces are those of the full relaxation and walk.

The relaxation does the same float operations and ``<`` comparisons as one
over the whole graph with freshly tallied loads. A path ties when the weight
accumulated from the root along it, plus the distance left, stays within the
bound at every edge. Whether an edge is taken therefore depends only on the
node and that accumulated float, so the number of tied completions is a
function of the pair ``(node, acc)``. One walk goes down from the root: a
node with one out-edge within the bound passes it on uncounted, so a unique
best response is neither counted nor drawn. Where two or more out-edges tie,
an explicit-stack post-order counts each one's completions, exactly, into a
memo on that pair. The first such node draws the rank when two or more paths
tie; each later one subtracts counts until the rank falls inside one branch.
A forced prefix multiplies the count by one, so the draw is over all paths
that tie from the root. When tied prefixes reach each node with bit-equal
weights, as equal costs do, the counts are linear in the plan however many
paths tie. Near-ties can give a node many accumulated weights, so the memo
stops growing at ``_MEMO_PER_NODE`` entries per graph node; a count missing
from it is made again. Distances, tie counts, accumulated weights, RNG draws
and traces are therefore bit-identical to rebuilding everything and listing
the tied paths for each best response.

Sums from the root and sums from the leaf round differently, by more than
``TOLERANCE`` once costs are large. The tie bound and the move and
equilibrium tests therefore use ``game.slack``, which is ``TOLERANCE`` unless
the terms summed times one ulp of the value exceed it.

Randomness is confined to tie-breaking among cheapest paths and to the
optional random activation order; both draw from one ``SplitMix64`` stream
seeded by the schedule, and the stream is consulted only when there are at
least two tied candidates, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvalidProfile, NoPath, UnknownPlayer
from .game import (
    TOLERANCE,
    GameGraph,
    Player,
    StrategyProfile,
    Tally,
    slack,
    validate_profile,
)
from .rng import SplitMix64

#: The tie memo of one best response holds at most this many entries per
#: graph node; subtrees past it are walked again when needed.
_MEMO_PER_NODE = 4


@dataclass(frozen=True)
class Schedule:
    """Player activation order: fixed round-robin or a seeded shuffle per pass."""

    kind: str = "round-robin"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("round-robin", "random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")


class Step(NamedTuple):
    """One player activation inside the improvement loop."""

    iteration: int
    player_id: int
    previous_cost: float
    new_cost: float
    potential_after: float
    path_changed: bool
    path: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[Step, ...]
    converged: bool
    final_profile: StrategyProfile
    initial_profile: StrategyProfile
    passes: int


def reweight(
    graph: GameGraph, profile: StrategyProfile, player_id: int, delta: float = 0.0
) -> dict[str, float]:
    """Per-edge weights seen by one player given everyone else's paths."""
    if player_id not in profile.paths:
        raise UnknownPlayer(player_id)
    state = _State(graph, profile, delta)
    state.move(player_id, ())
    return dict(zip(graph.edge_ids, state.weights))


class _State(Tally):
    """The per-call best-response state of the module docstring: a tally,
    ``weights``, each edge's weight at its load, which a move keeps in
    O(path length), and the answers ``respond`` gave since the last move."""

    def __init__(self, graph: GameGraph, profile: StrategyProfile, delta: float):
        super().__init__(graph, profile, delta)
        self.weights = [0.0] * len(self.loads)
        self._weigh(range(len(self.loads)))
        self._answers: dict = {}

    def _weigh(self, edges) -> None:
        loads, costs, weights, fresh = self.loads, self.graph.costs, self.weights, self.delta + 1.0
        for e in edges:
            k = loads[e]
            weights[e] = costs[e] / (k + 1) if k else costs[e] * fresh

    def move(self, player_id: int, new: tuple[int, ...]) -> None:
        self._answers.clear()
        self._shift(player_id, new)

    def _shift(self, player_id: int, new: tuple[int, ...]) -> None:
        """``move`` that keeps the answers: for ``respond``'s take-off and
        put-back, which leave the profile as it was."""
        old = self.paths.get(player_id, ())
        super().move(player_id, new)
        self._weigh(old)
        self._weigh(new)

    def _relax(self, plan: tuple[int, ...], target: int) -> list[float]:
        """Cheapest weight to ``target`` from each node of ``plan``; infinite off it."""
        weights, heads, outs = self.weights, self.graph.heads, self.graph.outs
        dist = [math.inf] * len(outs)
        dist[target] = 0.0
        for node in plan:
            best = math.inf
            for e in outs[node]:
                through = weights[e] + dist[heads[e]]
                if through < best:
                    best = through
            dist[node] = best
        return dist

    def _fold(self, line: tuple[int, ...]) -> list[float]:
        """``_relax`` for a pair whose plan is the one path ``line``: the
        cheapest weight to its end from each of its nodes, root first and
        the end's 0 last. Every other out-edge of these nodes has its head
        off the plan, at an infinite distance, so it never wins ``<``."""
        weights = self.weights
        dist = [0.0]
        for e in reversed(line):
            through = weights[e] + dist[-1]
            dist.append(through if through < math.inf else math.inf)
        dist.reverse()
        return dist

    def _follow(
        self, line: tuple[int, ...], bound: float, dist: list
    ) -> tuple[tuple[int, ...], float, bool] | None:
        """``_ties`` for the one path ``line``, with the distances of
        ``_fold``: ``line``, its accumulated weight and ``False``, if every
        edge stays within ``bound``; ``None`` if one does not. Off the plan
        no edge ever stays within it, so nothing is counted or drawn."""
        weights = self.weights
        acc = 0.0
        for e, rest in zip(line, dist[1:]):
            if not acc + weights[e] + rest <= bound:
                return None
            acc += weights[e]
        return line, acc, False

    def _count(self, start: int, start_acc: float, target: int, bound: float, dist, memo) -> int:
        """Number of ``start``-target paths that stay within ``bound`` after
        ``start_acc`` has been accumulated to ``start``: 1 at the target, else
        read from ``memo`` under ``(start, start_acc)`` or, past its cap,
        counted again. Each subtree a count finishes goes into ``memo`` while
        the memo is below its cap."""
        if start == target:
            return 1
        total = memo.get((start, start_acc))
        if total is not None:
            return total
        heads, outs, weights = self.graph.heads, self.graph.outs, self.weights
        cap = _MEMO_PER_NODE * len(outs)
        # One entry per node above the current one: its out-edge iterator,
        # accumulated weight and count so far, and the memo key of the node
        # its edge down reaches.
        stack: list = []
        frame, acc, total = iter(outs[start]), start_acc, 0
        while True:
            for e in frame:
                through = acc + weights[e]
                head = heads[e]
                if through + dist[head] <= bound:
                    if head == target:
                        total += 1
                        continue
                    key = (head, through)
                    below = memo.get(key)
                    if below is None:
                        stack.append((frame, acc, total, key))
                        frame, acc, total = iter(outs[head]), through, 0
                        break
                    total += below
            else:
                if not stack:
                    return total
                frame, acc, above, key = stack.pop()
                if len(memo) < cap:
                    memo[key] = total
                total += above

    def _ties(
        self, root: int, target: int, bound: float, dist: list, rng: SplitMix64
    ) -> tuple[tuple[int, ...], float, bool] | None:
        """One root-target path of edge positions within ``bound``, drawn
        uniformly by its lexicographic rank, with its accumulated weight and
        whether the RNG was consulted, which it is only when two or more tie;
        ``None`` if there is none."""
        heads, outs, weights = self.graph.heads, self.graph.outs, self.weights
        memo: dict = {}
        path: list[int] = []
        node, acc, rank, drew = root, 0.0, None, False
        while node != target:
            tied = [e for e in outs[node] if acc + weights[e] + dist[heads[e]] <= bound]
            if not tied:
                return None
            e = tied[0]
            if len(tied) > 1:
                counts = (self._count(heads[e], acc + weights[e], target, bound, dist, memo)
                          for e in tied)
                if rank is None:
                    counts = list(counts)
                    total = sum(counts)
                    if not total:
                        return None
                    drew = total > 1
                    rank = rng.randrange(total) if drew else 0
                for e, below in zip(tied, counts):
                    if rank < below:
                        break
                    rank -= below
            path.append(e)
            node, acc = heads[e], acc + weights[e]
        return tuple(path), acc, drew

    def respond(
        self, player_id: int, root: str, leaf: str, rng: SplitMix64 | None = None
    ) -> tuple[tuple[int, ...] | None, float | None, float]:
        """Chosen path (edge positions), its cost, and the least attainable cost
        for the player against the others' paths; without ``rng``, only the last.

        Paths within the slack (``TOLERANCE`` for moderate costs) of the
        cheapest weight tie. The RNG is consulted only when two or more tie,
        to draw one by its lexicographic rank. The tally ends as it started.
        An answer from the table of answers is returned as stored.
        """
        own = self.paths.get(player_id)
        key = (root, leaf, own, rng is None)
        answer = self._answers.get(key)
        if answer is not None:
            return answer
        plan = self.graph.between(root, leaf)
        if not plan:
            raise NoPath(player_id, root, leaf)
        line = self.graph.only_path(root, leaf)
        page = self._page
        if own:
            self._shift(player_id, ())
        if line is None:
            position = self.graph.node_position
            start, target = position[root], position[leaf]
            dist = self._relax(plan, target)
        else:
            start, dist = 0, self._fold(line)
        best = dist[start]
        chosen = None
        if rng is not None and not math.isinf(best):
            bound = best + slack(best, len(plan))
            if line is None:
                chosen = self._ties(start, target, bound, dist, rng)
            else:
                chosen = self._follow(line, bound, dist)
        others = self.delta * self.page() if self.delta else 0.0
        if own:
            self._shift(player_id, own)
        self._page = page
        if rng is None:
            answer = None, None, best + others
        elif chosen is None:
            raise NoPath(player_id, root, leaf)
        else:
            path, weight, drew = chosen
            answer = path, weight + others, best + others
            if drew:
                return answer
        self._answers[key] = answer
        return answer

    def improves(self, root: str, leaf: str, attainable: float, current: float) -> bool:
        """True iff ``attainable`` undercuts ``current`` by more than the
        slack of sums over the root-leaf plan (and, with ``delta``, the page)."""
        if attainable >= current - TOLERANCE:  # slack() is never below it
            return False
        terms = len(self.graph.between(root, leaf)) + (len(self.used) if self.delta else 0)
        return attainable < current - slack(current, terms)


def best_response(
    graph: GameGraph,
    profile: StrategyProfile,
    player_id: int,
    delta: float = 0.0,
    seed: int = 0,
) -> tuple[str, ...]:
    """A path minimizing the player's cost against everyone else's paths.

    The player's root and leaf are read off its current path. Tied paths
    are drawn uniformly from the seeded generator.
    """
    root, leaf = _ends(graph, player_id, profile.path(player_id))
    path = _State(graph, profile, delta).respond(player_id, root, leaf, SplitMix64(seed))[0]
    return tuple([graph.edge_ids[e] for e in path])


def _ends(graph: GameGraph, player_id: int, path: tuple[str, ...]) -> tuple[str, str]:
    """The root and leaf of a profile's path, read off its first and last
    edges; ``InvalidProfile`` for an empty path."""
    if not path:
        raise InvalidProfile(player_id, "path is empty")
    return graph.edge(path[0]).src, graph.edge(path[-1]).dst


def improving_move(
    graph: GameGraph, profile: StrategyProfile, delta: float = 0.0
) -> tuple[int, tuple[str, ...]] | None:
    """The first player, in id order, that the move test of ``run_dynamics``
    lets improve, with the path ``best_response(..., seed=0)`` gives it;
    ``None`` when no player can improve."""
    state = _State(graph, profile, delta)
    ends = {pid: _ends(graph, pid, path) for pid, path in profile.items()}
    graph.root_masks([root for root, _ in ends.values()])
    for pid, (root, leaf) in ends.items():
        if state.improves(root, leaf, state.respond(pid, root, leaf)[2], state.cost(pid)):
            chosen = state.respond(pid, root, leaf, SplitMix64(0))[0]
            return pid, tuple([graph.edge_ids[e] for e in chosen])
    return None


def is_nash(graph: GameGraph, profile: StrategyProfile, delta: float = 0.0) -> bool:
    """True iff no player can cut its cost by more than the slack
    (``TOLERANCE`` for moderate costs)."""
    return improving_move(graph, profile, delta) is None


def run_dynamics(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    schedule: Schedule | None = None,
    max_iters: int = 10000,
    initial: StrategyProfile | None = None,
) -> DynamicsTrace:
    """Iterate best responses until a full pass makes no move.

    One iteration is a full pass over all players. A player moves only when
    its best response improves its cost by more than the slack; the move
    test compares against the exact cheapest-path value, the same quantity
    ``is_nash`` checks, so a converged profile is always an equilibrium.
    When ``max_iters`` passes end without a quiet pass the trace is returned
    with ``converged=False``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    schedule = schedule or Schedule()
    players = tuple(players)
    graph.root_masks([player.root for player in players])
    rng = SplitMix64(schedule.seed)

    if initial is None:
        # Greedy start: each player best-responds to those placed before it.
        state = _State(graph, StrategyProfile({}), delta)
        for player in players:
            pid = player.player_id
            state.move(pid, state.respond(pid, player.root, player.leaf, rng)[0])
        initial = state.profile()
    else:
        validate_profile(graph, players, initial)
        state = _State(graph, initial, delta)

    ids = graph.edge_ids
    steps: list[Step] = []
    potential = state.potential()
    for passes in range(1, max_iters + 1):
        order = list(players)
        if schedule.kind == "random":
            rng.shuffle(order)
        moved = False
        for player in order:
            pid = player.player_id
            previous = state.cost(pid)
            path, new_cost, attainable = state.respond(pid, player.root, player.leaf, rng)
            if state.improves(player.root, player.leaf, attainable, previous):
                state.move(pid, path)
                potential = state.potential()
                steps.append(Step(passes, pid, previous, new_cost, potential, True,
                                  tuple([ids[e] for e in path])))
                moved = True
            else:
                steps.append(Step(passes, pid, previous, previous, potential, False, None))
        if not moved:
            break

    return DynamicsTrace(
        steps=tuple(steps),
        converged=not moved,
        final_profile=state.profile(),
        initial_profile=initial,
        passes=passes,
    )
