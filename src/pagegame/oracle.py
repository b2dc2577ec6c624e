"""Exhaustive ground truth at desk scale.

Everything here works by enumeration straight from the cost definitions:
candidate paths are listed explicitly, profiles come from the Cartesian
product, and a profile counts as an equilibrium only if no player has any
listed alternative path that beats its current cost. Sharing only graph
data with :mod:`pagegame.dynamics`, not its reweighting shortcut, makes
agreement between the two routes a real check, not a tautology.

A player's deviation options depend only on the other players' loads, so
the equilibrium search sweeps each player over the combinations of the
others' paths: for each it tallies their loads and page cost, scores
every candidate path of the player once, and clears the stability flag of
each profile in that combination that some candidate beats. The flags are
one byte per profile, indexed by the profile's rank in product order; only
the profiles left standing get a cost report. A profile's flag is the AND
of one verdict per player and combination, and no verdict reads the flags,
so the sweep order is free:
- Players go widest first (most paths), and the sweep stops at the first
  player with one path, who cannot improve. The widest player's sweep has
  the fewest combinations and refutes the most profiles, so later sweeps
  skip more. Interchangeable players go one after another: a group is a
  root-leaf pair, whose players share one candidate list, and among
  equally wide players groups go in the order of their first player's
  declaration.
- A sweep scores only the combinations with a profile still standing. It
  finds them in bulk: the flags read as one integer are ORed with shifts
  of themselves in ``ceil(log2 n)`` doubling steps (``n`` the player's path
  count), masked to each combination's first profile, and walked with
  ``itertools.compress``.
- A group's sweeps score each load pattern of the others once, as long
  as the group's verdict table has room. Every
  path is packed into one integer, a digit per candidate edge in base the
  player count, so the sum of the others' packed paths is a key that fixes
  their whole load vector and with it every input of a verdict. A
  combination whose key the group has already scored reuses that verdict,
  the candidates it beat as one byte each: the members have the same
  candidates, and the key fixes the loads whichever of them is swept.
- Each group builds one share table for its candidate edges only:
  ``shares[k] == cost / (k + 1)``, the same float as the division, for
  each load ``k`` another player can bring to the edge.

Paths are held as tuples of edge declaration positions, listed once per
root-leaf pair; only the profiles returned are named back in edge ids.
Memory beyond the flags is a few integers and byte strings of one byte
per profile, a share table no larger than the group's edges times the
players, one packed integer per path (smaller than the path's tuple), and
one verdict table at a time, made when a group's first sweep starts and
dropped when the next group's does. It takes verdicts until it holds one
per 32 profiles (``_PROFILES_PER_VERDICT``) and then keeps those; each is
a key of about ``log2 P`` bits per candidate edge (``P`` players) and one
byte per candidate of the group.

The social optimum is a depth-first walk over the same product, player 0
outermost, that places one path per level and moves one ``loads`` list in
place. Each level carries the running sum of the costs of the edges it
uses first; a leaf sums its union in declaration order as
:func:`page_cost` does and wins only when strictly cheaper, so the first
cheapest profile in product order is kept. A subtree is skipped when its
running sum, less ``2 * E`` ulps of itself (``E`` the graph's edge count),
is not below the best leaf. That bound is sound: round-to-nearest
addition of non-negative terms is monotone, so the declaration-order sum of
a prefix's union never exceeds that of any completion's; and summing the
same ``k <= E`` terms in two orders rounds at most about ``2 * (k - 1)``
ulps apart (the recursive-summation error bound), which ``2 * E`` ulps
cover. The walk keeps its own stack, so long player lists need no
recursion.

The walk visits only the profiles whose path indices never fall from one
interchangeable player to the next: each player's paths start at the
index of the last player above it with the same candidate list. That
loses no first cheapest profile. Sorting the indices within each group
permutes the chosen paths among players with the same candidates, so the
loads, the union and its declaration-order sum stay the same, and the
sorted profile comes no later in product order. The first cheapest
profile is therefore sorted already.

The product enumeration is capped (default one million profiles). Each
player's paths are counted first (``GameGraph.path_count``, the counter
behind ``check``'s cap too), without listing them, so a larger space is
refused with :class:`SearchSpaceTooLarge` before any path is listed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NoEquilibria, NoPath, SearchSpaceTooLarge
from .game import (
    TOLERANCE,
    CostReport,
    GameGraph,
    Player,
    StrategyProfile,
    cost_report,
    ordered_sum,
    slack,
)

DEFAULT_CAP = 10**6

#: A group's verdict table takes at most one verdict per this many
#: profiles; a key that finds it full is scored each time it comes back.
_PROFILES_PER_VERDICT = 32


@dataclass(frozen=True)
class EquilibriumEntry:
    profile: StrategyProfile
    report: CostReport
    is_forest: bool


@dataclass(frozen=True)
class EquilibriumCatalog:
    """All pure equilibria of an instance plus the social optimum and ratios."""

    equilibria: tuple[EquilibriumEntry, ...]
    optimum: StrategyProfile
    optimum_cost: float
    poa: float
    pos: float


def enumerate_paths(graph: GameGraph, root: str, leaf: str) -> list[tuple[str, ...]]:
    """All simple directed root-leaf paths, lexicographic by edge-id sequence.

    The graph is acyclic so every directed path is simple; the list is empty
    when the leaf is unreachable. Only edges into the leaf or into the
    pair's plan (``GameGraph.between``) are followed.
    """
    if root == leaf:
        return [()] if root in graph else []
    plan = graph.between(root, leaf)
    if not plan:
        return []
    heads, outs, ids = graph.heads, graph.outs, graph.edge_ids
    target, live = graph.node_position[leaf], set(plan)
    paths: list[tuple[str, ...]] = []
    # frames[d] runs over the out-edges of the node that prefix[:d] reaches.
    frames: list = [None] * len(plan)
    prefix: list = [None] * len(plan)
    frames[0] = iter(outs[plan[-1]])
    depth = 0
    while depth >= 0:
        for e in frames[depth]:
            prefix[depth] = ids[e]
            head = heads[e]
            if head == target:
                paths.append(tuple(prefix[: depth + 1]))
            elif head in live:
                depth += 1
                frames[depth] = iter(outs[head])
                break
        else:
            depth -= 1
    return paths


def pair_paths(graph: GameGraph, players: Sequence[Player]) -> list[list[tuple[int, ...]]]:
    """Each player's root-leaf paths as tuples of edge positions, in
    :func:`enumerate_paths` order, listed once per root-leaf pair: its
    players share one list object, which is how the sweep and the optimum
    walk tell interchangeable players."""
    pairs: dict[tuple[str, str], list] = dict.fromkeys((p.root, p.leaf) for p in players)
    for root, leaf in pairs:
        pairs[root, leaf] = list(map(graph.positions, enumerate_paths(graph, root, leaf)))
    return [pairs[p.root, p.leaf] for p in players]


def _candidate_paths(
    graph: GameGraph, players: Sequence[Player], cap: int
) -> list[list[tuple[int, ...]]]:
    """:func:`pair_paths`, after the counts: before any path is listed, the
    first player without one raises :class:`NoPath`, and a product of the
    path counts above ``cap`` raises :class:`SearchSpaceTooLarge`."""
    graph.root_masks([player.root for player in players])
    size = 1
    for player in players:
        count = graph.path_count(player.root, player.leaf)
        if not count:
            raise NoPath(player.player_id, player.root, player.leaf)
        size *= count
    if size > cap:
        raise SearchSpaceTooLarge(size, cap)
    return pair_paths(graph, players)


def _profile(graph: GameGraph, players: Sequence[Player], paths: Sequence) -> StrategyProfile:
    """Each player's path of ``paths``, named back from positions to edge ids."""
    name = graph.edge_ids.__getitem__
    return StrategyProfile(
        {player.player_id: tuple(map(name, path)) for player, path in zip(players, paths)}
    )


def _deviation_costs(
    candidates: list[tuple[tuple[int, float, tuple[float, ...]], ...]],
    loads: list[int],
    others_cost: float,
    delta: float,
) -> list[float]:
    """Cost of each candidate path straight from the sharing definitions.

    Each candidate edge is ``(position, cost, shares)`` with ``shares[k] ==
    cost / (k + 1)``: joining an edge already used by ``k`` others makes its
    load ``k + 1``. The page cost is the others' page cost plus every newly
    used edge. Positions index ``loads`` by edge declaration order.
    """
    scores = []
    for candidate in candidates:
        shared = 0.0
        added = 0.0
        for position, cost, shares in candidate:
            k = loads[position]
            shared += shares[k]
            if not k:
                added += cost
        scores.append(shared + delta * (others_cost + added))
    return scores


def _packed_paths(
    indexed: list[list[tuple[int, ...]]], edges: list[set[int]]
) -> list[list[int]]:
    """Each path as one integer, ``sum(radix ** rank(e))`` over its edges.

    ``rank`` numbers all candidate edges, and ``radix`` is the player
    count: another player adds at most 1 to an edge, so the loads others
    bring sum to digits below the radix that never carry. A sum of packed
    paths therefore fixes the load of every candidate edge.
    """
    digit = {}
    power = 1
    for e in sorted(set().union(*edges)):
        digit[e] = power
        power *= len(indexed)
    return [[sum(map(digit.__getitem__, path)) for path in paths] for paths in indexed]


def _stability_flags(
    graph: GameGraph, path_sets: list[list[tuple[int, ...]]], delta: float
) -> bytearray:
    """One byte per profile in product order: 1 when no player can improve.

    ``path_sets`` is :func:`_candidate_paths`' output: players on one
    root-leaf pair share one list. Player ``i``'s index contributes ``index
    * strides[i]`` to a profile's rank, so the profiles that differ only in
    player ``i``'s path sit ``strides[i]`` apart; the one with index 0 (its
    base) stands for that combination of the others' paths. The module
    docstring describes the sweep order, the keys, the verdict tables and
    the memory.

    An improvement must beat ``game.slack`` of the current cost over the
    terms the README counts: one per node on the player's paths save one
    endpoint (counted here by edge heads), plus, with ``delta``, one per
    edge the profile uses.
    """
    costs, heads = graph.costs, graph.heads
    sizes = [len(paths) for paths in path_sets]
    strides = [1] * len(path_sets)
    for i in range(len(path_sets) - 1, 0, -1):
        strides[i - 1] = strides[i] * sizes[i]
    total = math.prod(sizes)
    room = total // _PROFILES_PER_VERDICT
    flags = bytearray(b"\x01") * total
    # group[i]: the first player sharing player i's candidate list.
    firsts: dict[int, int] = {}
    group = [firsts.setdefault(id(paths), i) for i, paths in enumerate(path_sets)]
    swept = None
    for i in sorted(range(len(path_sets)), key=lambda j: (-sizes[j], group[j])):
        size, stride, candidates = sizes[i], strides[i], path_sets[i]
        if size == 1:
            break
        if swept is None:
            # Made at the first sweep, so a game where no one chooses skips it.
            # edges[i]: player i's candidate edges; users[e]: the players with e
            # among theirs, so no one joining e finds more than users[e] - 1 there.
            edges = [set().union(*paths) for paths in path_sets]
            users = [0] * len(costs)
            for own in edges:
                for e in own:
                    users[e] += 1
            # Scores stay below 2 * (1 + delta) times the total edge cost. Where
            # slack() of that bound over the most terms a player can count is
            # TOLERANCE, it is TOLERANCE for every score and the terms need no
            # counting.
            top = 2 * (1 + delta) * math.fsum(costs)
            packed = _packed_paths(path_sets, edges)
        if group[i] != swept:
            # The group's share table, scored candidates and slack terms, and
            # verdicts[key]: the candidates beaten, one byte each, under the
            # others' loads that key packs.
            swept, verdicts = group[i], {}
            nodes = len({heads[e] for e in edges[i]})
            tolerance_only = slack(top, nodes + (len(costs) if delta else 0)) == TOLERANCE
            table = {
                e: (e, costs[e], tuple(costs[e] / (k + 1) for k in range(users[e])))
                for e in edges[i]
            }
            scored = [tuple(map(table.__getitem__, path)) for path in candidates]
        others = [(path_sets[j], strides[j], sizes[j]) for j in range(len(path_sets)) if j != i]
        keyed = [(packed[j], strides[j], sizes[j]) for j in range(len(path_sets)) if j != i]
        # Each byte of live holds the OR of span flags, stride apart from
        # its own; a shift by step <= span strides extends that to
        # span + step. Masked to the bases, a byte is 1 when its
        # combination has a profile standing.
        live = int.from_bytes(flags, "little")
        span = 1
        while span < size:
            step = min(span, size - span)
            live |= live >> (8 * step * stride)
            span += step
        block = size * stride
        live &= int.from_bytes(
            (b"\x01" * stride + bytes(block - stride)) * (total // block), "little"
        )
        for base in itertools.compress(range(total), live.to_bytes(total, "little")):
            key = 0
            for keys, s, n in keyed:
                key += keys[base // s % n]
            verdict = verdicts.get(key)
            if verdict is not None:
                for c in itertools.compress(range(size), verdict):
                    flags[base + c * stride] = 0
                continue
            loads = [0] * len(costs)
            for paths, s, n in others:
                for e in paths[base // s % n]:
                    loads[e] += 1
            others_cost = ordered_sum(itertools.compress(costs, loads))
            scores = _deviation_costs(scored, loads, others_cost, delta)
            best = min(scores)
            beaten = bytearray(size)
            for c, score in enumerate(scores):
                if best < score - TOLERANCE:  # slack() is never below it
                    if not tolerance_only:
                        terms = nodes
                        if delta:
                            terms += len(loads) - loads.count(0)
                            terms += sum(not loads[e] for e in candidates[c])
                        if best >= score - slack(score, terms):
                            continue
                    flags[base + c * stride] = 0
                    beaten[c] = 1
            if len(verdicts) < room:
                verdicts[key] = bytes(beaten)
    return flags


def union_is_forest(graph: GameGraph, profile: StrategyProfile) -> bool:
    """Whether the union of all chosen paths is cycle-free when undirected.

    Parallel edges count separately: two players on parallel edges between
    the same nodes already form an undirected cycle.
    """
    used = set().union(*profile.paths.values())
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in graph.edges:
        if edge.edge_id not in used:
            continue
        parent.setdefault(edge.src, edge.src)
        parent.setdefault(edge.dst, edge.dst)
        a, b = find(edge.src), find(edge.dst)
        if a == b:
            return False
        parent[a] = b
    return True


def brute_force_equilibria(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> tuple[EquilibriumEntry, ...]:
    """Every pure equilibrium, in product-enumeration order."""
    players = tuple(players)
    return _equilibria(graph, players, _candidate_paths(graph, players, cap), delta)


def _equilibria(
    graph: GameGraph,
    players: tuple[Player, ...],
    path_sets: list[list[tuple[int, ...]]],
    delta: float,
) -> tuple[EquilibriumEntry, ...]:
    flags = _stability_flags(graph, path_sets, delta)
    entries: list[EquilibriumEntry] = []
    for combo in itertools.compress(itertools.product(*path_sets), flags):
        profile = _profile(graph, players, combo)
        entries.append(
            EquilibriumEntry(
                profile=profile,
                report=cost_report(graph, profile, delta),
                is_forest=union_is_forest(graph, profile),
            )
        )
    return tuple(entries)


def social_optimum(
    graph: GameGraph, players: Sequence[Player], cap: int = DEFAULT_CAP
) -> StrategyProfile:
    """The profile with minimum page cost; first in enumeration order wins ties."""
    players = tuple(players)
    return _optimum(graph, players, _candidate_paths(graph, players, cap))[0]


def _optimum(
    graph: GameGraph, players: tuple[Player, ...], path_sets: list[list[tuple[int, ...]]]
) -> tuple[StrategyProfile, float]:
    """The first cheapest profile in product order and its page cost, by the
    pruned walk the module docstring describes, over interchangeable
    players' paths in nondecreasing index order only."""
    costs = graph.costs
    margin = 2 * len(costs)
    loads = [0] * len(costs)
    # chosen[d] is the index of player d's placed path (-1: none placed);
    # totals[d] the running cost of the edges the players above d use.
    # Player d's paths start at the index of previous[d], the last player
    # above it sharing its candidate list, or at the 0 that ends chosen.
    chosen = [-1] * len(path_sets) + [0]
    previous, last = [], {}
    for d, paths in enumerate(path_sets):
        previous.append(last.get(id(paths), -1))
        last[id(paths)] = d
    totals = [0.0] * (len(path_sets) + 1)
    best_cost, best = math.inf, []
    depth = 0
    while depth >= 0:
        if depth == len(path_sets):
            cost = ordered_sum(itertools.compress(costs, loads), 0.0)
            if cost < best_cost:
                best_cost, best = cost, list(chosen)
            depth -= 1
            continue
        paths, k = path_sets[depth], chosen[depth]
        if k >= 0:
            for e in paths[k]:
                loads[e] -= 1
            k += 1
        else:
            k = chosen[previous[depth]]
        if k == len(paths):
            chosen[depth] = -1
            depth -= 1
            continue
        chosen[depth] = k
        total = totals[depth]
        for e in paths[k]:
            if not loads[e]:
                total += costs[e]
            loads[e] += 1
        if total - slack(total, margin) < best_cost:
            totals[depth + 1] = total
            depth += 1
    return _profile(graph, players, [paths[k] for paths, k in zip(path_sets, best)]), best_cost


def analyze(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> EquilibriumCatalog:
    """Full catalog: equilibria, social optimum, and the prices of anarchy
    and stability, the dearest and the cheapest equilibrium's page cost over
    the optimum's. A zero-cost optimum yields ratio 1 when the equilibrium
    is also free, and infinity otherwise."""
    players = tuple(players)
    path_sets = _candidate_paths(graph, players, cap)
    entries = _equilibria(graph, players, path_sets, delta)
    if not entries:
        raise NoEquilibria()
    optimum, optimum_cost = _optimum(graph, players, path_sets)

    def ratio(cost: float) -> float:
        if optimum_cost > 0.0:
            return cost / optimum_cost
        return 1.0 if cost == 0.0 else math.inf

    costs = [entry.report.page_cost for entry in entries]
    return EquilibriumCatalog(entries, optimum, optimum_cost, ratio(max(costs)), ratio(min(costs)))
