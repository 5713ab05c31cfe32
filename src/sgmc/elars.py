"""Extended least angle regression: deletion-insertion steps along parameter
lines, the piecewise-linear path driver, and zone enumeration.

A single step starts from an indicator whose zone contains the moving point
(b(t), lambda(t)), computes in closed form the time t_plus at which the point
leaves that zone, and edits the indicator by the events that the exit scan
(`sweep.zone_exit_times`) names there: support entries whose sign
constraint binds at t_plus are deleted, off-support entries whose
correlation bound binds are inserted with the sign of that bound.  Event
times within the line's tie window (`ParameterLine.window`) are one event.
Chaining verified steps yields the solution map along the whole line;
sweeping from the zero zone at b = 0 to sampled parameter points discovers
the zones that hold them and the adjacency between the zones on the way.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .candidate import (
    CandidatePiece,
    candidate_slope,
    in_zone,
    next_piece,
    zone_margins,
)
from .model import (
    ProblemInstance,
    as_indicator,
    indicator_from_string,
    indicator_to_string,
    zero_indicator,
)
from .optimality import encode_sopt
from .oracle import solve_saddle
from .sweep import ParameterLine, ZoneExit, restrict_to_line, zone_exit_times


class InitializationError(ValueError):
    """Raised by `path_sweep` alone, when it refuses a start indicator,
    the zero zone's or the oracle's (`initialize_indicator`): one whose
    zone is incompatible or whose interval on the line misses t_start.
    A ValueError, so that a caller that catches bad input catches it too;
    the command line exits 2 on it, as a numerical failure at a start a
    valid instance can have."""


def elars_iterate(piece: CandidatePiece, line: ParameterLine) -> ZoneExit:
    """One E-LARS step along `line` out of the zone of `piece`.

    The zone is restricted to the line once, through the structural
    matrices the piece holds (`CandidatePiece.mats`), and its exit scan
    (`zone_exit_times`) is the step: the breakpoint, the events there and
    the next indicator they make (deletions zero their signs, insertions
    take the sign of the bound they reach, and the wall ends the path).  A
    caller holding an indicator builds its piece with `candidate_slope`
    first.
    """
    return zone_exit_times(restrict_to_line(piece, line))


# -- path driver -------------------------------------------------------------

def _finite_to_json(x: float):
    """A segment end for JSON: "inf" for a ray's, a float otherwise (no end
    is -inf, as t_start is finite and t_end >= t_start)."""
    return "inf" if x == math.inf else float(x)


@dataclass(frozen=True)
class PathSegment:
    """One linear piece of the solution map along a line: on [t_start, t_end]
    the map is w(t) = q - p*t with indicator s, an int8 array of 2n bytes
    (`as_indicator`).  `deleted`/`inserted` record the transition into the
    next segment (empty on final segments).  t_start = t_end where the line
    only touches the zone.

    The map is zero off the support E = `np.flatnonzero(s)`, so only
    `pq` = [p_E; q_E], a (2, |E|) array in ascending index order, is
    stored.  `p` and `q` expand it to length 2n, as the line restriction
    holds them: p is -0.0 and q is 0.0 off E.  `from_dict` refuses a
    segment whose s, p and q differ in length, or whose p or q is nonzero
    off E, with a ValueError that names the segment (`index`, when
    given) and the lengths or the index."""

    s: np.ndarray
    t_start: float
    t_end: float
    pq: np.ndarray
    deleted: tuple[int, ...]
    inserted: tuple[int, ...]

    def _expand(self, values: np.ndarray, fill: float) -> np.ndarray:
        out = np.full(self.s.size, fill)
        out[np.flatnonzero(self.s)] = values
        return out

    p = property(lambda self: self._expand(self.pq[0], -0.0))
    q = property(lambda self: self._expand(self.pq[1], 0.0))

    def weq_at(self, t: float) -> np.ndarray:
        return self._expand(self.pq[1] - self.pq[0] * t, 0.0)

    def to_dict(self) -> dict:
        return {
            "s": indicator_to_string(self.s),
            "t_range": [_finite_to_json(self.t_start), _finite_to_json(self.t_end)],
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "deleted": list(self.deleted),
            "inserted": list(self.inserted),
        }

    @staticmethod
    def from_dict(data: dict, index: int | None = None) -> "PathSegment":
        name = "segment" if index is None else f"segment {index}"
        s = indicator_from_string(data["s"])
        p, q = (np.array(data[key], dtype=float) for key in ("p", "q"))
        if not p.shape == q.shape == s.shape:
            raise ValueError(f"{name}: s, p and q must have equal length, "
                             f"got {s.size}, {p.size} and {q.size}")
        off = np.flatnonzero(((p != 0) | (q != 0)) & (s == 0))
        if off.size:
            raise ValueError(f"{name}: p or q is nonzero at index {off[0]}, off the support of s")
        return PathSegment(
            s=s,
            t_start=float(data["t_range"][0]),
            t_end=float(data["t_range"][1]),
            pq=np.stack([p, q]).take(np.flatnonzero(s), axis=1),
            deleted=tuple(data["deleted"]),
            inserted=tuple(data["inserted"]),
        )


@dataclass(frozen=True)
class PathSweepResult:
    """Segments of a sweep, why it stopped and its line.  The counters
    say where each zone's piece came from: updated from the previous
    zone's by `next_piece`, built from an SVD by `candidate_slope` (the
    start zone, multi-index edits and the updates that fell back), or
    found in the caller's memo."""

    segments: tuple[PathSegment, ...]
    stop_reason: str
    line: ParameterLine
    pieces_updated: int = 0
    pieces_rebuilt: int = 0
    memo_hits: int = 0

    @property
    def truncated(self) -> bool:
        return self.stop_reason == "max_segments"

    def to_dict(self) -> dict:
        return {
            "segments": [seg.to_dict() for seg in self.segments],
            "truncated": self.truncated,
            "stop_reason": self.stop_reason,
            "line": {
                "b0": self.line.b0.tolist(),
                "lambda0": self.line.lam0,
                "delta_b": self.line.delta_b.tolist(),
                "delta_lambda": self.line.delta_lam,
            },
            "counters": {
                "pieces_updated": self.pieces_updated,
                "pieces_rebuilt": self.pieces_rebuilt,
                "memo_hits": self.memo_hits,
            },
        }


def line_from_dict(data: dict) -> ParameterLine:
    return ParameterLine(
        b0=np.array(data["b0"], dtype=float),
        lam0=float(data["lambda0"]),
        delta_b=np.array(data["delta_b"], dtype=float),
        delta_lam=float(data["delta_lambda"]),
    )


def _memoized(pieces: dict[bytes, CandidatePiece] | None, s: np.ndarray, build,
              counts: dict[str, int]) -> CandidatePiece:
    """Piece of `s` from the memo, else `build()`, stored in the memo.
    `counts` tallies where it came from, under the names of the counters
    of `PathSweepResult`."""
    piece = None if pieces is None else pieces.get(s.tobytes())
    if piece is None:
        piece = build()
        if pieces is not None:
            pieces[s.tobytes()] = piece
        origin = "pieces_updated" if piece.updated else "pieces_rebuilt"
    else:
        origin = "memo_hits"
    counts[origin] += 1
    return piece


def _map_on_support(res: ZoneExit) -> np.ndarray:
    """[p_E; q_E] of the zone `res` steps out of, E its support: a copy, so
    the step's (2, 2n) line restriction is freed with the step rather than
    kept by the segment."""
    return res.restricted.pq.take(np.flatnonzero(res.s), axis=1)


def _is_count(value) -> bool:
    """Whether `value` is an integer >= 1; a bool is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


# why `path_sweep` refuses a start, by the name of the failed check
START_REFUSALS = {
    "incompatible_indicator": "its zone is empty (the indicator is incompatible)",
    "unverified_step": "the line enters its zone after t_start",
    "degenerate_interval": "the line leaves its zone before t_start",
}


def path_sweep(
    inst: ProblemInstance,
    line: ParameterLine,
    s_init: np.ndarray,
    t_start: float,
    t_end: float = math.inf,
    max_segments: int | float = math.inf,
    pieces: dict[bytes, CandidatePiece] | None = None,
) -> PathSweepResult:
    """Piecewise-linear solution map along `line` for t in [t_start, t_end].

    Starts from an indicator whose zone contains (b(t_start), lambda(t_start))
    and chains deletion-insertion steps.  The start zone's piece is built
    by `candidate_slope`, each later one by `next_piece`, handed the
    indices the step deleted and inserted (an update of M^{-1}, or a
    rebuild), and each is restricted to the line once.
    That one restriction certifies the zone: it meets the line in the
    closed-form interval [entry, exit], which must hold the zone's first
    time (t_start, or the breakpoint the step landed on) within the line's
    tie window (`ParameterLine.window`); `ZoneExit.misses` checks this
    right after each zone's step.  It is the one judge of the start: an
    incompatible `s_init`, or one whose zone the line enters after t_start
    or leaves before it, raises InitializationError (a ValueError) that
    names which (`START_REFUSALS`); lambda(t_start) <= 0 raises
    ValueError.  A landing zone that is incompatible or entered after its
    breakpoint stops the sweep as `unverified_step`, one left before it as
    `degenerate_interval`, even where `max_segments` would cut the sweep
    there.  A zone the line only touches at a breakpoint is a zero-length
    segment.  A repeated (indicator, breakpoint) pair aborts as
    `cycle_detected`.  Otherwise the sweep ends in the first zone whose
    exit reaches t_end (`t_end_reached`, or `unbounded` where both are
    +inf) or lies on the lambda -> 0 wall (`lambda_terminus`), with one
    final segment up to the earlier of the two.  It runs to that stop unless
    an integer `max_segments` >= 1, not a bool, cuts it first, as
    `max_segments`.

    `pieces` is an optional memo from `s.tobytes()`, the 2n bytes of the
    int8 indicator, to the pieces of `inst`, shared by sweeps that revisit
    zones: the start zone and every landing zone are looked up there before
    they are built, and stored after.
    Without it a sweep keeps no piece past the next step, and a segment
    keeps its map on its support alone (`PathSegment.pq`), as a long
    descent through many large supports needs.  `t_start` must be finite and
    `t_end` a number no smaller than it, +inf for no end.  A line whose b
    is not of length 2m raises ValueError, and so does an `s_init` not of
    length 2n, refused by the `candidate_slope` of the start zone.
    """
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    if math.isnan(t_end):
        raise ValueError("t_end must be a number or inf, got nan")
    if t_end < t_start:
        raise ValueError(f"t_end must not lie before t_start, got {t_end} < {t_start}")
    if not (max_segments == math.inf or _is_count(max_segments)):
        raise ValueError(f"max_segments must be an integer >= 1 or inf, got {max_segments!r}")
    if line.b0.size != 2 * inst.m:
        raise ValueError(f"line b has length {line.b0.size}, expected 2m = {2 * inst.m}")
    s = as_indicator(s_init)
    lam_start = line.lam_at(t_start)
    if not lam_start > 0:
        raise ValueError(f"lambda(t_start) must be positive, got {lam_start}")
    counts = dict.fromkeys(("pieces_updated", "pieces_rebuilt", "memo_hits"), 0)
    piece = _memoized(pieces, s, lambda: candidate_slope(inst, s), counts)
    res = elars_iterate(piece, line) if piece.compatible else None
    refusal = "incompatible_indicator" if res is None else res.misses(t_start)
    if refusal:
        raise InitializationError(
            "s_init is not a valid zone indicator at t_start "
            f"(s={indicator_to_string(s)}, t={t_start}): {START_REFUSALS[refusal]}"
        )

    segments: list[PathSegment] = []
    seen: dict[bytes, list[float]] = {}
    t_cur = t_start
    while True:
        if len(segments) >= max_segments:
            stop = "max_segments"
            break
        if res.t_plus >= t_end or res.lambda_terminus:
            end = min(res.t_plus, t_end)
            if end > t_cur:
                segments.append(PathSegment(s, t_cur, float(end), _map_on_support(res), (), ()))
            if res.t_plus < t_end:
                stop = "lambda_terminus"
            else:
                stop = "unbounded" if math.isinf(end) else "t_end_reached"
            break

        breaks = seen.setdefault(res.s_plus.tobytes(), [])
        if any(abs(tp - res.t_plus) <= line.window(res.t_plus) for tp in breaks):
            stop = "cycle_detected"
            break
        breaks.append(res.t_plus)

        # a zone the line only touches (exit within the tie window of entry) is a
        # zero-length segment: the path passes through it all the same
        segments.append(PathSegment(s, t_cur, max(res.t_plus, t_cur), _map_on_support(res),
                                    res.deleted, res.inserted))
        piece = _memoized(
            pieces, res.s_plus,
            lambda: next_piece(inst, piece, res.s_plus, *res.deleted, *res.inserted), counts)
        if not piece.compatible:
            stop = "unverified_step"
            break
        s = res.s_plus
        t_cur = res.t_plus
        res = elars_iterate(piece, line)
        stop = res.misses(t_cur)
        if stop:
            break
    return PathSweepResult(segments=tuple(segments), stop_reason=stop, line=line, **counts)


def evaluate_path(result: PathSweepResult, t: float) -> np.ndarray | None:
    """Value of the swept solution map at time t, or None if t is outside
    every segment by more than the tie windows of its ends."""
    line = result.line
    for seg in result.segments:
        if seg.t_start - line.window(seg.t_start) <= t <= seg.t_end + line.window(seg.t_end):
            return seg.weq_at(t)
    return None


# -- initialization ----------------------------------------------------------

def initialize_indicator(
    inst: ProblemInstance,
    b: np.ndarray,
    lam: float,
    strategy: str = "from_oracle",
) -> np.ndarray:
    """Oracle start: the indicator the saddle oracle's solution at
    (b, lambda) reads, for `path_sweep` to judge.

    Solves the instance at (b, lambda) by `solve_saddle` at its default
    config and returns the equicorrelation signs of the iterate that
    `encode_sopt` reads at ORACLE_READ_TOL*S, S = max(lambda, ||C^T b||_inf)
    (`certificate_scale`), so the reading does not depend on the data's
    scale.  Nothing here certifies it: `path_sweep`'s start certificate
    alone judges where a path can start, from this indicator or from the
    zero zone, and refuses a reading whose zone misses the start (at a
    zone boundary, say: perturb lambda and retry).  `strategy` names this
    start and accepts "from_oracle" alone.  `sgmc path` calls this only
    when that sweep refuses the zero zone.
    """
    if strategy != "from_oracle":
        raise ValueError(f"unknown strategy {strategy!r}")
    probe = inst.with_params(b=np.ravel(b), lam=lam)
    return encode_sopt(probe, solve_saddle(probe))


# -- zone graph enumeration ---------------------------------------------------

@dataclass(frozen=True)
class EnumerationConfig:
    """Coverage samples of the zone search.

    Coverage is declared over `n_coverage` sampled points with ||y|| = r_y,
    r = 0 and lambda = delta_lambda_min.  The directions of y are the rows
    of one (n_coverage, m) standard normal draw from `seed`, each scaled
    to length r_y (a zero row points along the first unit vector).  The
    search sweeps to each point that no zone found so far covers, in the
    order drawn, so it makes at most `n_coverage` sweeps, each uncapped.
    A point whose sweep stops short of it stays uncovered unless a later
    node's zone holds it.  `enumerate_zones` refuses an `n_coverage`
    below 1, whose empty sample would read as complete coverage, and a
    bool.
    """

    r_y: float
    delta_lambda_min: float
    n_coverage: int = 64
    seed: int = 0


@dataclass
class ZoneGraph:
    """Discovered zone indicators with adjacency edges.

    `nodes` maps indicator strings to int8 indicators; `edges` holds
    (s_a, s_b, witness_b, witness_lambda) with the witness on the shared
    boundary.  `incomplete`, read off `covered`, marks a graph that leaves
    a coverage point outside every node's zone, which only a sweep that
    stopped short of its point can do.  The counters say what the search
    did: sweeps started (`rays`), distinct pieces built, and lookups, by
    the sweeps and by the nodes' coverage tests, that found their piece
    already built."""

    nodes: dict[str, np.ndarray] = field(default_factory=dict)
    edges: list[tuple[str, str, np.ndarray, float]] = field(default_factory=list)
    coverage_points: list[tuple[np.ndarray, float]] = field(default_factory=list)
    covered: list[bool] = field(default_factory=list)
    rays: int = 0
    pieces_built: int = 0
    memo_hits: int = 0

    @property
    def incomplete(self) -> bool:
        return not all(self.covered)

    @property
    def coverage_required(self) -> int:
        return len(self.coverage_points)

    @property
    def coverage_covered(self) -> int:
        return sum(self.covered)

    def to_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                [sa, sb, {"witness_b": bw.tolist(), "witness_lambda": lw}]
                for sa, sb, bw, lw in sorted(
                    self.edges, key=lambda e: (e[0], e[1])
                )
            ],
            "coverage": {
                "required": self.coverage_required,
                "covered": self.coverage_covered,
            },
            "incomplete": self.incomplete,
            "counters": {
                "rays": self.rays,
                "pieces_built": self.pieces_built,
                "memo_hits": self.memo_hits,
            },
        }


def enumerate_zones(inst: ProblemInstance, config: EnumerationConfig) -> ZoneGraph:
    """Zone graph from the all-zero indicator, one sweep per coverage point.

    The zero zone holds (0, lambda) for every lambda > 0, and the solution
    map is continuous and piecewise linear on its zones, so the sweep along
    the segment from (0, lambda_j) to a coverage point (b_j, lambda_j),
    t in [0, 1], starts in a certified zone and ends in one that holds the
    point.  The zones a sweep visits become nodes; consecutive segments
    contribute adjacency edges with the breakpoint as witness.  Points are
    taken in the order drawn, and one that an earlier node covers gets no
    sweep.  The graph is `incomplete` exactly when its nodes leave a point
    uncovered, which only an uncapped sweep's own early stop can do.  A
    sweep's error propagates: from the zero zone at b = 0 only data too
    small for `rank_cut` raise, and then every sweep would.

    Each zone's piece is built once per call: one memo serves every sweep
    and coverage test.  The coverage points are kept as the rows of one
    array, and a new node is tested at all still uncovered ones in one
    `zone_margins` call.  `coverage_points` lists them as (b, lambda)
    pairs.
    """
    for name in ("r_y", "delta_lambda_min"):
        if not 0.0 < getattr(config, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not _is_count(config.n_coverage):
        raise ValueError(f"n_coverage must be an integer >= 1, got {config.n_coverage!r}")
    U = np.random.default_rng(config.seed).normal(size=(config.n_coverage, inst.m))
    norms = np.array([np.linalg.norm(u) for u in U])
    zero = norms == 0  # a zero draw points along the first unit vector
    U[zero], norms[zero] = np.eye(inst.m)[0], 1.0
    cover = np.zeros((config.n_coverage, 2 * inst.m))
    cover[:, :inst.m] = config.r_y * (U / norms[:, None])
    graph = ZoneGraph()
    graph.coverage_points = [(b, config.delta_lambda_min) for b in cover]
    graph.covered = [False] * config.n_coverage
    pieces: dict[bytes, CandidatePiece] = {}
    counts = dict.fromkeys(("pieces_updated", "pieces_rebuilt", "memo_hits"), 0)
    edge_keys: set[tuple[str, str]] = set()

    def add_node(s: np.ndarray, key: str):
        """Add `s` under `key` to the nodes unless it is known, and mark
        the coverage points its zone holds."""
        if key in graph.nodes:
            return
        graph.nodes[key] = s.copy()
        piece = _memoized(pieces, s, lambda: candidate_slope(inst, s), counts)
        todo = np.flatnonzero(np.logical_not(graph.covered))
        if todo.size:
            lams = np.full(todo.size, float(config.delta_lambda_min))
            inside = in_zone(zone_margins(piece, cover[todo].T, lams), lams)
            for j in todo[inside]:
                graph.covered[j] = True

    def add_edge(sa: str, sb: str, b_w: np.ndarray, lam_w: float):
        """Record the adjacency of two nodes, once."""
        key = (min(sa, sb), max(sa, sb))
        if sa != sb and key not in edge_keys:
            edge_keys.add(key)
            graph.edges.append((key[0], key[1], np.array(b_w), float(lam_w)))

    s0 = zero_indicator(inst.n)
    add_node(s0, indicator_to_string(s0))
    for j, (b, lam) in enumerate(graph.coverage_points):
        if graph.covered[j]:
            continue
        graph.rays += 1
        line = ParameterLine(np.zeros_like(b), lam, b, 0.0)
        sweep = path_sweep(inst, line, s0, t_start=0.0, t_end=1.0, pieces=pieces)
        graph.memo_hits += sweep.memo_hits
        segs = sweep.segments
        keys = [indicator_to_string(seg.s) for seg in segs]
        for k, seg in enumerate(segs):
            add_node(seg.s, keys[k])
            if k:
                add_edge(keys[k - 1], keys[k], *line.point_at(segs[k - 1].t_end))

    graph.pieces_built = len(pieces)
    graph.memo_hits += counts["memo_hits"]
    return graph
