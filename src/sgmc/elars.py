"""Extended least angle regression: deletion-insertion steps along parameter
lines, the piecewise-linear path driver, and zone enumeration.

A single step starts from an indicator whose zone contains the moving point
(b(t), lambda(t)), computes in closed form the time t_plus at which the point
leaves that zone, and edits the indicator: support entries whose sign
constraint binds at t_plus are deleted, off-support entries whose correlation
bound binds are inserted with the sign of the binding correlation.  Chaining
verified steps yields the solution map along the whole line; sweeping from
the zero zone at b = 0 to sampled parameter points discovers the zones that
hold them and the adjacency between the zones on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .candidate import (
    CandidatePiece,
    candidate_slope,
    next_piece,
    zone_margins,
    zone_membership,
)
from .model import (
    ProblemInstance,
    as_indicator,
    indicator_to_string,
    zero_indicator,
)
from .optimality import certificate_scale, encode_sopt
from .oracle import ORACLE_READ_TOL, solve_saddle
from .sweep import (
    LineRestrictedPiece,
    ParameterLine,
    restrict_to_line,
    zone_exit_times,
)

TIE_TOL = 1e-9  # relative half-width of the tie window of event times (`_window`)


class InitializationError(RuntimeError):
    """Raised when no valid starting indicator can be certified."""


def _window(line: ParameterLine, t: float) -> float:
    """Half-width TIE_TOL*(T + |t|) of the tie window around time t on
    `line`, T its `time_scale`, so that it scales with the line's times."""
    return TIE_TOL * (line.time_scale + abs(t))


def _ties(values, t_plus: float, line: ParameterLine):
    """Which values equal the finite breakpoint t_plus on `line` within
    its window, elementwise; infinite values never tie."""
    return np.abs(np.asarray(values) - t_plus) <= _window(line, t_plus)


@dataclass(frozen=True)
class IterationResult:
    """Outcome of one deletion-insertion step.

    `never_exits` marks rays that stay in the zone forever (t_plus = +inf);
    `lambda_terminus` marks exits through the lambda -> 0 wall, where the
    path ends rather than crossing into a neighbor.  `t_entry` is where the
    line enters the zone of `s`, from the same restriction as t_plus.
    """

    s: np.ndarray
    t_plus: float
    s_plus: np.ndarray
    deleted: tuple[int, ...]
    inserted: tuple[int, ...]
    one_at_a_time: bool
    never_exits: bool
    lambda_terminus: bool
    restricted: LineRestrictedPiece
    t_entry: float


def elars_iterate(
    inst: ProblemInstance, piece: CandidatePiece, line: ParameterLine
) -> IterationResult:
    """One E-LARS step along `line` out of the zone of `piece`.

    The zone is restricted to the line once; its exit time is the
    breakpoint, and the rows of its ratio test within its tie window make
    the next indicator: sign rows delete, correlation rows insert with the
    sign of the correlation at the breakpoint, and the wall row ends the
    path.  A caller holding an indicator builds its piece with
    `candidate_slope` first.
    """
    s = piece.s
    restricted = restrict_to_line(inst, piece, line)
    times = zone_exit_times(restricted)
    t_plus = times.t_sup

    if math.isinf(t_plus):
        # +inf: the ray never leaves the zone; -inf: the line misses it
        # entirely (degenerate call, surfaces as an empty interval)
        return IterationResult(
            s=s, t_plus=t_plus, s_plus=s.copy(), deleted=(), inserted=(),
            one_at_a_time=False, never_exits=t_plus > 0, lambda_terminus=False,
            restricted=restricted, t_entry=times.t_inf,
        )

    # the tied rows, in order: sign rows of the support and lower bounds
    # off it, upper bounds (those of the support are 0*t <= 0 and never
    # tie), the wall.  Usually one row ties.
    n2 = s.size
    tied = np.flatnonzero(_ties(times.rows, t_plus, line)).tolist()
    terminus = tied[-1] == 2 * n2
    deleted = [row for row in tied if row < n2 and s[row]]
    s_plus = s.copy()
    s_plus[deleted] = 0
    inserted = []
    # at the terminus wall every correlation bound ties and rounding gives
    # the correlations signs, but the path ends there, so it inserts nothing
    if not terminus:
        r = restricted
        for i in sorted({row % n2 for row in tied if row >= n2 or not s[row]}):
            xi = r.cv[i] + r.cu[i] * t_plus
            # a zero sign only happens where the binding value is
            # lambda(t_plus) = 0: not a real event
            if xi:
                inserted.append(i)
                s_plus[i] = 1 if xi > 0 else -1
    return IterationResult(
        s=s, t_plus=float(t_plus), s_plus=s_plus,
        deleted=tuple(deleted), inserted=tuple(inserted),
        one_at_a_time=(len(deleted) + len(inserted) == 1),
        never_exits=False, lambda_terminus=terminus, restricted=restricted,
        t_entry=times.t_inf,
    )


# -- path driver -------------------------------------------------------------

def _finite_to_json(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _json_to_finite(x) -> float:
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


@dataclass(frozen=True)
class PathSegment:
    """One linear piece of the solution map along a line: on [t_start, t_end]
    the map is w(t) = q - p*t with indicator s.  `deleted`/`inserted` record
    the transition into the next segment (empty on final segments).
    t_start = t_end where the line only touches the zone."""

    s: np.ndarray
    t_start: float
    t_end: float
    p: np.ndarray
    q: np.ndarray
    deleted: tuple[int, ...]
    inserted: tuple[int, ...]

    def weq_at(self, t: float) -> np.ndarray:
        return self.q - self.p * t

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
    def from_dict(data: dict) -> "PathSegment":
        from .model import indicator_from_string

        return PathSegment(
            s=indicator_from_string(data["s"]),
            t_start=_json_to_finite(data["t_range"][0]),
            t_end=_json_to_finite(data["t_range"][1]),
            p=np.array(data["p"], dtype=float),
            q=np.array(data["q"], dtype=float),
            deleted=tuple(data["deleted"]),
            inserted=tuple(data["inserted"]),
        )


@dataclass(frozen=True)
class PathSweepResult:
    segments: tuple[PathSegment, ...]
    stop_reason: str
    line: ParameterLine

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
        }


def line_from_dict(data: dict) -> ParameterLine:
    return ParameterLine(
        b0=np.array(data["b0"], dtype=float),
        lam0=float(data["lambda0"]),
        delta_b=np.array(data["delta_b"], dtype=float),
        delta_lam=float(data["delta_lambda"]),
    )


def _memoized(pieces: dict[bytes, CandidatePiece] | None, s: np.ndarray, build):
    """Piece of `s` from the memo, else `build()`, stored in the memo."""
    if pieces is None:
        return build()
    key = s.tobytes()
    piece = pieces.get(key)
    if piece is None:
        piece = pieces[key] = build()
    return piece


def _misses(res: IterationResult, t: float) -> str | None:
    """Why the zone that `res` steps out of fails to hold time t: the line
    enters it after t (`unverified_step`) or leaves it before t
    (`degenerate_interval`), outside the window of t; None when it holds
    t."""
    w = _window(res.restricted.line, t)
    if not res.t_entry <= t + w:
        return "unverified_step"
    if not res.t_plus >= t - w:
        return "degenerate_interval"
    return None


def path_sweep(
    inst: ProblemInstance,
    line: ParameterLine,
    s_init: np.ndarray,
    t_start: float,
    t_end: float = math.inf,
    max_segments: int = 64,
    pieces: dict[bytes, CandidatePiece] | None = None,
) -> PathSweepResult:
    """Piecewise-linear solution map along `line` for t in [t_start, t_end].

    Starts from an indicator whose zone contains (b(t_start), lambda(t_start))
    and chains deletion-insertion steps.  Each zone's piece comes from the
    previous one by `next_piece` (a one-index update of M^{-1}, or a rebuild
    on multi-index events and rank drops) and is restricted to the line once.
    That one restriction certifies the zone: it meets the line in the
    closed-form interval [entry, exit], which must hold the zone's first
    time (t_start, or the breakpoint the step landed on) within the TIE_TOL
    window; `_misses` checks this right after each zone's step.  A start
    zone that fails it, or sits at lambda(t_start) <= 0, raises ValueError
    (so does an incompatible `s_init`).  A landing zone that is
    incompatible or entered after its breakpoint stops the sweep as
    `unverified_step`, one left before it as `degenerate_interval`, even
    where `max_segments` would cut the sweep there.  A zone the line only
    touches at a breakpoint is a zero-length segment.  A repeated
    (indicator, breakpoint) pair aborts as `cycle_detected`.

    `pieces` is an optional memo from `s.tobytes()` to the pieces of `inst`,
    shared by sweeps that revisit zones: the start zone and every landing
    zone are looked up there before they are built, and stored after.
    Without it a sweep keeps no piece past the next step, as a long descent
    through many large supports needs.  `t_start` must be finite and
    `t_end` a number no smaller than it, +inf for no end.
    """
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    if math.isnan(t_end):
        raise ValueError("t_end must be a number or inf, got nan")
    if t_end < t_start:
        raise ValueError(f"t_end must not lie before t_start, got {t_end} < {t_start}")
    s = as_indicator(s_init)
    lam_start = line.lam_at(t_start)
    if not lam_start > 0:
        raise ValueError(f"lambda(t_start) must be positive, got {lam_start}")
    piece = _memoized(pieces, s, lambda: candidate_slope(inst, s))
    res = elars_iterate(inst, piece, line)
    if _misses(res, t_start):
        raise ValueError(
            "s_init is not a valid zone indicator at t_start "
            f"(s={indicator_to_string(s)}, t={t_start})"
        )

    segments: list[PathSegment] = []
    seen: dict[bytes, list[float]] = {}
    t_cur = t_start
    while True:
        if len(segments) >= max_segments:
            stop = "max_segments"
            break
        if res.t_plus >= t_end or res.never_exits:
            end = min(res.t_plus, t_end)
            if end > t_cur:
                segments.append(
                    PathSegment(s, t_cur, float(end), res.restricted.p,
                                res.restricted.q, (), ())
                )
            stop = "unbounded" if math.isinf(end) else "t_end_reached"
            break
        if res.lambda_terminus:
            if res.t_plus > t_cur:
                segments.append(
                    PathSegment(s, t_cur, res.t_plus, res.restricted.p,
                                res.restricted.q, (), ())
                )
            stop = "lambda_terminus"
            break

        breaks = seen.setdefault(res.s_plus.tobytes(), [])
        if any(_ties(tp, res.t_plus, line) for tp in breaks):
            stop = "cycle_detected"
            break
        breaks.append(res.t_plus)

        # a zone the line only touches (exit within the tie window of entry) is a
        # zero-length segment: the path passes through it all the same
        segments.append(
            PathSegment(s, t_cur, max(res.t_plus, t_cur), res.restricted.p,
                        res.restricted.q, res.deleted, res.inserted)
        )
        piece = _memoized(pieces, res.s_plus, lambda: next_piece(inst, piece, res.s_plus))
        if not piece.compatible:
            stop = "unverified_step"
            break
        s = res.s_plus
        t_cur = res.t_plus
        res = elars_iterate(inst, piece, line)
        stop = _misses(res, t_cur)
        if stop:
            break
    return PathSweepResult(segments=tuple(segments), stop_reason=stop, line=line)


def evaluate_path(result: PathSweepResult, t: float) -> np.ndarray | None:
    """Value of the swept solution map at time t, or None if t is outside
    every segment by more than the tie windows of its ends."""
    line = result.line
    for seg in result.segments:
        if seg.t_start - _window(line, seg.t_start) <= t <= seg.t_end + _window(line, seg.t_end):
            return seg.weq_at(t)
    return None


# -- initialization ----------------------------------------------------------

def initialize_indicator(
    inst: ProblemInstance,
    b: np.ndarray,
    lam: float,
    strategy: str = "zero",
) -> np.ndarray:
    """Starting indicator whose zone contains (b, lambda).

    `zero` certifies the all-zero zone by `ZoneMargins.inside` at its
    default slack, max_i |c_i^T b| <= lambda*(1 + 1e-9) at 0 < lambda < inf:
    the bound and its slack are both on the scale of lambda, so
    (alpha*b, alpha*lambda) gets the answer of (b, lambda) for every
    alpha > 0.  `from_oracle` solves the instance by `solve_saddle` at its
    default config, encodes the equicorrelation signs and certifies them
    by zone membership, failing loudly on zone boundaries (the caller may
    perturb lambda and retry); both read the iterate at ORACLE_READ_TOL*S,
    S = max(lambda, ||C^T b||_inf) (`certificate_scale`), a slack that
    absorbs the error the oracle's stop bounds on the same scale S.  Both
    slacks scale with (b, lambda), so neither strategy's answer depends on
    the data's scale.  A point that fails either certificate, NaN
    included, is never given an indicator.
    """
    b = np.ravel(b)
    if strategy == "zero":
        s = zero_indicator(inst.n)
        if not zone_margins(inst, candidate_slope(inst, s), b, lam).inside(lam):
            raise ValueError(
                f"zero strategy needs max|c_i^T b| <= lambda < inf, got lambda={lam}"
            )
        return s
    if strategy != "from_oracle":
        raise ValueError(f"unknown strategy {strategy!r}")
    probe = inst.with_params(b=b, lam=lam)
    w = solve_saddle(probe)
    s = encode_sopt(probe, w, tol=ORACLE_READ_TOL)
    if not zone_membership(inst, s, b, lam, tol=ORACLE_READ_TOL * certificate_scale(probe) / lam):
        raise InitializationError(
            "oracle indicator failed zone membership; the point may sit on a "
            "zone boundary (perturb lambda and retry)"
        )
    return s


# -- zone graph enumeration ---------------------------------------------------

@dataclass(frozen=True)
class EnumerationConfig:
    """Coverage samples of the zone search.

    Coverage is declared over `n_coverage` sampled points with ||y|| = r_y,
    r = 0 and lambda = delta_lambda_min, drawn from `seed`; the search
    sweeps to each point that no zone found so far covers, in the order
    drawn, so it makes at most `n_coverage` sweeps of at most 64 segments.
    A point whose sweep stops short of it stays uncovered unless a later
    node's zone holds it.
    """

    r_y: float
    delta_lambda_min: float
    n_coverage: int = 64
    seed: int = 0


@dataclass
class ZoneGraph:
    """Discovered zone indicators with adjacency edges.

    `nodes` maps indicator strings to arrays; `edges` holds
    (s_a, s_b, witness_b, witness_lambda) with the witness on the shared
    boundary.  `incomplete` marks a graph that leaves a coverage point
    outside every node's zone, which only a sweep that stopped short of
    its point can do.  The counters say what the search did: sweeps
    started (`rays`), distinct pieces built, and lookups that found their
    piece already built."""

    nodes: dict[str, np.ndarray] = field(default_factory=dict)
    edges: list[tuple[str, str, np.ndarray, float]] = field(default_factory=list)
    coverage_points: list[tuple[np.ndarray, float]] = field(default_factory=list)
    covered: list[bool] = field(default_factory=list)
    incomplete: bool = False
    rays: int = 0
    pieces_built: int = 0
    memo_hits: int = 0

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


def _sample_coverage_points(
    inst: ProblemInstance, config: EnumerationConfig, rng: np.random.Generator
) -> list[tuple[np.ndarray, float]]:
    pts = []
    for _ in range(config.n_coverage):
        u = rng.normal(size=inst.m)
        norm = np.linalg.norm(u)
        u = u / norm if norm > 0 else np.eye(inst.m)[0]
        b = np.concatenate([config.r_y * u, np.zeros(inst.m)])
        pts.append((b, config.delta_lambda_min))
    return pts


class _PieceMemo(dict):
    """Pieces of one instance by `s.tobytes()`; `hits` counts the lookups
    that found their piece."""

    def __init__(self):
        super().__init__()
        self.hits = 0

    def get(self, key, default=None):
        piece = super().get(key, default)
        self.hits += piece is not default
        return piece


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
    uncovered, which only a sweep that stops short of its point can do.  A
    sweep's error propagates: from the zero zone at b = 0 only data too
    small for `rank_cut` raise, and then every sweep would.

    Each zone's piece is built once per call: one memo serves every sweep
    and coverage test, and a new node is tested at all still uncovered
    coverage points in one call.
    """
    for name in ("r_y", "delta_lambda_min"):
        if not 0.0 < getattr(config, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    rng = np.random.default_rng(config.seed)
    graph = ZoneGraph()
    graph.coverage_points = _sample_coverage_points(inst, config, rng)
    graph.covered = [False] * len(graph.coverage_points)
    cover_b = np.array([b for b, _ in graph.coverage_points], dtype=float).T
    cover_lam = np.array([lam for _, lam in graph.coverage_points], dtype=float)
    pieces = _PieceMemo()
    edge_keys: set[tuple[str, str]] = set()

    def add_node(s: np.ndarray, key: str):
        """Add `s` under `key` to the nodes unless it is known, and mark
        the coverage points its zone holds."""
        if key in graph.nodes:
            return
        graph.nodes[key] = s.copy()
        piece = _memoized(pieces, s, lambda: candidate_slope(inst, s))
        todo = np.flatnonzero(np.logical_not(graph.covered))
        if todo.size and piece.compatible:
            lams = cover_lam[todo]
            inside = zone_margins(inst, piece, cover_b[:, todo], lams).inside(lams)
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
        segs = path_sweep(inst, line, s0, t_start=0.0, t_end=1.0, pieces=pieces).segments
        keys = [indicator_to_string(seg.s) for seg in segs]
        for k, seg in enumerate(segs):
            add_node(seg.s, keys[k])
            if k:
                add_edge(keys[k - 1], keys[k], *line.point_at(segs[k - 1].t_end))

    graph.incomplete = not all(graph.covered)
    graph.pieces_built = len(pieces)
    graph.memo_hits = pieces.hits
    return graph
