import json
import math
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import sgmc.elars
from sgmc import (
    EnumerationConfig,
    InitializationError,
    LassoConfig,
    ParameterLine,
    ProblemInstance,
    ZoneGraph,
    brute_force_indicators,
    candidate_slope,
    check_opt,
    elars_iterate,
    enumerate_zones,
    evaluate_path,
    indicator_from_string,
    indicator_to_string,
    initialize_indicator,
    lasso_reference,
    path_sweep,
    restrict_to_line,
    zero_indicator,
    zone_exit_times,
    zone_membership,
)
from sgmc.candidate import next_piece, zone_margins
from sgmc.elars import PathSegment

from conftest import changed_index, random_instance

S1 = indicator_from_string("++00")


def _gaussian_descent(m, n, rho, seed):
    """Gaussian instance and the lambda descent from lambda_max at fixed b."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    inst = ProblemInstance(A=A, rho=rho, y=y, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    return inst, ParameterLine(inst.b, lam_max, np.zeros(2 * m), -1.0)


def _duplicated_columns_descent():
    """Lambda descent on A = [H H]: the first breakpoint inserts a column
    and its duplicate at once."""
    rng = np.random.default_rng(82)
    half = rng.normal(size=(3, 2))
    A = np.hstack([half, half])
    y = rng.normal(size=3)
    inst = ProblemInstance(A=A, rho=0.0, y=y, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    return inst, ParameterLine(inst.b, lam_max, np.zeros(6), -1.0)


class TestElarsIterate:
    def test_worked_example_double_insertion(self, descent_line):
        inst, line = descent_line
        res = elars_iterate(candidate_slope(inst, zero_indicator(2)), line)
        assert res.t_plus == pytest.approx(1.0, abs=1e-12)
        assert indicator_to_string(res.s_plus) == "++00"
        assert res.inserted == (0, 1) and res.deleted == ()
        assert not res.one_at_a_time
        assert not res.lambda_terminus

    def test_lambda_descent_matches_conventional_lars(self):
        # rho=0, r=0, fixed b: each breakpoint must agree with the LASSO path
        inst = random_instance(80, m=4, n=6)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        res = elars_iterate(candidate_slope(inst, zero_indicator(6)), line)
        lam_break = lam_max - res.t_plus
        # just above the breakpoint one coefficient is zero, just below active
        x_hi = lasso_reference(inst.A, inst.y, lam_break * 1.02, LassoConfig(tol=1e-12))
        x_lo = lasso_reference(inst.A, inst.y, lam_break * 0.98, LassoConfig(tol=1e-12))
        (j,) = res.inserted
        assert abs(x_hi[j]) <= 1e-9
        assert abs(x_lo[j]) > 1e-9

    def test_pure_lambda_terminus(self):
        # y = 0: the zero zone is left only through the lambda -> 0 wall
        inst = ProblemInstance(A=np.array([[1.0]]), rho=0.0, y=np.array([0.0]), lam=1.0)
        line = ParameterLine(inst.b, 1.0, np.zeros(2), -1.0)
        res = elars_iterate(candidate_slope(inst, zero_indicator(1)), line)
        assert res.lambda_terminus
        assert res.t_plus == pytest.approx(1.0)
        assert res.deleted == () and res.inserted == ()

    def test_terminus_inserts_nothing(self):
        # at lambda = 0 on a support spanning R^{2m} every off-support
        # correlation bound ties, and rounding gives the correlations signs;
        # the path ends there, so the last step inserts nothing
        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        result = path_sweep(inst, line, zero_indicator(32), t_start=0.0, max_segments=1000)
        assert result.stop_reason == "lambda_terminus"
        last = result.segments[-1].s
        res = elars_iterate(candidate_slope(inst, last), line)
        assert res.lambda_terminus
        assert res.inserted == ()
        npt.assert_array_equal(res.s_plus[last == 0], 0)

    def test_never_exits_flag(self, two_column):
        line = ParameterLine(two_column.b, 1.0, np.zeros(2), 1.0)  # lambda grows
        res = elars_iterate(candidate_slope(two_column, S1), line)
        # zone {y >= lam} is eventually left when lam passes y = 2
        assert res.t_plus == pytest.approx(1.0)
        up = ParameterLine(np.zeros(2), 1.0, np.zeros(2), 1.0)
        res_up = elars_iterate(candidate_slope(two_column, zero_indicator(2)), up)
        assert res_up.t_plus == math.inf

    def test_flags_follow_the_edits_and_the_breakpoint(self, descent_line):
        # one_at_a_time is read off the edits, so a result with other edits
        # reports its own
        import dataclasses

        inst, line = descent_line
        res = elars_iterate(candidate_slope(inst, zero_indicator(2)), line)
        assert not res.one_at_a_time and res.t_plus < math.inf
        single = dataclasses.replace(res, inserted=(0,))
        assert single.one_at_a_time
        assert not dataclasses.replace(single, deleted=(1,)).one_at_a_time


def _changed(res):
    return sorted(set(res.deleted) | set(res.inserted))


class TestDiagnoseAssumptions:
    """The one-at-a-time assumption as each step reports it."""

    def test_worked_example_reports_tie(self, descent_line):
        inst, line = descent_line
        res = elars_iterate(candidate_slope(inst, zero_indicator(2)), line)
        assert not res.one_at_a_time
        assert _changed(res) == [0, 1]

    def test_generic_step_is_one_at_a_time(self):
        inst = random_instance(81, m=4, n=6)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        res = elars_iterate(candidate_slope(inst, zero_indicator(6)), line)
        assert res.one_at_a_time and len(_changed(res)) == 1

    def test_duplicated_columns_break_one_at_a_time(self):
        inst, line = _duplicated_columns_descent()
        res = elars_iterate(candidate_slope(inst, zero_indicator(4)), line)
        assert not res.one_at_a_time
        assert len(_changed(res)) == 2


def _assert_prefix(result, reference, count):
    """The first `count` segments of `result` are those of `reference`."""
    assert min(len(result.segments), len(reference.segments)) >= count
    for got, want in zip(result.segments[:count], reference.segments):
        npt.assert_array_equal(got.s, want.s)
        assert (got.t_start, got.t_end) == (want.t_start, want.t_end)
        npt.assert_array_equal(got.p, want.p)
        npt.assert_array_equal(got.q, want.q)
        assert (got.deleted, got.inserted) == (want.deleted, want.inserted)


class TestPathSweep:
    def test_worked_example_two_segments(self, descent_line):
        inst, line = descent_line
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        assert len(result.segments) == 2
        first, second = result.segments
        assert (first.t_start, first.t_end) == (0.0, pytest.approx(1.0, abs=1e-9))
        assert second.t_end == pytest.approx(2.0, abs=1e-9)
        assert indicator_to_string(second.s) == "++00"
        assert first.inserted == (0, 1)
        assert result.stop_reason == "lambda_terminus"
        assert not result.truncated

    def test_runs_to_its_own_stop_by_default(self):
        # this descent from lambda_max has 145 segments: no cap cuts it
        # unless the caller asks for one
        inst, line = _gaussian_descent(48, 96, 0.3, 0)
        result = path_sweep(inst, line, zero_indicator(96), t_start=0.0)
        assert result.stop_reason == "lambda_terminus" and len(result.segments) == 145

    def test_slow_b_keeps_the_lambda_window(self, descent_line):
        # b moves by b0 only after 1e20, lambda by lambda0 after 2: the
        # window follows lambda, and the two breakpoints stay apart
        inst, fixed = descent_line
        line = ParameterLine(fixed.b0, 2.0, np.array([1e-20, 0.0]), -1.0)
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        assert [indicator_to_string(seg.s) for seg in result.segments] == ["0000", "++00"]
        assert result.segments[-1].t_end == pytest.approx(2.0, abs=1e-9)

    def test_three_zones_along_y(self, two_column):
        line = ParameterLine(np.zeros(2), 1.0, np.array([1.0, 0.0]), 0.0)
        s_init = indicator_from_string("--00")
        result = path_sweep(two_column, line, s_init, t_start=-3.0, t_end=3.0)
        names = [indicator_to_string(seg.s) for seg in result.segments]
        assert names == ["--00", "0000", "++00"]
        bounds = [(seg.t_start, seg.t_end) for seg in result.segments]
        assert bounds[0] == (-3.0, pytest.approx(-1.0))
        assert bounds[1] == (pytest.approx(-1.0), pytest.approx(1.0))
        assert bounds[2] == (pytest.approx(1.0), 3.0)

    def test_breakpoint_continuity_on_random_descent(self):
        inst = random_instance(83, m=4, n=8, rho=0.0)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        result = path_sweep(inst, line, zero_indicator(8), t_start=0.0)
        assert len(result.segments) >= 2
        for a, b in zip(result.segments, result.segments[1:]):
            assert a.t_end == pytest.approx(b.t_start)
            jump = np.abs(a.weq_at(a.t_end) - b.weq_at(b.t_start)).max()
            assert jump <= 1e-8

    def test_segment_optimality_and_signs(self):
        inst = random_instance(84, m=4, n=8, rho=0.6)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        result = path_sweep(inst, line, zero_indicator(8), t_start=0.0)
        for seg in result.segments:
            hi = seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0
            signs = set()
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                t = seg.t_start + frac * (hi - seg.t_start)
                probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
                w = seg.weq_at(t)
                assert check_opt(probe, w).worst_violation <= 1e-7
                signs.add(indicator_to_string(np.sign(np.round(w, 12)).astype(int)))
            assert len(signs) == 1

    @pytest.mark.parametrize(
        "m, n, rho, seed",
        [
            (16, 32, 0.3, 4),
            (16, 32, 0.8, 57),
            (24, 48, 0.8, 9),
            (24, 48, 0.8, 48),
            (24, 48, 0.8, 55),
            (24, 48, 0.0, 36),
            (48, 96, 0.8, 0),
        ],
    )
    def test_short_segments_reach_terminus(self, m, n, rho, seed):
        # the first six descents have segments shorter than 1e-6*(1+|t|); a
        # membership probe that far past the breakpoint overshot them and
        # stopped the sweep as unverified.  All seven build their pieces by
        # one-index updates of M^{-1}, which must agree with the closed form
        inst, line = _gaussian_descent(m, n, rho, seed)
        result = path_sweep(inst, line, zero_indicator(n), t_start=0.0, max_segments=1000)
        assert result.stop_reason == "lambda_terminus"
        for seg in result.segments:
            ref = restrict_to_line(candidate_slope(inst, seg.s), line)
            for got, want in ((seg.p, ref.p), (seg.q, ref.q)):
                assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
            for frac in (0.1, 0.5, 0.9):
                t = seg.t_start + frac * (seg.t_end - seg.t_start)
                probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
                assert check_opt(probe, seg.weq_at(t)).worst_violation <= 1e-7

    def test_spanning_zone_ends_at_the_wall(self):
        # The last zone of this 100 x 200 descent has |E| = 200 = 2m support
        # columns, so every off-support correlation is g_i lambda(t).  Indices
        # 102 and 302 have |g_i| = 1 - 1.06e-5: their bounds meet lambda(t)
        # only at the wall, but rounding in the updated M^{-1} put their
        # crossing 8.2e-8 before it, outside TIE_TOL, and the sweep inserted
        # both and stopped as unverified_step after 555 segments
        rng = np.random.default_rng((404, 1, 2))
        inst = ProblemInstance(A=rng.normal(size=(100, 200)), rho=0.8,
                               y=rng.normal(size=100), lam=1.0)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(200), -1.0)
        result = path_sweep(inst, line, zero_indicator(200), t_start=0.0,
                            max_segments=1000)
        assert result.stop_reason == "lambda_terminus"
        last = result.segments[-1]
        assert np.count_nonzero(last.s) == 200
        assert last.t_end == lam_max and not last.inserted
        for frac in (0.1, 0.5, 0.9):
            t = last.t_start + frac * (last.t_end - last.t_start)
            probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
            assert check_opt(probe, last.weq_at(t)).worst_violation <= 1e-7

    @pytest.mark.parametrize("case", ["duplicated_columns", "worked_example"])
    def test_fallback_matches_from_scratch(self, case, descent_line, monkeypatch):
        # both lines start with a double insertion, so the next piece is
        # rebuilt from scratch, and on A = [H H] every later piece too
        import sgmc.elars

        inst, line = _duplicated_columns_descent() if case == "duplicated_columns" else descent_line
        s0 = zero_indicator(inst.n)
        updated = path_sweep(inst, line, s0, t_start=0.0)
        monkeypatch.setattr(
            sgmc.elars, "next_piece", lambda inst, piece, s, *edit: candidate_slope(inst, s)
        )
        scratch = path_sweep(inst, line, s0, t_start=0.0)
        assert len(updated.segments[0].inserted) == 2
        assert updated.stop_reason == scratch.stop_reason
        assert len(updated.segments) == len(scratch.segments)
        for a, b in zip(updated.segments, scratch.segments):
            npt.assert_array_equal(a.s, b.s)
            assert (a.t_start, a.t_end) == (pytest.approx(b.t_start), pytest.approx(b.t_end))
            npt.assert_allclose(a.p, b.p, rtol=1e-12, atol=1e-12)
            npt.assert_allclose(a.q, b.q, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", ["gaussian", "worked_example"])
    def test_one_restriction_per_step(self, case, descent_line, monkeypatch):
        # a step restricts its zone to the line once and scans it once, and
        # builds a piece from scratch only for the start zone and for
        # multi-index events (the worked example's double insertion)
        import sgmc.candidate
        import sgmc.elars
        import sgmc.sweep

        calls = dict.fromkeys(("slope", "restrict", "exits"), 0)
        steps = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        def iterate(*args, **kwargs):
            steps.append(elars_iterate(*args, **kwargs))
            return steps[-1]

        slope = counting("slope", candidate_slope)
        for mod in (sgmc.candidate, sgmc.elars):
            monkeypatch.setattr(mod, "candidate_slope", slope)
        monkeypatch.setattr(sgmc.elars, "elars_iterate", iterate)
        restrict = counting("restrict", restrict_to_line)
        exits = counting("exits", sgmc.sweep.zone_exit_times)
        for mod in (sgmc.sweep, sgmc.elars):
            monkeypatch.setattr(mod, "restrict_to_line", restrict)
            monkeypatch.setattr(mod, "zone_exit_times", exits)
        inst, line = _gaussian_descent(16, 32, 0.3, 4) if case == "gaussian" else descent_line
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1000)
        # the terminus step builds no piece; at lambda = 0 on a full support
        # every correlation bound ties there
        multi = sum(
            len(res.deleted) + len(res.inserted) > 1
            for res in steps
            if not res.lambda_terminus
        )
        assert result.stop_reason == "lambda_terminus"
        assert calls["restrict"] == calls["exits"] == len(steps) >= len(result.segments)
        assert calls["slope"] == 1 + multi
        assert multi == (1 if case == "worked_example" else 0)

    def test_each_zone_built_once(self, monkeypatch):
        import sgmc.candidate
        import sgmc.elars

        calls = {"slope": 0, "iterate": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        slope = counting("slope", candidate_slope)
        for mod in (sgmc.candidate, sgmc.elars):
            monkeypatch.setattr(mod, "candidate_slope", slope)
        monkeypatch.setattr(sgmc.elars, "elars_iterate", counting("iterate", elars_iterate))
        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        result = path_sweep(inst, line, zero_indicator(32), t_start=0.0, max_segments=1000)
        assert len(result.segments) > 1
        assert calls["slope"] <= calls["iterate"] + 1

    def test_truncated_sweep_certifies_last_landing(self, monkeypatch):
        # a sweep cut by max_segments right after a step still reports a
        # landing that fails its entry-time check
        import dataclasses

        import sgmc.elars

        steps = []

        def iterate(*args, **kwargs):
            steps.append(elars_iterate(*args, **kwargs))
            if len(steps) == 2:
                return dataclasses.replace(steps[-1], t_entry=math.inf)
            return steps[-1]

        monkeypatch.setattr(sgmc.elars, "elars_iterate", iterate)
        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1)
        assert len(result.segments) == 1
        assert result.stop_reason == "unverified_step"

    @pytest.mark.parametrize("max_segments", [1, 1000])
    def test_sweep_reports_landing_left_before_its_breakpoint(self, monkeypatch, max_segments):
        # the exit half of the landing certificate runs right after the
        # step, so a sweep cut by max_segments there reports it as well
        import dataclasses

        import sgmc.elars

        steps = []

        def iterate(*args, **kwargs):
            steps.append(elars_iterate(*args, **kwargs))
            if len(steps) == 2:
                return dataclasses.replace(steps[-1], t_plus=steps[0].t_plus - 1.0)
            return steps[-1]

        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        reference = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
        monkeypatch.setattr(sgmc.elars, "elars_iterate", iterate)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0,
                            max_segments=max_segments)
        assert result.stop_reason == "degenerate_interval" and not result.truncated
        assert len(result.segments) == 1
        _assert_prefix(result, reference, 1)

    def test_step_back_at_the_same_breakpoint_is_a_cycle(self, monkeypatch):
        # the second step is made to delete what the first inserted, at the
        # first breakpoint; the third then lands where the first did
        import dataclasses

        import sgmc.elars

        steps = []

        def iterate(*args, **kwargs):
            steps.append(elars_iterate(*args, **kwargs))
            if len(steps) == 2:
                first = steps[0]
                return dataclasses.replace(
                    steps[-1], t_plus=first.t_plus, s_plus=first.s.copy(),
                    deleted=first.inserted, inserted=(),
                )
            return steps[-1]

        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        reference = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
        monkeypatch.setattr(sgmc.elars, "elars_iterate", iterate)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
        assert result.stop_reason == "cycle_detected"
        assert len(steps) == 3 and len(result.segments) == 2
        _assert_prefix(result, reference, 1)
        back = result.segments[1]
        assert back.t_start == back.t_end == steps[0].t_plus
        assert back.deleted == steps[0].inserted

    def test_incompatible_landing_is_unverified(self, monkeypatch):
        import dataclasses

        import sgmc.elars

        built = []

        def landing(inst, piece, s, j):
            built.append(next_piece(inst, piece, s, j))
            if len(built) == 2:
                # a null space that holds the landing's own signs rejects them
                sE = s[built[-1].support]
                null = (sE / np.sqrt(sE.size))[None]
                return dataclasses.replace(built[-1], null=null)
            return built[-1]

        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        reference = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
        monkeypatch.setattr(sgmc.elars, "next_piece", landing)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
        assert result.stop_reason == "unverified_step"
        assert len(result.segments) == 2
        _assert_prefix(result, reference, 2)

    def test_invalid_start_raises(self, two_column):
        line = ParameterLine(two_column.b, 1.0, np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            path_sweep(two_column, line, zero_indicator(2), t_start=0.0)

    @pytest.mark.parametrize("t_start, t_end", [(math.nan, math.inf), (math.inf, math.inf),
                                                (-math.inf, 1.0), (0.0, math.nan)])
    def test_non_finite_times_raise(self, descent_line, t_start, t_end):
        inst, line = descent_line
        with pytest.raises(ValueError, match="t_start|t_end"):
            path_sweep(inst, line, zero_indicator(2), t_start=t_start, t_end=t_end)

    @pytest.mark.parametrize("cap", [0, -2, math.nan, 2.5, -math.inf, True])
    def test_segment_cap_must_be_a_count_or_inf(self, descent_line, cap):
        # a cap below 1 gave no segments, a NaN cap never cut the sweep, and
        # True, an Integral, ran as a cap of 1
        inst, line = descent_line
        with pytest.raises(ValueError, match="max_segments"):
            path_sweep(inst, line, zero_indicator(2), t_start=0.0, max_segments=cap)
        for valid in (1, np.int64(2), math.inf):
            path_sweep(inst, line, zero_indicator(2), t_start=0.0, max_segments=valid)

    @pytest.mark.parametrize("t_end", [-1.0, -1e-12, -math.inf])
    def test_window_ending_before_start_raises(self, descent_line, t_end):
        # such a window used to give no segments and stop t_end_reached
        inst, line = descent_line
        with pytest.raises(ValueError, match="t_end must not lie before t_start"):
            path_sweep(inst, line, zero_indicator(2), t_start=0.0, t_end=t_end)
        empty = path_sweep(inst, line, zero_indicator(2), t_start=0.0, t_end=0.0)
        assert empty.segments == () and empty.stop_reason == "t_end_reached"

    def test_line_of_the_wrong_length_raises(self, descent_line):
        # a line through y alone, b of length m = 1, failed in a reshape
        inst, _ = descent_line
        line = ParameterLine(inst.y, 2.0, np.zeros(1), -1.0)
        with pytest.raises(ValueError, match=r"^line b has length 1, expected 2m = 2$"):
            path_sweep(inst, line, zero_indicator(2), t_start=0.0)

    @pytest.mark.parametrize("start", [[0, 0, 0], [1, 0, 0, 0, 0, 0]])
    def test_start_of_the_wrong_length_raises(self, descent_line, start):
        # refused by the start zone's candidate_slope, with or without a memo
        inst, line = descent_line
        for pieces in (None, {}):
            with pytest.raises(ValueError,
                               match=rf"^indicator has length {len(start)}, expected 2n = 4$"):
                path_sweep(inst, line, np.array(start), t_start=0.0, pieces=pieces)

    def test_max_segments_truncates(self, descent_line):
        inst, line = descent_line
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0, max_segments=1)
        assert result.truncated and result.stop_reason == "max_segments"

    def test_single_zone_window(self, descent_line):
        inst, line = descent_line
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0, t_end=0.5)
        assert len(result.segments) == 1
        assert result.segments[0].t_end == 0.5

    def test_json_roundtrip(self, descent_line):
        from sgmc.elars import PathSegment, line_from_dict

        inst, line = descent_line
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        data = result.to_dict()
        assert data["truncated"] is False
        reloaded = [PathSegment.from_dict(d) for d in data["segments"]]
        for seg, orig in zip(reloaded, result.segments):
            npt.assert_array_equal(seg.s, orig.s)
            npt.assert_allclose(seg.q, orig.q)
        line2 = line_from_dict(data["line"])
        assert line2.lam0 == line.lam0


class TestPathSegment:
    @staticmethod
    def _rebuilt_descent(rho, monkeypatch):
        """A 30 x 60 descent whose every zone's piece `candidate_slope`
        builds, as a recomputation from the segment's indicator does."""
        inst, line = _gaussian_descent(30, 60, rho, 0)
        monkeypatch.setattr(sgmc.elars, "next_piece",
                            lambda inst, piece, s, *edits: candidate_slope(inst, s))
        return inst, line, path_sweep(inst, line, zero_indicator(60), t_start=0.0)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_map_is_kept_on_the_support(self, rho, monkeypatch):
        # a segment keeps [p_E; q_E] in an array of its own: no view keeps
        # the step's (2, 2n) line restriction alive
        _, _, result = self._rebuilt_descent(rho, monkeypatch)
        assert result.stop_reason == "lambda_terminus" and len(result.segments) > 20
        for seg in result.segments:
            assert seg.pq.shape == (2, np.count_nonzero(seg.s))
            assert seg.pq.base is None and seg.pq.flags.owndata

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_expansions_are_the_restrictions_bytes(self, rho, monkeypatch):
        inst, line, result = self._rebuilt_descent(rho, monkeypatch)
        for seg in result.segments:
            ref = restrict_to_line(candidate_slope(inst, seg.s), line)
            off = seg.s == 0
            assert np.signbit(seg.p[off]).all() and not np.signbit(seg.q[off]).any()
            assert seg.p.tobytes() == ref.p.tobytes() and seg.q.tobytes() == ref.q.tobytes()
            for frac in (0.0, 0.3, 1.0):
                t = seg.t_start + frac * (seg.t_end - seg.t_start)
                assert seg.weq_at(t).tobytes() == (ref.q - ref.p * t).tobytes()
            want = {**seg.to_dict(), "p": ref.p.tolist(), "q": ref.q.tolist()}
            assert json.dumps(seg.to_dict()) == json.dumps(want)

    def test_from_dict_round_trips(self):
        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        result = path_sweep(inst, line, zero_indicator(32), t_start=0.0)
        for seg in result.segments:
            data = seg.to_dict()
            again = PathSegment.from_dict(data)
            assert json.dumps(again.to_dict()) == json.dumps(data)
            assert again.pq.tobytes() == seg.pq.tobytes()

    @pytest.mark.parametrize("key, lengths", [("s", "3, 4 and 4"), ("p", "4, 3 and 4"),
                                              ("q", "4, 4 and 3")])
    def test_from_dict_refuses_unequal_lengths(self, descent_line, key, lengths):
        # a p short of an entry failed in numpy, naming neither the
        # segment nor the lengths
        inst, line = descent_line
        data = path_sweep(inst, line, zero_indicator(2), t_start=0.0).segments[1].to_dict()
        data[key] = data[key][:-1]
        with pytest.raises(ValueError, match=f"segment 5: s, p and q must have equal "
                                             f"length, got {lengths}"):
            PathSegment.from_dict(data, 5)

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_from_dict_refuses_a_map_off_the_support(self, descent_line, key):
        inst, line = descent_line
        data = path_sweep(inst, line, zero_indicator(2), t_start=0.0).segments[1].to_dict()
        assert data["s"] == "++00"
        data[key][3] = 1e-300
        with pytest.raises(ValueError, match="segment 1: p or q is nonzero at index 3"):
            PathSegment.from_dict(data, 1)
        with pytest.raises(ValueError, match="^segment: "):
            PathSegment.from_dict(data)


def _transverse_sweep(rho, seed, m=48):
    """An m x 2m sweep (48 x 96 by default) of b from [y1; 0] to [y2; 0]
    at lambda = 0.1 lambda_max, t in [0, 1], from the zone a descent
    reaches there, as the benchmark's transverse workload makes it: the
    line's instance, the line, the start indicator."""
    inst, descent = _gaussian_descent(m, 2 * m, rho, seed)
    lam = 0.1 * descent.lam0
    start = path_sweep(inst, descent, zero_indicator(2 * m), t_start=0.0,
                       t_end=descent.lam0 - lam, max_segments=1000)
    assert start.stop_reason == "t_end_reached"
    y2 = np.random.default_rng((seed, 1)).normal(size=m)
    line = ParameterLine(inst.b, lam, np.concatenate([y2 - inst.y, np.zeros(m)]), 0.0)
    return inst, line, start.segments[-1].s


def _decoded_events(r, times):
    """(deleted, inserted, signs, terminus) decoded from the rows of the
    exit scan by their layout alone, the reference for the events the scan
    names: the rows within the tie window of t_plus, a tied wall row ending
    the path, tied sign rows of the support deleting, and tied correlation
    rows inserting with the sign of xi = cv + cu t_plus, none where xi is
    exactly 0."""
    s, n2, t_plus = r.s, r.s.size, times.t_plus
    if not math.isfinite(t_plus):
        return (), (), (), False
    tied = np.flatnonzero(np.abs(times.rows - t_plus) <= r.line.window(t_plus)).tolist()
    terminus = tied[-1] == 2 * n2
    deleted = [row for row in tied if row < n2 and s[row]]
    inserted, signs = [], []
    if not terminus:
        for i in sorted({row % n2 for row in tied if row >= n2 or not s[row]}):
            xi = r.cv[i] + r.cu[i] * t_plus
            if xi:
                inserted.append(i)
                signs.append(1 if xi > 0 else -1)
    return tuple(deleted), tuple(inserted), tuple(signs), terminus


def _event_cases():
    """Small lambda descents (Gaussian, and on A = [B, B], where twin
    columns tie) and small transverse b-sweeps, as (inst, line, s0,
    t_end)."""
    for rho in (0.0, 0.3, 0.8):
        for m, n in ((4, 8), (6, 12)):
            inst, line = _gaussian_descent(m, n, rho, 3)
            yield inst, line, zero_indicator(n), math.inf
        inst, line, s0 = _transverse_sweep(rho, 3, m=6)
        yield inst, line, s0, 1.0
    inst, line = _duplicated_columns_descent()
    yield inst, line, zero_indicator(4), math.inf
    for seed in range(6):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(3, 3))
        inst = ProblemInstance(A=np.hstack([B, B]), rho=0.3, y=rng.normal(size=3), lam=1.0)
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        yield inst, ParameterLine(inst.b, lam_max, np.zeros(6), -1.0), zero_indicator(6), math.inf


class TestExitEvents:
    def test_named_events_match_decoded_rows(self, monkeypatch):
        # the exit scan names the events of every step the sweeps take;
        # they must be what decoding its rows gives
        import sgmc.elars

        scans = []

        def recording(r):
            times = zone_exit_times(r)
            scans.append((r, times))
            return times

        monkeypatch.setattr(sgmc.elars, "zone_exit_times", recording)
        for inst, line, s0, t_end in _event_cases():
            path_sweep(inst, line, s0, t_start=0.0, t_end=t_end, max_segments=1000)
        kinds = Counter()
        for r, times in scans:
            named = (times.deleted, times.inserted, times.signs, times.lambda_terminus)
            assert named == _decoded_events(r, times)
            # the step's record: its restriction, and the next indicator
            # made by the named events, a new array
            assert times.restricted is r and times.s is r.s
            s_plus = r.s.copy()
            s_plus[list(times.deleted)] = 0
            s_plus[list(times.inserted)] = times.signs
            npt.assert_array_equal(times.s_plus, s_plus)
            assert times.s_plus.dtype == np.int8 and not np.shares_memory(times.s_plus, r.s)
            kinds.update(deleted=bool(times.deleted), terminus=times.lambda_terminus,
                         several=len(times.deleted) + len(times.inserted) > 1,
                         lower=-1 in times.signs, upper=1 in times.signs)
        assert all(kinds[k] for k in ("deleted", "terminus", "several", "lower", "upper")), kinds


class TestHandOver:
    """`path_sweep` hands `next_piece` the one index its step edited, and
    counts where each zone's piece came from."""

    @staticmethod
    def _sweep(kind, rho):
        """The sweep of `kind` on seed 5, as a call taking the memo; the
        transverse start comes from a descent run here."""
        if kind == "descent":
            inst, line = _gaussian_descent(48, 96, rho, 5)
            return lambda pieces=None: path_sweep(
                inst, line, zero_indicator(96), t_start=0.0, max_segments=1000, pieces=pieces)
        inst, line, s0 = _transverse_sweep(rho, 5)
        return lambda pieces=None: path_sweep(
            inst, line, s0, t_start=0.0, t_end=1.0, max_segments=1000, pieces=pieces)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("kind", ["descent", "transverse"])
    def test_handed_index_matches_derived(self, kind, rho, monkeypatch):
        # next_piece used to find the changed index by comparing the two
        # supports; handed the step's own index, it must build the same
        # pieces, and every piece carries pinv(M) s_E as apply formed it
        import sgmc.elars

        sweep = self._sweep(kind, rho)
        handed = sweep()
        built = []

        def derived(inst, piece, s, j):
            k = changed_index(piece, s)
            assert k == j
            built.append(next_piece(inst, piece, s, k))
            return built[-1]

        monkeypatch.setattr(sgmc.elars, "next_piece", derived)
        result = sweep()
        assert handed.stop_reason == result.stop_reason
        assert handed.stop_reason in ("lambda_terminus", "t_end_reached")
        assert len(handed.segments) == len(result.segments) == len(built) + 1
        for a, b in zip(handed.segments, result.segments):
            assert a.s.tobytes() == b.s.tobytes()
            assert (a.t_start, a.t_end, a.deleted, a.inserted) == (
                b.t_start, b.t_end, b.deleted, b.inserted)
            assert a.p.tobytes() == b.p.tobytes() and a.q.tobytes() == b.q.tobytes()
        for piece in built:
            assert piece.s_E.tobytes() == piece.s[piece.support].astype(float).tobytes()
            assert piece.Minv_s_E.tobytes() == (piece.Minv @ piece.s_E).tobytes()

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_generic_descent_rebuilds_only_its_start(self, rho):
        result = self._sweep("descent", rho)()
        assert result.stop_reason == "lambda_terminus"
        counters = result.to_dict()["counters"]
        assert counters == {"pieces_updated": len(result.segments) - 1,
                            "pieces_rebuilt": 1, "memo_hits": 0}

    def test_memo_hits_are_counted(self):
        # a second sweep through the same memo builds nothing
        pieces, sweep = {}, self._sweep("transverse", 0.3)
        first, second = sweep(pieces), sweep(pieces)
        assert first.memo_hits == 0 and first.pieces_updated > 0
        assert (second.pieces_updated, second.pieces_rebuilt) == (0, 0)
        assert second.memo_hits == first.pieces_updated + first.pieces_rebuilt == len(pieces)


class TestStartCertificate:
    """The start zone is certified by the interval its first step cuts from
    the line: entry <= t_start <= exit within the tie window."""

    Y_LINE = ParameterLine(np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]), 0.0)

    @pytest.mark.parametrize("name, first", [("0000", 0.0), ("++00", math.inf)])
    def test_boundary_start_accepted_by_both_zones(self, two_column, name, first):
        # y = lambda = 1 is on the boundary of {|y| <= lam} and {y >= lam}
        result = path_sweep(two_column, self.Y_LINE, indicator_from_string(name),
                            t_start=0.0, t_end=2.0)
        assert result.stop_reason == "t_end_reached"
        assert indicator_to_string(result.segments[0].s) == name
        assert result.segments[0].t_end == pytest.approx(min(first, 2.0), abs=1e-12)
        assert indicator_to_string(result.segments[-1].s) == "++00"

    @pytest.mark.parametrize("lam0, t_start", [(0.0, 0.0), (1.0, 1.0), (1.0, 3.0)])
    def test_nonpositive_lambda_raises(self, two_column, lam0, t_start):
        line = ParameterLine(np.array([0.5, 0.0]), lam0, np.zeros(2), -1.0)
        with pytest.raises(ValueError, match="lambda"):
            path_sweep(two_column, line, zero_indicator(2), t_start=t_start)

    def test_incompatible_start_raises(self, two_column):
        with pytest.raises(ValueError) as refusal:
            path_sweep(two_column, self.Y_LINE, indicator_from_string("+-00"), t_start=0.0)
        assert isinstance(refusal.value, InitializationError)
        assert "its zone is empty" in str(refusal.value)

    LEAVES = "the line leaves its zone before t_start"
    ENTERS = "the line enters its zone after t_start"

    @pytest.mark.parametrize("name, t_start, why", [("0000", 1e-6, LEAVES), ("++00", -1e-6, ENTERS),
                                                    ("0000", 3.0, LEAVES), ("--00", 0.0, LEAVES)])
    def test_start_outside_zone_raises(self, two_column, name, t_start, why):
        # a refused start is an InitializationError that says which half of
        # the interval missed t_start
        with pytest.raises(ValueError, match="not a valid zone indicator") as refusal:
            path_sweep(two_column, self.Y_LINE, indicator_from_string(name), t_start=t_start)
        assert isinstance(refusal.value, InitializationError) and why in str(refusal.value)

    @pytest.mark.parametrize("name, t_start", [("0000", 1e-10), ("++00", -1e-10)])
    def test_start_within_tie_window_accepted(self, two_column, name, t_start):
        result = path_sweep(two_column, self.Y_LINE, indicator_from_string(name),
                            t_start=t_start, t_end=2.0)
        assert result.stop_reason == "t_end_reached"

    def test_no_membership_call(self, monkeypatch):
        import sgmc.candidate

        def forbidden(*args, **kwargs):
            raise AssertionError("path_sweep called zone_membership")

        monkeypatch.setattr(sgmc.candidate, "zone_membership", forbidden)
        inst, line = _gaussian_descent(16, 32, 0.3, 4)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1000)
        assert result.stop_reason == "lambda_terminus"


class TestEvaluatePath:
    def test_inside_and_outside(self, descent_line):
        inst, line = descent_line
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        npt.assert_allclose(evaluate_path(result, 1.5), [0.25, 0.25, 0.0, 0.0], atol=1e-12)
        assert evaluate_path(result, 5.0) is None

    def test_window_scales_with_the_line(self):
        # the worked line with (y, lambda) scaled by 1e-8 ends at t = 2e-8;
        # 1e-12 past that is 1e-4 of its length, outside the path
        inst = ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([1e-8]), lam=1.0)
        line = ParameterLine(inst.b, 2e-8, np.zeros(2), -1.0)
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        assert result.stop_reason == "lambda_terminus"
        t_end = result.segments[-1].t_end
        assert t_end == pytest.approx(2e-8, rel=1e-12)
        npt.assert_allclose(evaluate_path(result, t_end), [5e-9, 5e-9, 0.0, 0.0], rtol=1e-9)
        assert evaluate_path(result, t_end + 1e-12) is None


class TestZeroStart:
    """The zero zone as a start, judged by `path_sweep` (and, at a point, by
    `zone_membership`); `initialize_indicator` is the oracle start only."""

    def test_accepted_above_lambda_max(self):
        inst = random_instance(85, m=3, n=5)
        lam = 1.01 * float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam, np.zeros(2 * inst.m), -1.0)
        result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1)
        assert indicator_to_string(result.segments[0].s) == "0" * 10

    def test_refused_below_lambda_max(self, two_column):
        line = ParameterLine(two_column.b, 1.0, np.zeros(2), -1.0)
        with pytest.raises(InitializationError):
            path_sweep(two_column, line, zero_indicator(2), t_start=0.0)

    @pytest.mark.parametrize("b, lam", [([math.nan, 0.0], 1.0), ([1.0, 0.0], math.nan),
                                        ([1.0, 0.0], math.inf)])
    def test_no_zone_at_non_finite_points(self, descent_line, b, lam):
        inst, _ = descent_line
        assert not zone_membership(inst, zero_indicator(inst.n), np.array(b), lam)


class TestInitializeIndicator:
    def test_oracle_strategy_two_column(self, two_column):
        s = initialize_indicator(two_column, two_column.b, 1.0, strategy="from_oracle")
        assert indicator_to_string(s) == "++00"

    def test_oracle_is_the_default(self, two_column):
        s = initialize_indicator(two_column, two_column.b, 1.0)
        assert indicator_to_string(s) == "++00"

    def test_zero_strategy_refused(self, two_column):
        with pytest.raises(ValueError, match="'zero'"):
            initialize_indicator(two_column, two_column.b, 1.0, strategy="zero")

    def test_path_sweep_refuses_a_reading_whose_zone_misses_the_start(self, two_column,
                                                                        monkeypatch):
        # an oracle answer of zeros below lambda_max = 2 reads the zero
        # indicator, which is returned unjudged; its zone does not hold
        # (b, 1), and path_sweep, the one judge of a start, refuses it
        monkeypatch.setattr(sgmc.elars, "solve_saddle", lambda inst: np.zeros(2 * inst.n))
        s = initialize_indicator(two_column, two_column.b, 1.0)
        assert indicator_to_string(s) == "0000"
        line = ParameterLine(two_column.b, 1.0, np.zeros(2), -1.0)
        with pytest.raises(InitializationError, match="leaves its zone before t_start"):
            path_sweep(two_column, line, s, t_start=0.0)

    def test_oracle_strategy_generic_slack(self):
        inst = random_instance(86, m=4, n=7, rho=0.3)
        s = initialize_indicator(inst, inst.b, inst.lam, strategy="from_oracle")
        assert zone_membership(inst, s, inst.b, inst.lam)
        assert zone_margins(candidate_slope(inst, s), inst.b, inst.lam) > 0


class TestEnumerateZones:
    def test_incomplete_follows_covered(self):
        graph = ZoneGraph(covered=[True, False])
        assert graph.incomplete and graph.to_dict()["incomplete"] is True
        graph.covered[1] = True
        assert not graph.incomplete and graph.to_dict()["incomplete"] is False

    def test_two_column_three_zones(self, two_column):
        graph = enumerate_zones(
            two_column, EnumerationConfig(r_y=5.0, delta_lambda_min=0.1, seed=0)
        )
        assert sorted(graph.nodes) == ["++00", "--00", "0000"]
        assert not graph.incomplete
        assert graph.coverage_covered == graph.coverage_required
        pairs = {(a, b) for a, b, *_ in graph.edges}
        assert pairs == {("++00", "0000"), ("--00", "0000")}

    def test_edge_witnesses_inside_both_zones(self, two_column):
        graph = enumerate_zones(
            two_column, EnumerationConfig(r_y=5.0, delta_lambda_min=0.1, seed=0)
        )
        for sa, sb, b_w, lam_w in graph.edges:
            for key in (sa, sb):
                piece = candidate_slope(two_column, graph.nodes[key])
                assert zone_margins(piece, b_w, lam_w) >= -1e-7 * lam_w

    def test_matches_brute_force_on_small_instance(self):
        inst = random_instance(87, m=2, n=2, rho=0.5)
        config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=1, n_coverage=16)
        graph = enumerate_zones(inst, config)
        assert not graph.incomplete
        brute = brute_force_indicators(inst.A, inst.rho, graph.coverage_points)
        meeting = set()
        for key, s in graph.nodes.items():
            piece = candidate_slope(inst, s)
            if any(
                zone_membership(inst, s, b, l, piece=piece)
                for b, l in graph.coverage_points
            ):
                meeting.add(key)
        assert meeting == brute.indicators

    @pytest.mark.parametrize("case", ["symmetric_2x2", "gaussian_2x3"])
    def test_graph_independent_of_piece_updates(self, case, monkeypatch):
        # the graph follows the zones, not the rounding of the route that
        # built their pieces: rebuilding every piece from scratch gives the
        # same nodes and edges, and no witness lies at the |b| ~ 1e15 where
        # rounding noise in a correlation slope would put an exit
        import sgmc.elars

        if case == "symmetric_2x2":  # criterion 7's structurally tied instance
            A = np.random.default_rng(104).normal(size=(2, 2))
            inst = ProblemInstance(A=A, rho=0.5, y=np.zeros(2), lam=1.0)
            config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=4, n_coverage=24)
        else:
            A = np.random.default_rng([1, 0]).normal(size=(2, 3))
            inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
            config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=0, n_coverage=24)

        def keys(graph):
            return sorted(graph.nodes), sorted((sa, sb) for sa, sb, *_ in graph.edges)

        updated = enumerate_zones(inst, config)
        sweep = sgmc.elars.path_sweep
        with monkeypatch.context() as patch:
            # every sweep builds its own pieces, as the memo-free callers do
            patch.setattr(
                sgmc.elars, "path_sweep", lambda *args, pieces=None, **kw: sweep(*args, **kw)
            )
            memo_free = enumerate_zones(inst, config)
        assert memo_free.memo_hits < updated.memo_hits
        monkeypatch.setattr(
            sgmc.elars, "next_piece", lambda inst, piece, s, *edit: candidate_slope(inst, s)
        )
        scratch = enumerate_zones(inst, config)
        assert keys(updated) == keys(memo_free) == keys(scratch)
        assert all(updated.covered) and not updated.incomplete
        assert max(np.abs(b_w).max() for _, _, b_w, _ in updated.edges) < 1e6

    def test_one_piece_per_indicator(self, monkeypatch):
        # one enumeration builds each zone's piece once, from scratch or by
        # an update, however many rays start in or cross the zone; only a
        # next_piece fallback adds a from-scratch build
        import sgmc.elars

        builds = Counter()

        def counting(fn, s_arg):
            def wrapped(*args):
                builds[indicator_to_string(args[s_arg])] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(sgmc.elars, "candidate_slope", counting(candidate_slope, 1))
        monkeypatch.setattr(sgmc.elars, "next_piece", counting(sgmc.elars.next_piece, 2))
        A = np.random.default_rng([1, 0]).normal(size=(2, 3))
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
        config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=0, n_coverage=24)
        graph = enumerate_zones(inst, config)
        assert max(builds.values()) == 1
        assert graph.pieces_built == len(builds) >= len(graph.nodes)
        assert graph.memo_hits > graph.pieces_built

    def test_data_too_small_to_sweep_raise(self):
        # every sweep from the zero zone meets the same rank_cut refusal; it
        # used to be swallowed per sweep, leaving a false incomplete graph
        A = np.random.default_rng(1).normal(size=(2, 3)) * 1e-160
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
        with pytest.raises(ValueError, match="rescale the data"):
            enumerate_zones(inst, EnumerationConfig(r_y=1e200, delta_lambda_min=0.3))

    def test_sweep_stopped_short_leaves_the_graph_incomplete(self, monkeypatch):
        # 4 of the 12 sweeps of this instance stop at an unverified step;
        # the 4 samples they miss lie in no zone found, so the graph is
        # incomplete, and it is so for that reason only
        import sgmc.elars

        stops = []
        sweep = sgmc.elars.path_sweep

        def recording(*args, **kwargs):
            result = sweep(*args, **kwargs)
            stops.append(result.stop_reason)
            return result

        monkeypatch.setattr(sgmc.elars, "path_sweep", recording)
        A = np.random.default_rng(2).integers(-1, 2, (2, 3)).astype(float)
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
        graph = enumerate_zones(inst, EnumerationConfig(r_y=3.0, delta_lambda_min=0.3))
        assert graph.incomplete
        assert (graph.coverage_covered, graph.coverage_required) == (60, 64)
        assert graph.rays == len(stops) == 12
        assert Counter(stops) == {"t_end_reached": 8, "unverified_step": 4}

    def test_edges_join_nodes(self):
        # every edge end is a node: a sweep's zones all become nodes
        edges = 0
        for seed in range(1, 21):
            A = np.random.default_rng(seed).normal(size=(3, 3))
            inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(3), lam=1.0)
            config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=seed)
            graph = enumerate_zones(inst, config)
            for sa, sb, *_ in graph.edges:
                assert sa in graph.nodes and sb in graph.nodes, (seed, sa, sb)
            edges += len(graph.edges)
        assert edges > 0

    def test_reruns_are_identical(self, two_column):
        config = EnumerationConfig(r_y=5.0, delta_lambda_min=0.1, seed=0)
        first = enumerate_zones(two_column, config)
        second = enumerate_zones(two_column, config)
        assert first.to_dict() == second.to_dict()

    def test_sweeps_from_the_zero_zone_to_each_uncovered_sample(self, monkeypatch):
        # each sweep starts in the zero zone at b = 0 on its sample's
        # lambda, runs for the first sample that no node found before it
        # covers, and ends at t = 1 in a zone that holds that sample; no
        # sweep follows the one that covers the last sample
        import sgmc.elars

        sweeps = []
        sweep = sgmc.elars.path_sweep

        def recording(inst, line, s, **kwargs):
            result = sweep(inst, line, s, **kwargs)
            sweeps.append((s, result))
            return result

        monkeypatch.setattr(sgmc.elars, "path_sweep", recording)
        inst, config = _gaussian_zones_instance()
        graph = enumerate_zones(inst, config)
        assert not graph.incomplete
        assert graph.rays == len(sweeps) > 1
        meets = _meets(inst, graph)
        found = {indicator_to_string(zero_indicator(inst.n))}
        for s, result in sweeps:
            covered = np.any([meets[k] for k in found], axis=0)
            assert not covered.all()
            j = int(np.flatnonzero(~covered)[0])
            b, lam = graph.coverage_points[j]
            line = result.line
            assert not s.any()
            assert not line.b0.any() and line.delta_lam == 0
            npt.assert_array_equal(line.delta_b, b)
            assert line.lam0 == lam
            segs = result.segments
            assert segs[0].t_start == 0 and not segs[0].s.any()
            assert result.stop_reason == "t_end_reached" and segs[-1].t_end == 1
            assert zone_membership(inst, segs[-1].s, b, lam)
            found |= {indicator_to_string(seg.s) for seg in segs}
        assert found == set(graph.nodes)
        assert np.any([meets[k] for k in found], axis=0).all()

    def test_sweeps_run_to_their_samples_uncapped(self, monkeypatch):
        # Gaussian 30 x 60 at y = 0: the longest of its 16 sweeps takes 91
        # segments; a cap of 64 stopped 10 of them short, 10 samples uncovered
        import sgmc.elars

        stops = []
        sweep = sgmc.elars.path_sweep

        def recording(*args, **kwargs):
            result = sweep(*args, **kwargs)
            stops.append(result.stop_reason)
            return result

        monkeypatch.setattr(sgmc.elars, "path_sweep", recording)
        A = np.random.default_rng(0).normal(size=(30, 60))
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(30), lam=1.0)
        graph = enumerate_zones(inst, EnumerationConfig(r_y=3.0, delta_lambda_min=0.3,
                                                        n_coverage=16))
        assert graph.coverage_covered == graph.coverage_required == 16
        assert stops == ["t_end_reached"] * graph.rays

    def test_invalid_delta_lambda(self, two_column):
        with pytest.raises(ValueError):
            enumerate_zones(two_column, EnumerationConfig(r_y=1.0, delta_lambda_min=0.0))

    @pytest.mark.parametrize("count", [0, -3, 2.0, True])
    def test_coverage_sample_must_be_a_count(self, two_column, count):
        # an empty sample used to give a graph that read as complete, and
        # True, an Integral, a sample of one point
        config = EnumerationConfig(r_y=1.0, delta_lambda_min=0.3, n_coverage=count)
        with pytest.raises(ValueError, match="n_coverage"):
            enumerate_zones(two_column, config)


def _gaussian_zones_instance():
    A = np.random.default_rng([1, 0]).normal(size=(2, 3))
    inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
    return inst, EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=0, n_coverage=24)


def _meets(inst, graph):
    """For each node, whether its zone holds each coverage point."""
    meets = {}
    for key, s in graph.nodes.items():
        piece = candidate_slope(inst, s)
        meets[key] = np.array([zone_membership(inst, s, b, lam, piece=piece)
                               for b, lam in graph.coverage_points])
    return meets
