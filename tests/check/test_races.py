"""Behavioral tests for the parameterized race checker."""

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.races import check_races
from repro.check.result import Verdict
from repro.kernels import load
from repro.lang import check_kernel, parse_kernel

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}


class TestRaceFreeKernels:
    @pytest.mark.parametrize("name,builder,conc", [
        ("naiveTranspose", transpose_assumptions, TRANSPOSE_CONC),
        ("optimizedTranspose", transpose_assumptions, TRANSPOSE_CONC),
        ("naiveReduce", reduction_assumptions, REDUCE_CONC),
        ("optimizedReduce", reduction_assumptions, REDUCE_CONC),
    ])
    def test_verified(self, name, builder, conc):
        _, info = load(name)
        out = check_races(info, 8, assumption_builder=builder,
                          concretize=conc, timeout=120)
        assert out.verdict is Verdict.VERIFIED, (name, out.reason)

    def test_scan_unsupported_due_to_loop_carried_scalars(self):
        # the ping-pong parity scalars (pout/pin) are loop-carried, which
        # the parameterized extraction rejects — an honest UNSUPPORTED,
        # not a false verdict (the interpreter covers scan dynamically)
        _, info = load("scanNaive")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          concretize=REDUCE_CONC, timeout=60)
        assert out.verdict is Verdict.UNSUPPORTED
        assert "carried" in out.reason

    def test_reduction_fully_parameterized(self):
        """Race freedom of the reduction loop for ANY pow2 block size."""
        _, info = load("optimizedReduce")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          timeout=180)
        assert out.verdict is Verdict.VERIFIED


def one_d(geo, inputs):
    return [geo.one_dimensional(), geo.single_block()]


class TestRacyKernels:
    def test_hillis_steele_race_found(self):
        _, info = load("scanRacy")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          concretize=REDUCE_CONC, timeout=120)
        assert out.verdict is Verdict.BUG
        assert "race" in out.counterexample.detail

    def test_write_write_race(self):
        info = check_kernel(parse_kernel(
            "void f(int *o) { o[0] = tid.x; }"))
        out = check_races(info, 8, timeout=60)
        assert out.verdict is Verdict.BUG
        assert "write-write" in out.counterexample.detail

    def test_read_write_race(self):
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[bdim.x];
                s[tid.x] = s[(tid.x + 1) % bdim.x];
                __syncthreads();
                o[tid.x] = s[tid.x];
            }"""))
        out = check_races(info, 8, assumption_builder=one_d, timeout=60)
        assert out.verdict is Verdict.BUG
        assert "read-write" in out.counterexample.detail

    def test_single_thread_cannot_race_itself(self):
        # restricted to 1-D launches: distinct threads have distinct tid.x,
        # so the read-modify-write of one thread cannot conflict
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = 1;
                o[tid.x] += 1;
            }"""))
        out = check_races(info, 8, assumption_builder=one_d, timeout=60)
        assert out.verdict is Verdict.VERIFIED

    def test_2d_block_does_race_on_tidx_only_address(self):
        # ...but WITHOUT the 1-D restriction the same kernel races: threads
        # sharing tid.x but differing in tid.y hit the same cell.
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = 1;
                o[tid.x] += 1;
            }"""))
        out = check_races(info, 8, timeout=60)
        assert out.verdict is Verdict.BUG

    def test_distinct_blocks_do_not_alias_shared(self):
        from repro.smt import Eq

        def one_d_grid(geo, inputs):
            # 1-D blocks, 1-D grid, no address wraparound
            return [geo.one_dimensional(), geo.extent_fits(
                geo.bdim["x"], geo.gdim["x"])]

        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[bdim.x];
                s[tid.x] = bid.x;
                __syncthreads();
                o[bid.x * bdim.x + tid.x] = s[tid.x];
            }"""))
        out = check_races(info, 8, assumption_builder=one_d_grid, timeout=60)
        assert out.verdict is Verdict.VERIFIED

    def test_global_race_across_blocks(self):
        def blocks(geo, inputs):
            from repro.smt import UGe
            return [geo.one_dimensional(), UGe(geo.gdim["x"], 2)]

        info = check_kernel(parse_kernel(
            "void f(int *o) { o[tid.x] = bid.x; }"))
        # two blocks write the same o[tid.x]
        out = check_races(info, 8, assumption_builder=blocks, timeout=60)
        assert out.verdict is Verdict.BUG


# ------------------------------------------------------- witness-block replay

#: The suite's race kernels (Table I) with their suite assumptions; the
#: transposes are checked at the +C concretization, as in Table I.
SUITE_RACE_KERNELS = {
    "naiveReduce": (reduction_assumptions, None),
    "optimizedReduce": (reduction_assumptions, None),
    "scalarProd": (reduction_assumptions, None),
    "scanRacy": (reduction_assumptions, None),
    "naiveTranspose": (transpose_assumptions, TRANSPOSE_CONC),
    "optimizedTranspose": (transpose_assumptions, TRANSPOSE_CONC),
}


@pytest.fixture()
def replays(monkeypatch):
    """Every interpreter run the race checker makes, as ``(blocks, raced,
    rounds, launch blocks)``; ``raced`` is None for a run that faulted."""
    import repro.check.races as races
    from repro.errors import InterpError
    log = []
    real = races.run_kernel

    def spy(info, config, *args, **kwargs):
        try:
            result = real(info, config, *args, **kwargs)
        except InterpError:
            log.append((kwargs.get("blocks"), None, 0, config.num_blocks))
            raise
        log.append((kwargs.get("blocks"), bool(result.races), result.rounds,
                    config.num_blocks))
        return result

    monkeypatch.setattr(races, "run_kernel", spy)
    return log


def _scoped_vs_full(info, width, builder, conc, replays, monkeypatch):
    """Check once with witness-block replay and once replaying the full
    launch only; assert the two agree.  Returns the verdict and both
    runs' replay logs."""
    import repro.check.races as races
    replays.clear()
    scoped = check_races(info, width, assumption_builder=builder,
                         concretize=conc, timeout=120)
    scoped_runs = list(replays)
    replays.clear()
    with monkeypatch.context() as m:
        m.setattr(races, "_witness_blocks", lambda *args: None)
        full = check_races(info, width, assumption_builder=builder,
                           concretize=conc, timeout=120)
    full_runs = list(replays)
    assert scoped.verdict is full.verdict, (scoped.reason, full.reason)
    assert scoped.counterexample == full.counterexample
    assert bool(scoped_runs) == bool(full_runs)
    if scoped_runs:
        blocks, raced, rounds, launch = scoped_runs[0]
        assert blocks is not None and all(r[0] is None for r in full_runs)
        if raced:  # a scoped confirmation implies a full-launch one
            assert full_runs[-1][1]
        if raced is not None and full_runs[0][1] is not None:
            assert rounds <= full_runs[0][2]
            if launch > len(set(blocks)):
                assert rounds < full_runs[0][2]
    return scoped.verdict, scoped_runs, full_runs


class TestWitnessBlockReplay:
    @pytest.mark.parametrize("assumed", [True, False],
                             ids=["assumed", "none"])
    @pytest.mark.parametrize("width", [8, 16, 32])
    @pytest.mark.parametrize("name", sorted(SUITE_RACE_KERNELS))
    def test_suite_matches_full_launch(self, name, width, assumed, replays,
                                       monkeypatch):
        _, info = load(name)
        builder, conc = SUITE_RACE_KERNELS[name] if assumed else (None, None)
        _, scoped, full = _scoped_vs_full(info, width, builder, conc,
                                          replays, monkeypatch)
        if not assumed and not name.endswith("Transpose"):
            # the unconstrained model launches a 4x4 grid; its one witness
            # block confirms alone, in a sixteenth of the rounds
            blocks, raced, rounds, launch = scoped[0]
            assert len(scoped) == 1 and raced
            assert len(set(blocks)) == 1 and launch == 16
            assert rounds * launch == full[0][2]

    def test_refuted_mutants_match_full_launch(self, replays, monkeypatch):
        from repro.kernels.mutations import all_mutants
        refuted = fallbacks = 0
        for name, (builder, conc) in sorted(SUITE_RACE_KERNELS.items()):
            kernel, _ = load(name)
            for mutant in all_mutants(kernel):
                info = check_kernel(mutant.kernel)
                verdict, scoped, _ = _scoped_vs_full(
                    info, 8, builder, conc, replays, monkeypatch)
                refuted += verdict is not Verdict.VERIFIED
                fallbacks += len(scoped) == 2
        assert refuted >= 5
        assert fallbacks >= 1

    def test_fallback_confirms_a_race_outside_the_witness_blocks(
            self, replays):
        from repro.check.races import _replay_race
        from repro.check.result import Counterexample
        # only block (1, 0) races: a scoped run of block (0, 0) sees
        # nothing, so confirmation must come from the full launch
        info = check_kernel(parse_kernel(
            "void f(int *o) { if (bid.x == 1) { o[0] = tid.x; } }"))
        cex = Counterexample(bdim=(2, 1, 1), gdim=(2, 1))
        assert _replay_race(info, cex, 8, [(0, 0), (0, 0)])
        assert [(b, raced) for b, raced, _, _ in replays] == \
            [([(0, 0), (0, 0)], False), (None, True)]

    def test_fault_in_witness_blocks_falls_back(self, replays):
        from repro.check.races import _replay_race
        from repro.check.result import Counterexample
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[bdim.x];
                s[tid.x + 1] = 1;
            }"""))
        cex = Counterexample(bdim=(2, 1, 1), gdim=(1, 1))
        assert not _replay_race(info, cex, 8, [(0, 0), (0, 0)])
        assert [(b, raced) for b, raced, _, _ in replays] == \
            [([(0, 0), (0, 0)], None), (None, None)]

    def test_checker_bug_in_replay_propagates(self, monkeypatch):
        import repro.check.races as races
        from repro.check.result import Counterexample

        def broken(*args, **kwargs):
            raise KeyError("interpreter bug")

        monkeypatch.setattr(races, "run_kernel", broken)
        info = check_kernel(parse_kernel("void f(int *o) { o[0] = tid.x; }"))
        cex = Counterexample(bdim=(2, 1, 1), gdim=(1, 1))
        with pytest.raises(KeyError):
            races._replay_race(info, cex, 8, [(0, 0), (0, 0)])
