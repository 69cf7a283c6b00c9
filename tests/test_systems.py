"""Builders, subsystem constructions, and the planar pole-decay model."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bowendim import (
    AscendingSpec,
    BudgetError,
    BuildError,
    EdgeSpec,
    InputError,
    IntegrityError,
    MoebiusInverse,
    Similarity,
    Word,
    autonomous_closure,
    bowen_dimension,
    build_ascending,
    build_cf_system,
    build_gdms,
    build_similarity_system,
    certify_primitivity,
    compose_norm,
    contraction_eta,
    count_words,
    elliptic_lower_bound,
    extract_subsystem_g_bounded,
    find_primitivity,
    gaussian_lattice_poles,
    image_region,
    interval,
    partition,
    reblock_one_primitive,
    reblock_pinched,
    sample_limit_set,
    verify_osc,
)
from bowendim import _frontier, bundled, cli, symbolic, systems
from bowendim.config import _PACKAGED, build_from_spec, load_config

from conftest import mixed_pair_system
from oracles import all_pairs_connectors, schedule_words

# (ratio, center) of each elliptic-q2 letter, the same at every time: the
# centers of the point-by-point `math` disk packing, recorded before its
# candidates were screened with numpy.
ELLIPTIC_Q2_DISKS = [
    (0.19245008972987526, (0.0, 0.0)),
    (0.19245008972987526, (0.4381912897190635, 0.0)),
    (0.19245008972987526, (0.23966791881713254, 0.36683905881942375)),
    (0.19245008972987526, (-0.17601943620293156, 0.40128389509729684)),
    (0.17782794100389226, (-0.4322149316670154, 0.07212391579589568)),
    (0.17782794100389226, (-0.2967788853736378, -0.3223878092950126)),
    (0.17782794100389226, (0.10756960221753921, -0.4247827527859584)),
    (0.17782794100389226, (0.4711317808400327, -0.4583240768825328)),
    (0.17782794100389226, (0.641381739823676, 0.3492778795089147)),
    (0.17782794100389226, (0.05457679348243603, 0.7282766966659479)),
    (0.17782794100389226, (-0.5353615752468087, 0.4967429486593092)),
    (0.17782794100389226, (-0.7077353764836162, -0.18021157056938267)),
    (0.14606376323968784, (-0.3003707102760336, -0.6656898750182104)),
    (0.14606376323968784, (0.8033506978182829, 0.0)),
    (0.14606376323968784, (0.44256347447553235, 0.6704550057574833)),
    (0.14606376323968784, (-0.31573693343923204, 0.7387032777424993)),
    (0.14606376323968784, (-0.774400236810922, 0.2137208855313633)),
]


def _scan_pack(radii):
    """Reference disk packing: every ring point tested one by one with math."""
    order = np.argsort(-np.asarray(radii))
    placed = []
    centers = [None] * len(radii)
    step = max(min(radii) / 2.0, 1e-3)
    for idx in order:
        r = radii[idx]
        done = False
        rad = 0.0
        while rad + r <= 1.0 + 1e-12 and not done:
            k_max = max(1, int(math.ceil(2 * math.pi * max(rad, step) / step)))
            for k in range(k_max):
                ang = 2 * math.pi * k / k_max
                cx, cy = rad * math.cos(ang), rad * math.sin(ang)
                if math.hypot(cx, cy) + r > 1.0:
                    continue
                if all(
                    math.hypot(cx - px, cy - py) >= r + pr for (px, py, pr) in placed
                ):
                    placed.append((cx, cy, r))
                    centers[idx] = (cx, cy)
                    done = True
                    break
            rad += step
        if not done:
            return None
    return centers


class TestSimilarityBuilder:
    def test_middle_thirds(self, cantor):
        assert cantor.is_ncifs and cantor.is_autonomous
        assert cantor.distortion == 1.0
        assert cantor.contraction.eta_block == pytest.approx(1 / 3)

    def test_alternating_closed_form_target(self, alt):
        res = bowen_dimension(alt, (0.3, 0.9), 24)
        assert res.bracket[0] <= 2 / 3 <= res.bracket[1]

    def test_ab_packing_feasible(self, abhalf):
        # 2^n images of width 4^-n fit in [0, 1] disjointly
        assert verify_osc(abhalf, 1).ok
        assert len(abhalf.schedule.letters(12)) == 2**12

    def test_escaping_image_rejected(self):
        with pytest.raises(BuildError):
            build_similarity_system([[1.2, 0.3]] * 4, [[0.0, 0.5]] * 4)


class TestCfBuilder:
    def test_stationary_full(self, cf18):
        assert cf18.is_ncifs and cf18.is_autonomous
        assert cf18.distortion == 4.0
        assert cf18.contraction.block == 2

    def test_single_digit_fixed_point(self):
        sys2 = build_cf_system([[2]] * 20)
        lo, hi = image_region(Word(1, ("2",) * 20), sys2).bounds
        assert 0.5 * (lo + hi) == pytest.approx(math.sqrt(2) - 1, abs=1e-7)

    def test_alternating_digit_sets_word_counts(self):
        sys_a = build_cf_system([[1, 2], [2, 3]] * 4)
        assert count_words(1, 5, sys_a.schedule) == 2**5

    def test_digit_below_one_rejected(self):
        with pytest.raises(BuildError):
            build_cf_system([[0.5, 2]] * 6)


class TestIncidenceSteps:
    """Every builder takes per-step incidence lists of exactly horizon - 1."""

    BUILDERS = {
        "similarity": lambda mats: build_similarity_system(
            [[0.3, 0.3]] * 4, [[0.0, 0.5]] * 4, mats
        ),
        "cf": lambda mats: build_cf_system([[1, 2]] * 4, matrix_rule=mats),
        "gdms": lambda mats: build_gdms(
            [("v",)] * 5,
            [[EdgeSpec("a", "v", "v", Similarity(0.3, (0.0,))),
              EdgeSpec("b", "v", "v", Similarity(0.3, (0.5,)))]] * 4,
            {"v": interval(0.0, 1.0)},
            mats,
        ),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("steps", [2, 4])
    def test_wrong_step_count_rejected(self, builder, steps):
        mat = np.array([[1, 1], [1, 0]], dtype=bool)
        with pytest.raises(BuildError, match=f"need 3 incidence steps, got {steps}"):
            self.BUILDERS[builder]([mat] * steps)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_step_forms_agree(self, builder):
        mat = np.array([[1, 1], [1, 0]], dtype=bool)
        counts = [
            [count_words(1, n, self.BUILDERS[builder](mats).schedule) for n in (3, 4)]
            for mats in (mat, [mat] * 3, [mat, "full", "identity"])
        ]
        assert counts == [[5, 8], [5, 8], [6, 6]]

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_nested_list_matrices(self, builder):
        # one matrix as a list of rows is reused at every step, as its array
        # is; a per-step list of such matrices stays one matrix per step
        mat = np.array([[1, 1], [1, 0]], dtype=bool)
        rows = mat.astype(int).tolist()

        def steps(mats):
            sched = self.BUILDERS[builder](mats).schedule
            return [sched.step_matrix(j).tolist() for j in range(1, 4)]

        assert steps(rows) == steps(mat) == steps([mat] * 3)
        assert steps([rows, rows, [[1, 1], [1, 1]]]) == steps([mat, mat, "full"])


    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_autonomy_compares_the_allowed_pairs(self, builder):
        # a complete step and the all-ones matrix allow the same pairs; one
        # pair fewer is another step
        ones = np.ones((2, 2), dtype=bool)
        fewer = np.array([[1, 1], [1, 0]], dtype=bool)
        build = self.BUILDERS[builder]
        assert build(["full", ones, "full"]).is_autonomous
        assert build([ones, "full", ones]).is_autonomous
        assert not build(["full", fewer, "full"]).is_autonomous
        assert not build([fewer, "full", fewer]).is_autonomous
        assert not build([ones, ones, fewer]).is_autonomous

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 6),
        horizon=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reused_array_is_one_bound_step(self, size, horizon, seed):
        # one array at every step of a one-vertex schedule binds one
        # incidence; its tables and transfers are those of per-step copies
        rng = np.random.default_rng(seed)
        mat = rng.random((size, size)) < 0.6
        ratios = [1.0 / (2 * size)] * size
        offsets = [k / size for k in range(size)]

        def build(mats):
            return build_similarity_system([ratios] * horizon, [offsets] * horizon, mats)

        try:
            shared = build(mat).schedule
        except IntegrityError:  # pruning emptied an alphabet
            assume(False)
        copies = build([mat.copy() for _ in range(horizon - 1)]).schedule
        assert len({id(inc) for inc in shared.incidence[1:]}) == 1
        assert len({id(inc) for inc in copies.incidence[1:]}) == horizon - 1
        for n in range(1, horizon):
            mine, theirs = shared.follower_table(n), copies.follower_table(n)
            for field in ("row", "counts", "ptr", "cols"):
                assert np.array_equal(getattr(mine, field), getattr(theirs, field))
            u, w = rng.random(size), rng.random(size)
            keep = rng.random(size) < 0.7
            counts = rng.integers(0, 2**40, size).tolist()
            a, b = shared.incidence[n], copies.incidence[n]
            assert a.transfer(u, w, keep).tobytes() == b.transfer(u, w, keep).tobytes()
            assert a.count_transfer(counts) == b.count_transfer(counts)

    def test_reused_matrix_with_other_vertex_codes_raises(self):
        # one matrix at every step of a gdms config: step 2 allows a pair
        # whose vertices differ, and says so as per-step matrices did
        def edge(label, src, dst, offset):
            return {"label": label, "src": src, "dst": dst, "ratio": 0.2, "offset": offset}

        spec = {
            "kind": "gdms", "horizon": 4,
            "vertices": {"cycle": [["a", "b"]]},
            "spaces": {"a": [0, 1], "b": [0, 1]},
            "edges": {"cycle": [
                [edge("e0", "a", "a", 0.0), edge("e1", "b", "b", 0.5)],
                [edge("f0", "a", "b", 0.0), edge("f1", "b", "a", 0.5)],
            ]},
            "matrices": [[1, 0], [0, 1]],
        }
        with pytest.raises(IntegrityError) as exc:
            build_from_spec(spec)
        assert str(exc.value) == "incidence allows letters 0->0 with t(a)='b' != i(b)='a'"

    def test_autonomy_verdicts_of_the_bundled_systems(self):
        # the verdicts before steps that reuse one relation shared one object
        verdicts = {name: load_config(name)[1].is_autonomous for name in sorted(_PACKAGED)}
        assert verdicts == {
            "ab-half": False, "alt24": False, "ascend-cf12": False, "cantor3": True,
            "cf12": True, "elliptic-q2": True, "gdms2v": True, "interval2": True,
            "perm2": True, "pinch2": False,
        }

    def test_autonomy_builds_no_matrix(self, monkeypatch):
        # 300 digits a time: the check compares follower tables, not
        # letters-by-letters matrices
        system = build_cf_system([list(range(1, 301))] * 8)

        def no_matrix(*args, **kwargs):
            raise AssertionError("matrix built")

        for cls in (symbolic.Incidence, symbolic.FullIncidence, symbolic.DenseIncidence):
            monkeypatch.setattr(cls, "matrix", no_matrix)
        assert system.is_autonomous


class TestAscending:
    def test_cf_ascending_flags(self):
        sys_a = bundled.ascend_cf12(12)
        assert "ascending" in sys_a.flags
        assert len(sys_a.schedule.letters(1)) == 1
        assert len(sys_a.schedule.letters(2)) == 2

    def test_nesting_violation_rejected(self):
        base = {"1": MoebiusInverse(1.0), "2": MoebiusInverse(2.0)}
        spec = AscendingSpec(base, [["1", "2"], ["1"], ["1", "2"]])
        with pytest.raises(BuildError):
            build_ascending(spec)

    def test_closure_constant_alphabets_identity(self):
        base = {"1": MoebiusInverse(1.0), "2": MoebiusInverse(2.0)}
        spec = AscendingSpec(base, [["1", "2"]] * 8)
        closed = autonomous_closure(spec)
        assert closed.is_autonomous
        assert [e.label for e in closed.schedule.letters(1)] == ["1", "2"]

    def test_closure_of_ascending_cf(self):
        spec = bundled.ascend_cf12_spec(12)
        closed = autonomous_closure(spec)
        ref = bundled.cf12(12)
        a = partition(closed, 1, 6, 0.5).value
        b = partition(ref, 1, 6, 0.5).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_growing_similarity_family_closure(self):
        # letters k = 1..n at time n with ratio 2^-k, packed disjointly
        base = {}
        offset = 0.0
        for k in range(1, 7):
            base[f"s{k}"] = Similarity(2.0 ** -(k), (offset,))
            offset += 2.0**-k
        include = [[f"s{j}" for j in range(1, min(n, 6) + 1)] for n in range(1, 9)]
        spec = AscendingSpec(base, include, infinite_family=True)
        sys_a = build_ascending(spec)
        closed = autonomous_closure(spec)
        assert closed.notes  # truncation is annotated
        d_asc = bowen_dimension(sys_a, (0.1, 0.999), 8).midpoint
        d_clo = bowen_dimension(closed, (0.1, 0.999), 8).midpoint
        assert d_asc <= d_clo + 1e-3


class TestReblockUniform:
    def test_p1_certificate_blocks_of_one(self, gdms):
        cert1 = certify_primitivity(gdms.schedule, 1)
        out = reblock_one_primitive(gdms, cert1)
        assert [e.label for e in out.schedule.letters(1)] == [
            e.label for e in gdms.schedule.letters(1)
        ]

    def test_p2_block_alphabets_and_counts(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        assert cert.p == 2
        out = reblock_one_primitive(gdms, cert)
        # block letters are exactly the admissible pairs
        assert len(out.schedule.letters(1)) == count_words(1, 2, gdms.schedule)
        for k in range(1, out.horizon + 1):
            assert count_words(1, k, out.schedule) == count_words(
                1, 2 * k, gdms.schedule
            )

    def test_block_alphabet_in_brute_order(self, gdms):
        for start in (1, 2, 7):
            cuts = [start - 1, start + 1]
            block = systems._block_system(
                gdms, cuts, [systems._block_words(gdms, start, 2)],
                [gdms.schedule.vertex_sets[c] for c in cuts],
                [gdms.spaces[c] for c in cuts],
            )
            assert [e.label for e in block.schedule.letters(1)] == [
                ".".join(w) for w in schedule_words(gdms.schedule, start, start + 1)
            ]

    def test_reblocked_is_one_primitive(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        out = reblock_one_primitive(gdms, cert)
        assert certify_primitivity(out.schedule, 1) is not None

    def test_limit_points_coincide(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        out = reblock_one_primitive(gdms, cert)
        a = sample_limit_set(gdms, 6, 8192)
        b = sample_limit_set(out, 3, 8192)
        xa = np.sort(a.coords[:, 0])
        xb = np.sort(b.coords[:, 0])
        assert np.allclose(xa, xb, atol=2 * (a.radii.max() + b.radii.max()))

    def test_block_alphabet_past_the_dense_cap_refused(self, monkeypatch):
        # 71 letters with complete incidence: 71^2 = 5041 block words at p = 2
        wide = build_similarity_system(
            [[0.01] * 71] * 4, [[k / 71 for k in range(71)]] * 4
        )
        cert = certify_primitivity(wide.schedule, 2)

        def walked(*args):
            raise AssertionError("block words walked before the size check")

        monkeypatch.setattr("bowendim.systems._block_words", walked)
        with pytest.raises(BudgetError, match="5041 words"):
            reblock_one_primitive(wide, cert)


class TestReblockPinched:
    def test_single_vertex_identity_blocks(self):
        sys_c = bundled.cantor3(8)
        out = reblock_pinched(sys_c, [1, 2, 3, 4, 5, 6, 7, 8])
        assert out.horizon == 8
        assert partition(out, 1, 4, 0.5).value == pytest.approx(
            partition(sys_c, 1, 4, 0.5).value, rel=1e-12
        )

    def test_even_pinches_partition_identity_exact(self, pinch):
        out = reblock_pinched(pinch, [2, 4, 6, 8, 10, 12])
        assert out.is_ncifs
        for t in (0.3, 0.5, 0.8):
            for n in range(1, 6):
                z_orig = _frontier.level_norms(pinch, 1, 2 * n).power_sums(t)[2 * n]
                z_blk = _frontier.level_norms(out, 1, n).power_sums(t)[n]
                assert z_blk[1] == z_orig[1]  # bit-exact on dyadic ratios

    def test_evenly_spaced_pinches_accepted(self, tmp_path):
        # l_n = 2n: (l_n^2 - l_(n-1)^2)/n = 4(2n - 1)/n converges, so the
        # spacing passes as spacing 1 does
        cf = bundled.cf12()
        out = reblock_pinched(cf, [2, 4, 6])
        for n, pinch_time in enumerate([2, 4, 6], start=1):
            assert partition(out, 1, n, 0.5).hi == pytest.approx(
                partition(cf, 1, pinch_time, 0.5).hi, rel=1e-12
            )
        args = ["subsystem", "cf12", "--mode", "pinched", "--pinch-times", "2", "4", "6"]
        assert cli.main(args + ["--out", str(tmp_path)]) == 0

    def test_quadratic_pinch_times_rejected(self):
        # (l_n^2 - l_(n-1)^2)/n grows without bound for quadratic pinch times
        sys_long = bundled.pinch2(72)
        with pytest.raises(BuildError):
            reblock_pinched(sys_long, [4, 16, 36, 64])

    def test_pinch_at_two_vertex_time_rejected(self, pinch):
        with pytest.raises(BuildError):
            reblock_pinched(pinch, [1, 3, 5])

    def test_block_of_both_families_rejected(self):
        # block 1 is a similarity at time 1 then a reciprocal shift at time 2
        with pytest.raises(
            BuildError, match="^block 's0.1' holds MoebiusInverse, Similarity; only"
        ):
            reblock_pinched(mixed_pair_system(8), [2, 4, 6, 8])

    def test_block_past_2_512_rejected(self):
        # ten digits 2^52 fold to a continuant near 2^520: the builder's
        # rejection, not the map's InputError
        with pytest.raises(
            BuildError,
            match=r"^block '4503599627370496\.0(\.4503599627370496\.0){9}':"
            r" a block's continuant passes 2\^512$",
        ):
            reblock_pinched(build_cf_system([[2.0**52]] * 10), [10])

    def test_pinched_digit_blocks_sweep(self, monkeypatch):
        # each two-digit block folds into one Moebius letter, so the 1,398,100
        # words of levels 1..10 take the sweep, not the word-at-a-time walk
        sub = reblock_pinched(bundled.cf12(20), list(range(2, 21, 2)))
        calls = []
        monkeypatch.setattr(_frontier, "generic_norm_walk", lambda *a, **k: calls.append(a))
        assert sum(_frontier.level_norms(sub, 1, 10).sizes) == 1398100
        res = bowen_dimension(sub, (0.0, 1.0), sub.horizon)
        assert calls == []
        # the bracket and justification of the walked composed blocks
        assert res.bracket == (0.53125, 0.53131103515625)
        assert res.hypothesis.justification == "autonomous-system"


@pytest.mark.parametrize("name", ["cf12", "ascend-cf12"])
def test_digit_block_subsystems_are_moebius(name):
    system = bundled.BUNDLED[name]()
    subsystems = [
        reblock_pinched(system, list(range(2, system.horizon + 1, 2))),
        reblock_one_primitive(system, certify_primitivity(system.schedule, 2)),
        extract_subsystem_g_bounded(
            system, find_primitivity(system.schedule, 2), 3, 0.5
        ).system,
    ]
    for sub in subsystems:
        assert _frontier._family(sub, 1, sub.horizon) == "moebius"
        assert all(type(p) is MoebiusInverse for row in sub.maps[1:] for p in row)


class TestBlockSubsystem:
    def test_pressure_dominates_subsystem(self, gdms26):
        cert1 = certify_primitivity(gdms26.schedule, 1)
        for ell in (2, 3, 4):
            sub = extract_subsystem_g_bounded(gdms26, cert1, ell, 0.5)
            for m in range(1, sub.blocks + 1):
                zs = partition(sub.system, 1, m, 0.5).value
                zf = partition(gdms26, 1, m * (ell + 1), 0.5).value
                assert zs <= zf * (1 + 1e-12)

    def test_bowen_dimension_nondecreasing_in_ell(self, gdms26):
        cert1 = certify_primitivity(gdms26.schedule, 1)
        mids = []
        for ell in (2, 3, 4):
            sub = extract_subsystem_g_bounded(gdms26, cert1, ell, 0.5)
            mids.append(bowen_dimension(sub.system, (0.0, 0.99), sub.blocks).midpoint)
        assert mids[0] <= mids[1] + 1e-9 and mids[1] <= mids[2] + 1e-9

    def test_p0_all_pairs_trivial_maximizer(self):
        sys_c = bundled.cantor3(8)
        cert0 = find_primitivity(sys_c.schedule, 2)
        sub = extract_subsystem_g_bounded(sys_c, cert0, 2, 0.5)
        # equal ratios: every pair ties; lexicographically smallest chosen
        assert sub.pairs[0] == ("m0", "m0")
        assert sub.p == 0

    def test_cf_restricted_maximizer(self, cf18):
        cert0 = find_primitivity(cf18.schedule, 2)
        sub = extract_subsystem_g_bounded(cf18, cert0, 3, 0.5)
        # exhaustive restricted sums: the (1, ..., 1) endpoints carry the
        # largest norms, so the maximizing pair is ('1', '1')
        sums = {}
        for mid in ("1", "2"):
            for a in ("1", "2"):
                for b in ("1", "2"):
                    w = Word(1, (a, mid, b))
                    sums.setdefault((a, b), 0.0)
                    sums[(a, b)] += compose_norm(w, cf18).hi**0.5
        best = max(sorted(sums), key=lambda k: sums[k])
        assert sub.pairs[0] == best == ("1", "1")
        z_sub = partition(sub.system, 1, sub.blocks, 0.5).value
        z_full = partition(cf18, 1, sub.blocks * 3, 0.5).value
        assert z_sub <= z_full

    def test_sandwich_constant_recorded(self, gdms26):
        sub = extract_subsystem_g_bounded(
            gdms26, certify_primitivity(gdms26.schedule, 1), 3, 0.5
        )
        k = gdms26.distortion
        m_const = max(
            partition(gdms26, j, j, 0.5).hi for j in range(1, gdms26.horizon + 1)
        )
        # Q is the least norm of the connectors the subsystem inserts
        q = min(compose_norm(word, gdms26).lo for word in sub.connectors)
        assert sub.sandwich_constant == pytest.approx(
            k**2 * m_const / q**0.5, rel=1e-12
        )

    @pytest.mark.parametrize(
        "name, horizon, ell",
        [("gdms2v", 26, 2), ("gdms2v", 26, 3), ("gdms2v", 26, 4),
         ("pinch2", None, 3), ("ab-half", 10, 3)],
    )
    def test_connectors_equal_all_pairs_reference(self, name, horizon, ell):
        system = bundled.BUNDLED[name](horizon=horizon)
        sched = system.schedule
        sub = extract_subsystem_g_bounded(system, certify_primitivity(sched, 1), ell, 0.5)
        # block n ends at time n*ell + (n-1); its connector leads to the next
        # block's first letter, the last one to the least kept label after it
        ends = [n * ell + n - 1 for n in range(1, sub.blocks + 1)]
        after = sched.letters(ends[-1] + 2)
        targets = [a for a, _ in sub.pairs[1:]] + [
            min(after[i].label for i in sched.kept_indices(ends[-1] + 2))
        ]
        reference = all_pairs_connectors(sched, 1, ends)
        assert len(sub.connectors) == sub.blocks
        for m, (_, b), target, word in zip(ends, sub.pairs, targets, sub.connectors):
            assert word == reference[m][(b, target)]


class TestEllipticModel:
    def test_threshold_values(self):
        rep2 = elliptic_lower_bound(2, t_grid=(), build=False)
        assert rep2.threshold == 4 / 3
        rep1 = elliptic_lower_bound(1, t_grid=(), build=False)
        assert rep1.threshold == 1.0

    def test_lattice_size(self):
        poles = gaussian_lattice_poles(3.0, 10.0)
        assert len(poles) >= 200

    @pytest.mark.parametrize("r_min, r_max", [(3.0, 10.0), (0.5, 2.5), (1.0, 250.0)])
    def test_lattice_equals_the_point_loop(self, r_min, r_max):
        cap = math.ceil(r_max) + 1
        ref = sorted(
            m for a in range(-cap, cap + 1) for b in range(-cap, cap + 1)
            if (a, b) != (0, 0) and r_min <= (m := math.hypot(a, b)) <= r_max
        )
        assert gaussian_lattice_poles(r_min, r_max).tolist() == ref

    def test_lattice_over_the_budget_refused(self):
        with pytest.raises(BudgetError, match="scans more points than the budget"):
            gaussian_lattice_poles(3.0, 1e308)

    def test_above_threshold_refused(self):
        rep = elliptic_lower_bound(2, t_grid=(1.5,), build=False)
        sel = rep.selections[0]
        assert not sel.feasible and "threshold" in sel.reason

    @pytest.mark.parametrize(
        "constants, field",
        [({"Q_const": 0.0}, "Q_const"), ({"comparability_K": 0.5}, "comparability_K"),
         ({"t_grid": (1.2, -1.0)}, "t_grid")],
        ids=["Q_const", "comparability_K", "t_grid"],
    )
    def test_constants_checked_before_any_work(self, monkeypatch, constants, field):
        def scanned(*args):
            raise AssertionError("lattice scanned before the constants were checked")

        monkeypatch.setattr("bowendim.systems.gaussian_lattice_poles", scanned)
        with pytest.raises(InputError, match=field):
            elliptic_lower_bound(2, **constants)

    def test_selection_and_growth(self):
        rep = elliptic_lower_bound(2, t_grid=(1.2,), horizon=6)
        sel = rep.selections[0]
        assert sel.feasible and sel.n_t is not None
        assert sel.partial_sum >= 2.0
        t, checks, ok = rep.growth_checks[0]
        assert ok
        n5 = checks[4]
        assert n5[0] == 5 and n5[1] >= 2**5

    def test_model_system_valid(self, elliptic):
        assert elliptic.dim == 2
        assert verify_osc(elliptic, 1).ok
        assert elliptic.contraction.eta_block < 0.2

    def test_disk_centers_pinned(self, elliptic):
        for row in elliptic.maps[1:]:
            assert [(m.ratio, m.offset) for m in row] == ELLIPTIC_Q2_DISKS

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.05, 0.3), min_size=1, max_size=20))
    def test_packing_equals_the_point_by_point_scan(self, radii):
        expect = _scan_pack(radii)
        if expect is None:
            with pytest.raises(BuildError, match="could not pack"):
                systems._pack_disks(radii)
        else:
            assert systems._pack_disks(radii) == expect


class TestBundledInvariants:
    @pytest.mark.parametrize("name", sorted(bundled.BUNDLED))
    def test_osc_and_contraction(self, name):
        system = bundled.bundled_system(name)
        contraction_eta(system)  # raises if nothing contracts
        budget = 20_000
        for level in (1, 2, 3, 4):
            if count_words(1, level, system.schedule) > budget:
                break
            if level > system.horizon:
                break
            assert verify_osc(system, level, budget=budget).ok


class TestImageValidation:
    """phi_e(X_t(e)) must lie in X_i(e): the first offending letter, in time
    then alphabet order, is named with its image and codomain bounds."""

    def _message(self, build):
        with pytest.raises(BuildError) as exc:
            build()
        return str(exc.value)

    def test_negative_ratio_escape(self):
        msg = self._message(lambda: build_similarity_system(
            [[0.3, -0.3]] * 3, [[0.5, 0.2]] * 3))
        assert msg == (
            "image of letter 'm1' at time 1 escapes its codomain:"
            " (-0.09999999999999998, 0.2) not within (0.0, 1.0)"
        )

    def test_offset_escape(self):
        msg = self._message(lambda: build_similarity_system(
            [[0.3, 0.3]] * 3, [[0.0, 0.8]] * 3))
        assert msg == (
            "image of letter 'm1' at time 1 escapes its codomain:"
            " (0.8, 1.1) not within (0.0, 1.0)"
        )

    def test_reciprocal_shift_between_spaces(self):
        # b maps X_u = [0, 1] onto [1/2, 1], which leaves X_w = [0.6, 1]
        edges = [
            EdgeSpec("a", "u", "w", MoebiusInverse(1.0)),
            EdgeSpec("b", "w", "u", MoebiusInverse(1.0)),
            EdgeSpec("c", "w", "w", MoebiusInverse(2.0)),
        ]
        spaces = {"u": interval(0.0, 1.0), "w": interval(0.6, 1.0)}
        msg = self._message(lambda: build_gdms([["u", "w"]] * 4, [edges] * 3, spaces))
        assert msg == (
            "image of letter 'b' at time 1 escapes its codomain:"
            " (0.5, 1.0) not within (0.6, 1.0)"
        )

    def test_multi_vertex_similarity_escape(self):
        # uw maps X_w = [2, 3] into X_u; ww maps X_w past its own right end
        edges = [
            EdgeSpec("uw", "u", "w", Similarity(0.2, (0.2,))),
            EdgeSpec("wu", "w", "u", Similarity(0.25, (2.0,))),
            EdgeSpec("ww", "w", "w", Similarity(0.25, (2.8,))),
        ]
        spaces = {"u": interval(0.0, 1.0), "w": interval(2.0, 3.0)}
        msg = self._message(lambda: build_gdms([["u", "w"]] * 4, [edges] * 3, spaces))
        assert msg == (
            "image of letter 'ww' at time 1 escapes its codomain:"
            " (3.3, 3.55) not within (2.0, 3.0)"
        )

    def test_cf_digits_up_to_2_52_pass(self):
        system = build_cf_system([[1.0, 2.0**52]] * 3)
        assert system.letter_brackets[1][1][1] == 1.0 / 2.0**104
