import itertools

import pytest

from curvegroups.constructions import (
    AuditReport,
    General,
    Mixed,
    Special,
    Uludag,
    VERDICT_DISCREPANCY,
    VERDICT_PASS,
    added_singularities,
    apply,
    audit_self_intersection,
    degree_after,
    format_spec,
    kernel_order,
    parse_spec,
    special_blowdown_type,
)
from curvegroups.curves import h1_from_degrees, seed_generic_lines, seed_pencil, seed_smooth
from curvegroups.extensions import Cyclic, Free, FreeAbelian, Tower, direct_sum, order_of
from curvegroups.singularities import SingularityType, blowdown_type, multiset, parse_type


def small_general_tuples(max_k=3, max_n=4):
    for k in range(1, max_k + 1):
        yield from (General(t) for t in itertools.product(range(1, max_n + 1), repeat=k))


def balanced_mixed_specs(max_k=2, max_n=3):
    for k in range(1, max_k + 1):
        for ns in itertools.product(range(1, max_n + 1), repeat=k):
            total = sum(ns)
            for l in range(1, max_k + 1):
                for ms in itertools.product(range(1, max_n + 1), repeat=l):
                    if sum(ms) == total:
                        yield Mixed(ns, ms)


# ---------------------------------------------------------------------------
# spec validation and text form


def test_kernel_orders():
    assert kernel_order(Uludag(3)) == 4
    assert kernel_order(General((1, 2, 2))) == 6
    assert kernel_order(Mixed((2, 1), (1, 1, 1))) == 4
    assert kernel_order(Special(2)) == 3


def test_mixed_requires_balanced_counts():
    with pytest.raises(ValueError):
        Mixed((2,), (1,))


def test_counts_must_be_positive():
    with pytest.raises(ValueError):
        Uludag(0)
    with pytest.raises(ValueError):
        General((1, 0))
    with pytest.raises(ValueError):
        Special(-1)
    with pytest.raises(ValueError):
        General(())


def test_spec_text_round_trip():
    for spec in (Uludag(3), General((1, 2, 2)), Mixed((2, 1), (1, 1, 1)), Special(2)):
        assert parse_spec(format_spec(spec)) == spec


def test_parse_spec_errors_name_the_offender():
    with pytest.raises(ValueError, match="frob"):
        parse_spec("frob(1)")
    with pytest.raises(ValueError, match="'x'"):
        parse_spec("general(1,x)")
    with pytest.raises(ValueError, match=";"):
        parse_spec("mixed(2,1)")
    with pytest.raises(ValueError, match="raise counts = sum of lower"):
        parse_spec("mixed(2;1)")


# ---------------------------------------------------------------------------
# degree formula


def test_degree_after_examples():
    assert degree_after(2, Uludag(1)) == 4
    assert degree_after(3, General((1, 2))) == 12
    assert degree_after(5, Special(1)) == 10


def test_degree_after_is_degree_times_kernel_order():
    specs = list(small_general_tuples(max_k=3, max_n=4))
    specs += [Uludag(n) for n in range(1, 5)]
    specs += [Special(n) for n in range(1, 5)]
    specs += list(balanced_mixed_specs())
    for d in range(1, 6):
        for spec in specs:
            assert degree_after(d, spec) == d * kernel_order(spec)


def test_degree_after_rejects_degree_zero():
    with pytest.raises(ValueError):
        degree_after(0, Uludag(1))


# ---------------------------------------------------------------------------
# added singularities


def test_added_singularities_conic_single_fiber():
    assert added_singularities(2, Uludag(1)) == multiset(
        [SingularityType((2,)), SingularityType((2, 2))]
    )


def test_added_singularities_general():
    expected = multiset(
        [
            SingularityType((2,)),
            SingularityType((2, 2)),
            SingularityType((6, 2, 2, 2)),
        ]
    )
    assert added_singularities(2, General((1, 2))) == expected


def test_added_singularities_mixed_nested():
    expected = multiset(
        [
            SingularityType((2, 2)),
            blowdown_type(4, [SingularityType((2,)), SingularityType((2,))]),
        ]
    )
    assert added_singularities(2, Mixed((2,), (1, 1))) == expected


def test_added_singularities_uludag_equals_general_singleton():
    for d in range(1, 5):
        for n in range(1, 5):
            assert added_singularities(d, Uludag(n)) == added_singularities(d, General((n,)))


def test_added_singularities_mixed_with_one_lower_fiber_matches_general():
    for d in (1, 2, 3):
        for ns in ((2,), (1, 2)):
            total = sum(ns)
            assert added_singularities(d, Mixed(ns, (total,))) == added_singularities(
                d, General(ns)
            )


def test_added_singularities_special_verbatim_head():
    assert added_singularities(3, Special(2)) == multiset(
        [parse_type("[12,3,3,3,3]")]
    )
    assert special_blowdown_type(3, 2, recorded_head=False) == parse_type("[6,3,3,3,3]")


def test_added_singularities_degree_one_bookkeeping():
    assert added_singularities(1, General((1,))) == multiset(
        [SingularityType((1,)), SingularityType((1, 1))]
    )


# ---------------------------------------------------------------------------
# self-intersection audit


def test_audit_worked_example():
    # d = 2, counts (1,2): 64 - (4 + 8 + 36 + 12) = 4 = d^2
    report = audit_self_intersection(2, General((1, 2)))
    assert report.expected == 4
    assert report.computed == 4
    assert report.residual == 0
    assert report.verdict == VERDICT_PASS


def test_audit_passes_on_main_constructions():
    specs = list(small_general_tuples(max_k=3, max_n=3))
    specs += [Uludag(n) for n in range(1, 4)]
    specs += list(balanced_mixed_specs())
    for d in range(1, 5):
        for spec in specs:
            assert audit_self_intersection(d, spec).verdict == VERDICT_PASS


def test_audit_special_case_discrepancy():
    report = audit_self_intersection(1, Special(1))
    assert report.computed == -2
    assert report.residual == -3
    assert report.verdict == VERDICT_DISCREPANCY
    assert report.variant_residual == 0


def test_audit_special_residual_formula():
    for d in range(1, 4):
        for n in range(1, 5):
            report = audit_self_intersection(d, Special(n))
            assert report.residual == -3 * n * n * d * d
            assert report.variant_residual == 0


def test_audit_report_verdict_consistency():
    with pytest.raises(ValueError):
        AuditReport(expected=1, computed=1, residual=0, verdict=VERDICT_DISCREPANCY)


# ---------------------------------------------------------------------------
# applying constructions to curve data


def test_apply_smooth_conic_single_fiber():
    c = apply(seed_smooth(2), Uludag(1))
    assert c.degree == 4
    assert c.singularities == multiset([SingularityType((2,)), SingularityType((2, 2))])
    assert c.group == Cyclic(4)
    assert c.props.cyclic is True


def test_apply_preserves_components_and_scales_degrees():
    seed = seed_generic_lines(3)
    out = apply(seed, General((2, 1)))
    assert len(out.component_degrees) == 3
    assert out.component_degrees == (4, 4, 4)
    assert out.irreducible == seed.irreducible


def test_apply_pencil_keeps_old_singularities():
    out = apply(seed_pencil(3), Uludag(2))
    expected = multiset(
        [
            SingularityType((3,)),          # the original m-fold point
            SingularityType((3, 3)),        # tacnode of order n-1 = 1
            SingularityType((6, 3, 3)),     # blown-down tacnode
        ]
    )
    assert out.singularities == expected
    assert out.group == direct_sum(Free(2), Cyclic(3))


def test_apply_generic_lines_group():
    out = apply(seed_generic_lines(4), General((1, 1)))
    assert out.group == direct_sum(FreeAbelian(3), Cyclic(3))
    assert out.props.abelian is True
    assert out.props.cyclic is False


def test_apply_h1_consistency():
    for seed in (seed_smooth(3), seed_pencil(3), seed_generic_lines(4)):
        before = h1_from_degrees(seed.component_degrees)
        for spec in (Uludag(1), General((2, 1)), Special(2)):
            after = h1_from_degrees(apply(seed, spec).component_degrees)
            assert after.free_rank == before.free_rank
            n = kernel_order(spec)
            before_gcd = before.torsion[0] if before.torsion else 1
            after_gcd = after.torsion[0] if after.torsion else 1
            assert after_gcd == before_gcd * n


def test_apply_group_order_multiplies():
    c = seed_smooth(2)
    for spec in (Uludag(1), General((1, 1)), Special(3)):
        out = apply(c, spec)
        assert order_of(out.group) == order_of(c.group) * kernel_order(spec)


def test_single_fiber_spec_equals_singleton_general():
    a = apply(seed_smooth(3), Uludag(2))
    b = apply(seed_smooth(3), General((2,)))
    assert a.component_degrees == b.component_degrees
    assert a.singularities == b.singularities
    assert a.group == b.group
    assert a.props == b.props


def test_general_pair_is_not_two_single_fiber_passes():
    # kernel orders 3 vs 4, and different singularity multisets
    one_pass = apply(seed_smooth(2), General((1, 1)))
    two_passes = apply(apply(seed_smooth(2), Uludag(1)), Uludag(1))
    assert kernel_order(General((1, 1))) == 3
    assert kernel_order(Uludag(1)) * kernel_order(Uludag(1)) == 4
    assert one_pass.degree == 6
    assert two_passes.degree == 8
    assert one_pass.singularities != two_passes.singularities
    assert one_pass.group == Cyclic(6)
    assert two_passes.group == Cyclic(8)


def test_apply_unresolved_group_becomes_tower():
    seed = seed_pencil(2)  # group Z, reducible
    out = apply(seed, Uludag(1))
    # rule for free groups still applies: Z (+) Z/2
    assert out.group == direct_sum(Free(1), Cyclic(2))
    # a second, non-coprime pass cannot be recognized and stacks a tower
    out2 = apply(out, Uludag(1))
    assert out2.group == Tower(direct_sum(Free(1), Cyclic(2)), (2,))


def test_apply_records_audit_in_log():
    out = apply(seed_smooth(1), Special(1))
    assert any("discrepancy" in entry.detail for entry in out.log)
    out2 = apply(seed_smooth(2), Uludag(1))
    assert any("audit=pass" in entry.detail for entry in out2.log)
    # every schedule kind: the logged audit is the standalone audit, and the
    # stored singularities are the audited multiset
    specs = [
        Uludag(1),
        Uludag(3),
        General((2,)),
        General((1, 3, 2)),
        Mixed((2, 1), (3,)),
        Mixed((1, 2), (1, 1, 1)),
        Special(1),
        Special(3),
    ]
    for d in range(1, 7):
        seed = seed_smooth(d)
        for spec in specs:
            out = apply(seed, spec)
            report = audit_self_intersection(d, spec)
            verdict = f" audit={report.verdict}"
            if report.variant_residual is None:
                assert out.log[-1].detail.endswith(verdict)
            else:
                assert out.log[-1].detail.endswith(
                    f"{verdict} residual={report.residual} variant_residual={report.variant_residual}"
                )
            assert out.singularities == seed.singularities + added_singularities(d, spec)
