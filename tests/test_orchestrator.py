"""Outsourcing round simulation: validation, flags, payments, serialization."""

import random

import pytest

from helpers import naive_count, random_three_cnf
from satcloak.cnf import CnfInstance, emit_dimacs
from satcloak.gf2 import BitMatrix
from satcloak.isomorph import IsoSecret, iso_randomize
from satcloak.matrixrand import MatrixSecret
from satcloak.objective import MincostInstance, randomize_mincost
from satcloak.orchestrator import (
    DigestMismatchError,
    ProviderAnswer,
    ProviderBehavior,
    instance_digest,
    make_record,
    outsource,
    record_from_json,
    record_to_json,
    render_report,
    validate_solution,
)
from satcloak.solsetrand import GfSecret, gf_randomize

SAT_INSTANCE = CnfInstance(4, [[1, 2, 3], [-1, 2, -4], [2, 3, 4]])
UNSAT_INSTANCE = CnfInstance(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])

METHODS = ("iso", "matrix", "solution_set")


def test_single_honest_provider_solves():
    for method in METHODS:
        report = outsource(SAT_INSTANCE, method, k_providers=1, seed=3)
        assert report.verdict == "sat"
        assert SAT_INSTANCE.satisfies(report.solution)
        (p,) = report.providers
        assert p.valid is True and not p.flagged and p.payment == "paid-full"


def test_mixed_behaviors_flag_the_shirkers():
    for method in METHODS:
        report = outsource(
            SAT_INSTANCE,
            method,
            k_providers=3,
            behaviors=["honest", "lazy", "malicious-unsat"],
            seed=5,
        )
        assert report.verdict == "sat"
        by_behavior = {p.behavior: p for p in report.providers}
        assert not by_behavior["honest"].flagged
        assert by_behavior["honest"].payment == "paid-full"
        # The honest solution contradicts both non-answers.
        assert by_behavior["lazy"].flagged
        assert by_behavior["malicious-unsat"].flagged
        assert by_behavior["lazy"].payment == "paid-none"
        assert by_behavior["malicious-unsat"].payment == "paid-none"


def test_unsat_consensus():
    report = outsource(UNSAT_INSTANCE, "iso", k_providers=3, seed=7)
    assert report.verdict == "unsat-consensus"
    assert report.solution is None
    for p in report.providers:
        assert p.verdict == "unsatisfiable"
        assert not p.flagged and p.payment == "paid-full"


def test_malicious_unsat_blends_in_without_honest_cover():
    # On a truly unsatisfiable instance the liar is indistinguishable and
    # keeps the payment: detection needs at least one honest provider.
    report = outsource(
        UNSAT_INSTANCE, "iso", k_providers=2,
        behaviors=["malicious-unsat", "honest"], seed=11,
    )
    assert report.verdict == "unsat-consensus"
    assert not any(p.flagged for p in report.providers)


def test_all_lazy_is_inconclusive():
    report = outsource(SAT_INSTANCE, "matrix", behaviors=["lazy"] * 3, seed=13)
    assert report.verdict == "inconclusive"
    assert report.solution is None
    for p in report.providers:
        assert p.verdict == "fail"
        assert not p.flagged and p.payment == "paid-none"


def test_honest_providers_are_never_flagged():
    rng = random.Random(17)
    for trial in range(12):
        inst = random_three_cnf(rng, rng.randint(3, 6), rng.randint(2, 8))
        method = METHODS[trial % 3]
        behaviors = [rng.choice(["honest", "lazy", "malicious-unsat"]) for _ in range(3)]
        behaviors[rng.randrange(3)] = "honest"
        report = outsource(inst, method, 3, behaviors, seed=rng.getrandbits(16))
        for p in report.providers:
            if p.behavior == "honest":
                assert not p.flagged
                if report.verdict == "sat":
                    assert p.payment == "paid-full"


def test_corrupt_provider_caught_on_rigid_instance():
    # Forcing clauses pin the one model; any 3-bit flip of the artifact
    # vector breaks a clause, so the corruption is always caught.
    inst = CnfInstance(6, [[v, v, v] for v in range(1, 7)])
    assert naive_count(inst) == 1
    for seed in range(5):
        report = outsource(
            inst, "iso", 2, ["malicious-corrupt", "honest"], seed=seed
        )
        assert report.verdict == "sat"
        by_behavior = {p.behavior: p for p in report.providers}
        corrupt = by_behavior["malicious-corrupt"]
        assert corrupt.valid is False
        assert corrupt.flagged and corrupt.payment == "paid-none"
        assert not by_behavior["honest"].flagged


def test_artifacts_are_pairwise_distinct():
    report = outsource(SAT_INSTANCE, "iso", k_providers=3, seed=19)
    texts = [emit_dimacs(a) for a in report.artifacts]
    assert len(set(texts)) == 3
    # Per-provider secrets differ too (permutation and flip set jointly).
    secrets = [(tuple(r.secret.permutation), r.secret.flips) for r in report.records]
    assert len(set(secrets)) == 3


def test_outsource_argument_validation():
    with pytest.raises(ValueError, match="at least one provider"):
        outsource(SAT_INSTANCE, "iso", k_providers=0)
    with pytest.raises(ValueError, match="one behavior per provider"):
        outsource(SAT_INSTANCE, "iso", 2, behaviors=["honest"])
    with pytest.raises(ValueError, match="unknown behavior"):
        outsource(SAT_INSTANCE, "iso", 1, behaviors=["sneaky"])
    with pytest.raises(ValueError, match="unknown method"):
        outsource(SAT_INSTANCE, "quantum", 1)
    with pytest.raises(ValueError, match="unknown behavior"):
        ProviderBehavior("sneaky")


def test_validate_solution_paths():
    artifact, secret = iso_randomize(SAT_INSTANCE, 23)
    record = make_record("iso", secret, SAT_INSTANCE, 23)

    with pytest.raises(ValueError, match="not a solution"):
        validate_solution(
            ProviderAnswer(0, "unsatisfiable", None, 0.0), record, SAT_INSTANCE
        )
    with pytest.raises(DigestMismatchError):
        validate_solution(
            ProviderAnswer(0, "solution", [1, 1, 1, 1], 0.0),
            record,
            CnfInstance(4, [[1, 2, 3]]),
        )
    # Wrong length and a falsifying vector are provider data, not errors.
    ok, _ = validate_solution(
        ProviderAnswer(0, "solution", [1, 1], 0.0), record, SAT_INSTANCE
    )
    assert ok is False
    ok, _ = validate_solution(
        ProviderAnswer(0, "solution", None, 0.0), record, SAT_INSTANCE
    )
    assert ok is False

    bad_method = make_record("mincost", secret, SAT_INSTANCE, 23)
    with pytest.raises(ValueError, match="objective-function"):
        validate_solution(
            ProviderAnswer(0, "solution", [1, 1, 1, 1], 0.0),
            bad_method,
            SAT_INSTANCE,
        )


def test_digest_is_content_bound():
    d1 = instance_digest(CnfInstance(2, [[1, 2]]))
    d2 = instance_digest(CnfInstance(2, [[2, 1]]))
    assert d1 != d2
    assert d1 == instance_digest(CnfInstance(2, [[1, 2]]))


def test_render_report_mentions_flags():
    report = outsource(
        SAT_INSTANCE, "iso", 3, ["honest", "lazy", "malicious-unsat"], seed=29
    )
    text = render_report(report)
    assert text.startswith("verdict: sat\n")
    assert "solution:" in text
    assert "provider 0 [honest]" in text
    assert "FLAGGED" in text
    assert "flagged: 2 of 3" in text


# ---------------------------------------------------------------------------
# Secret and record serialization
# ---------------------------------------------------------------------------


def test_round_trip_iso_record():
    _, secret = iso_randomize(SAT_INSTANCE, 31)
    record = make_record("iso", secret, SAT_INSTANCE, 31)
    again = record_from_json(record_to_json(record))
    assert again == record


def test_round_trip_matrix_and_gf_secrets():
    from satcloak.cnf import to_three_cnf
    from satcloak.matrixrand import encode_linear, randomize_system

    three, _ = to_three_cnf(SAT_INSTANCE)
    _, msec = randomize_system(encode_linear(three), 37)
    record = make_record("matrix", msec, SAT_INSTANCE, 37)
    assert record_from_json(record_to_json(record)) == record

    _, gsec = gf_randomize(three, 41)
    record = make_record("solution_set", gsec, SAT_INSTANCE, 41)
    assert record_from_json(record_to_json(record)) == record


def test_round_trip_mincost_secret():
    inst = MincostInstance(SAT_INSTANCE, {1: 2, 2: 1, 3: 3, 4: 1})
    for method in ("matrix", "solution_set"):
        _, secret = randomize_mincost(inst, 43, method)
        record = make_record("mincost", secret, SAT_INSTANCE, 43)
        assert record_from_json(record_to_json(record)) == record


def test_serialization_rejects_unknown_types():
    _, gsec = gf_randomize(SAT_INSTANCE, 41)
    # A secret of another method's class, which would write a key that no
    # method reads, and a secret of no method's class.
    for method, secret in (("matrix", gsec), ("iso", object())):
        with pytest.raises(TypeError, match=f"method '{method}' cannot write"):
            record_to_json(make_record(method, secret, SAT_INSTANCE, 41))
