"""Acceptance suite: ten end-to-end properties of the toolkit.

Each criterion accumulates any violations, prints a single
``criterion N: PASS/FAIL`` line, and then asserts.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines on a passing run (pytest
swallows stdout of passing tests by default).
"""

import collections
import random
import time

import pytest

from helpers import (
    all_assignments,
    naive_solutions,
    projected_solutions,
    random_policy,
    random_three_cnf,
)
from satcloak.cnf import CnfInstance, evaluate_gates, to_three_cnf
from satcloak.disguise import DISGUISES
from satcloak.firewall import (
    DEFAULT_LAYOUT,
    FieldMappingSecret,
    FirewallPolicy,
    FirewallRule,
    HeaderLayout,
    equivalence_cnf,
    map_fields,
    policy_accepts,
)
from satcloak.gf2 import gf2_rank, random_full_rank
from satcloak.matrixrand import (
    check_linear,
    complete_solution,
    encode_linear,
    randomize_system,
)
from satcloak.objective import (
    Max3SatInstance,
    MincostInstance,
    compile_cost_circuit,
    derandomize_mincost,
    evaluate_circuit,
    max3sat_to_mincost,
    randomize_mincost,
)
from satcloak.oracles import (
    all_linear_solutions,
    brute_linear,
    brute_max3sat,
    brute_mincost,
    brute_sat,
    restricted_sat,
)
from satcloak.orchestrator import outsource
from satcloak.solsetrand import gf_derandomize, gf_forward, gf_randomize


def _finish(num: int, problems: list, detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert not problems, "; ".join(str(p) for p in problems[:5])


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one corpus: 200 random 3CNF instances with their
# matrix randomizations and brute verdicts on both sides.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def matrix_corpus():
    rng = random.Random(0xACCE01)
    items = []
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(3, 10)
        m = rng.randint(3, 14)
        cnf = random_three_cnf(rng, n, m)
        artifact, secret = randomize_system(
            encode_linear(cnf), rng.getrandbits(32)
        )
        sat = brute_sat(cnf).satisfiable
        feasible = brute_linear(artifact).feasible
        items.append((cnf, artifact, secret, sat, feasible))
    elapsed = time.perf_counter() - t0
    return items, elapsed


def test_criterion_1_matrix_satisfiability_equivalence(matrix_corpus):
    items, elapsed = matrix_corpus
    problems = []
    if len(items) < 200:
        problems.append(f"only {len(items)} instances")
    for i, (_, _, _, sat, feasible) in enumerate(items):
        if sat != feasible:
            problems.append(f"instance {i}: sat={sat} but feasible={feasible}")
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget is 120s")
    _finish(1, problems,
            f"{len(items)} instances sat-equivalent in {elapsed:.1f}s")


def test_criterion_2_matrix_solution_round_trip(matrix_corpus):
    items, _ = matrix_corpus
    problems = []
    feasible_instances = 0
    total = 0
    for i, (cnf, artifact, secret, _, feasible) in enumerate(items):
        if not feasible:
            continue
        feasible_instances += 1
        sols = all_linear_solutions(artifact)
        if len(sols) == 0:
            problems.append(f"instance {i}: feasible but no enumerated solutions")
            continue
        for row in sols:
            assignment, _ = DISGUISES["matrix"].check(row.tolist(), secret, cnf)
            if not cnf.satisfies(assignment):
                problems.append(f"instance {i}: round trip missed the original")
                break
        total += len(sols)
    _finish(2, problems,
            f"{total} solutions over {feasible_instances} feasible instances "
            f"all derandomize to original solutions")


# ---------------------------------------------------------------------------
# Criterion 3: GF(2) change of variables is a bijection on solution sets.
# ---------------------------------------------------------------------------

def test_criterion_3_gf2_projected_solution_bijection():
    rng = random.Random(0xACCE03)
    problems = []
    instances = 100
    total = 0
    for i in range(instances):
        n = rng.randint(3, 8)
        m = rng.randint(3, 10)
        cnf = random_three_cnf(rng, n, m)
        artifact, secret = gf_randomize(cnf, rng.getrandbits(32))
        proj = projected_solutions(artifact, n)
        models = {
            tuple(int(a[v]) for v in range(1, n + 1))
            for a in naive_solutions(cnf)
        }
        if len(proj) != len(models):
            problems.append(
                f"instance {i}: projected count {len(proj)} != {len(models)}"
            )
            continue
        recovered = set()
        for bits in proj:
            y = {v: bool(b) for v, b in zip(range(1, n + 1), bits)}
            x = gf_derandomize(y, secret)
            if not cnf.satisfies(x):
                problems.append(f"instance {i}: derandomized y not a model")
                break
            recovered.add(tuple(int(x[v]) for v in range(1, n + 1)))
        if recovered != models:
            problems.append(f"instance {i}: recovered set differs from models")
        total += len(proj)
    _finish(3, problems,
            f"{instances} instances, {total} projected solutions, "
            f"counts exact and all derandomize to models")


# ---------------------------------------------------------------------------
# Criterion 4: the two-clause worked example is coefficient-exact.
# ---------------------------------------------------------------------------

def test_criterion_4_worked_example_is_bit_exact():
    inst = CnfInstance(3, [[1, 2, 3], [-1, 2, -3]])
    sys_ = encode_linear(inst)
    problems = []
    if sys_.num_vars != 7 or sys_.num_constraints != 2:
        problems.append(f"shape {sys_.num_constraints}x{sys_.num_vars}")
    if sys_.coeffs != [[1, 1, 1, 1, 1, 0, 0], [-1, 1, -1, 0, 0, 1, 1]]:
        problems.append(f"coeffs {sys_.coeffs}")
    if sys_.rhs != [3, 1]:
        problems.append(f"rhs {sys_.rhs}")
    _finish(4, problems,
            "x1+x2+x3+x4+x5=3 and -x1+x2-x3+x6+x7=1, coefficients exact")


# ---------------------------------------------------------------------------
# Criterion 5: randomized Mincost instances keep the optimum and argmin.
#
# The randomized instance is far too large to enumerate, so optimality is
# certified structurally: the substitution matrix is full rank (solution
# sets coincide with the unrandomized encoding), every original assignment
# maps forward to an artifact solution of identical published cost, the
# circuit's output bits are forced given the inputs (no cheaper artifact
# solution can exist), and the optimal artifact solution derandomizes back
# to an original argmin.
# ---------------------------------------------------------------------------

def _forward_artifact_solution(method, artifact, secret, three, full3):
    if method == "matrix":
        vec = complete_solution(three, full3)
        ok = check_linear(artifact.system, vec)
        cost = sum(w * vec[v - 1] for v, w in artifact.costs.items())
        return vec, ok, cost
    full = gf_forward(full3, secret.inner, three)
    ok = artifact.cnf.satisfies(full)
    cost = sum(w for v, w in artifact.costs.items() if full[v])
    return full, ok, cost


def test_criterion_5_mincost_randomization_preserves_optimum():
    rng = random.Random(0xACCE05)
    problems = []
    instances = 50
    for i in range(instances):
        method = "matrix" if i % 2 == 0 else "solution_set"
        n = rng.randint(3, 6)
        m = rng.randint(2, 8)
        cnf = random_three_cnf(rng, n, m)
        while not brute_sat(cnf).satisfiable:
            cnf = random_three_cnf(rng, n, m)
        costs = {v: rng.randint(0, 7) for v in range(1, n + 1)}  # beta <= 3
        inst = MincostInstance(cnf, costs)

        orig = brute_mincost(inst)
        seed = rng.getrandbits(32)
        artifact, secret = randomize_mincost(inst, seed, method)
        circuit = secret.circuit
        combined, _ = compile_cost_circuit(inst)
        three, _ = to_three_cnf(combined)

        # Full-rank substitution: the artifact's solution set is exactly the
        # unrandomized encoding's.  A matrix key keeps no R, so it is drawn
        # again from the seed, as randomize_system draws it.
        if method == "matrix":
            r = random_full_rank(artifact.system.num_constraints,
                                 random.Random(seed))
        else:
            r = secret.inner.r_inv
        if gf2_rank(r) != r.rows:
            problems.append(f"instance {i}: substitution not full rank")
            continue

        art_min = None
        for x in all_assignments(n):
            full = evaluate_circuit(circuit, x)
            sat_x = inst.cnf.satisfies(x)
            if combined.satisfies(full) != sat_x:
                problems.append(f"instance {i}: circuit changes satisfiability")
                break
            if not sat_x:
                continue
            full3 = evaluate_gates(secret.three_map, full)
            _, ok, cost = _forward_artifact_solution(
                method, artifact, secret, three, full3
            )
            if not ok or cost != inst.cost_of(x):
                problems.append(
                    f"instance {i}: forward image broken for {x} "
                    f"(ok={ok}, cost={cost}, want {inst.cost_of(x)})"
                )
                break
            if art_min is None or cost < art_min:
                art_min = cost
        else:
            if art_min != orig.cost:
                problems.append(
                    f"instance {i}: artifact optimum {art_min} != {orig.cost}"
                )
                continue

            # The cost bits are forced by the inputs: every gate is defined
            # from inputs and earlier gates only, so flipping any single
            # gate against its defining clauses certifies (inductively) that
            # the gate extension -- output bits included -- is unique.
            x_opt = orig.assignment
            full = evaluate_circuit(circuit, x_opt)
            tmap = circuit.tmap
            for g in range(tmap.num_input_vars + 1, tmap.num_vars + 1):
                flipped = dict(full)
                flipped[g] = not flipped[g]
                if combined.satisfies(flipped):
                    problems.append(f"instance {i}: gate {g} not forced")
                    break

            full3 = evaluate_gates(secret.three_map, full)
            sol, _, _ = _forward_artifact_solution(
                method, artifact, secret, three, full3
            )
            x_back, cost_back = derandomize_mincost(sol, secret, inst)
            if cost_back != orig.cost or inst.cost_of(x_back) != orig.cost:
                problems.append(f"instance {i}: argmin did not round trip")
            elif not inst.cnf.satisfies(x_back):
                problems.append(f"instance {i}: recovered argmin not a model")
    _finish(5, problems,
            f"{instances} instances: optimum preserved, cost bits forced, "
            f"argmin derandomizes to an original argmin")


# ---------------------------------------------------------------------------
# Criterion 6: the MAX3SAT reduction computes the true maximum.
# ---------------------------------------------------------------------------

def test_criterion_6_max3sat_reduction_identity():
    rng = random.Random(0xACCE06)
    problems = []
    instances = 50
    for i in range(instances):
        n = rng.randint(3, 8)
        m = rng.randint(1, 10)
        cnf = random_three_cnf(rng, n, m)
        reduced, offset = max3sat_to_mincost(Max3SatInstance(cnf))
        if offset != m:
            problems.append(f"instance {i}: offset {offset} != {m}")
            continue
        mc = brute_mincost(reduced)
        best, _ = brute_max3sat(cnf)
        if not mc.satisfiable or m - mc.cost != best:
            problems.append(
                f"instance {i}: m - mincost = {m - mc.cost} != max {best}"
            )
    _finish(6, problems,
            f"{instances} instances: m - brute_mincost(reduction) == "
            f"brute_max3sat(original)")


# ---------------------------------------------------------------------------
# Criterion 7: the documented two-rule mapping example, value for value,
# plus the frequency-profile leakage property on ports.
# ---------------------------------------------------------------------------

def test_criterion_7_mapping_tables_and_frequency_profile():
    secret = FieldMappingSecret.from_swaps(
        octet_swaps=[
            [(10, 23), (152, 163), (100, 41)],
            [(11, 170), (14, 76), (15, 201)],
            [(12, 55), (15, 142), (10, 97)],
            [],
        ],
        port_swaps=[(100, 471), (99, 15717), (80, 2313)],
    )
    policy = FirewallPolicy(
        [
            FirewallRule((10, 11, 12, None), 100, (10, 14, 15, None), 80, "accept"),
            FirewallRule((152, 15, 10, None), 99, (152, 15, None, None), 80, "accept"),
        ],
        "deny",
    )
    mapped, _ = map_fields(policy, secret=secret)
    problems = []
    want = [
        FirewallRule((23, 170, 55, None), 471, (23, 76, 142, None), 2313, "accept"),
        FirewallRule((163, 201, 97, None), 15717, (163, 201, None, None), 2313, "accept"),
    ]
    for i, (got, expect) in enumerate(zip(mapped.rules, want)):
        if got != expect:
            problems.append(f"rule {i}: {got} != {expect}")
    if mapped.default_action != "deny":
        problems.append("default action changed")

    # Port frequencies are preserved by the relabeling (the leakage the
    # scheme accepts): multiset of multiplicities is invariant.
    rng = random.Random(0xACCE07)
    for trial in range(10):
        ports = [rng.choice([80, 443, 8080, 22]) for _ in range(12)]
        p = FirewallPolicy(
            [FirewallRule(None, v, None, None, "accept") for v in ports], "deny"
        )
        m, _ = map_fields(p, seed=rng.getrandbits(32))
        orig = collections.Counter(r.src_port for r in p.rules)
        new = collections.Counter(r.src_port for r in m.rules)
        if sorted(orig.values()) != sorted(new.values()):
            problems.append(f"trial {trial}: frequency profile changed")
    _finish(7, problems,
            "two-rule example maps value-exact; port frequency multisets "
            "invariant over 10 random policies")


# ---------------------------------------------------------------------------
# Criterion 8: equivalence CNF verdicts match exhaustive 256-header
# simulation at 8-bit layouts.
# ---------------------------------------------------------------------------

_EIGHT_BIT_LAYOUTS = [
    HeaderLayout(2, 2, 2, 2),
    HeaderLayout(3, 1, 3, 1),
    HeaderLayout(1, 3, 1, 3),
]


def _cnf_disagrees(cnf, layout) -> bool:
    k = layout.total_bits
    for h in range(1 << k):
        partial = {v: bool((h >> (k - v)) & 1) for v in range(1, k + 1)}
        if restricted_sat(cnf, partial):
            return True
    return False


def _sim_disagrees(p1, p2, layout) -> bool:
    return any(
        policy_accepts(p1, h, layout) != policy_accepts(p2, h, layout)
        for h in range(1 << layout.total_bits)
    )


def test_criterion_8_equivalence_verdict_matches_simulation():
    rng = random.Random(0xACCE08)
    problems = []
    pairs = 0

    for i in range(80):
        layout = _EIGHT_BIT_LAYOUTS[i % 3]
        p1 = random_policy(rng, layout, rng.randint(0, 4))
        p2 = random_policy(rng, layout, rng.randint(0, 4))
        cnf = equivalence_cnf(p1, p2, layout)
        if _cnf_disagrees(cnf, layout) != _sim_disagrees(p1, p2, layout):
            problems.append(f"random pair {i}: verdict mismatch")
        pairs += 1

    # Equal policies must come out equivalent (the encoding is UNSAT).
    for i in range(10):
        layout = _EIGHT_BIT_LAYOUTS[i % 3]
        p = random_policy(rng, layout, rng.randint(1, 4))
        if _cnf_disagrees(equivalence_cnf(p, p, layout), layout):
            problems.append(f"equal pair {i}: spurious disagreement")
        pairs += 1

    # Swapping rules with disjoint matches cannot change first-match
    # semantics, whatever their actions.
    for i in range(10):
        layout = _EIGHT_BIT_LAYOUTS[i % 3]
        top = (1 << layout.ip_chunks(layout.src_ip_bits)[0]) - 1
        r1 = FirewallRule((0,), None, None, None, rng.choice(["accept", "deny"]))
        r2 = FirewallRule((top,), None, None, None, rng.choice(["accept", "deny"]))
        default = rng.choice(["accept", "deny"])
        pa = FirewallPolicy([r1, r2], default)
        pb = FirewallPolicy([r2, r1], default)
        if _cnf_disagrees(equivalence_cnf(pa, pb, layout), layout):
            problems.append(f"swapped pair {i}: spurious disagreement")
        if _sim_disagrees(pa, pb, layout):
            problems.append(f"swapped pair {i}: simulation disagrees too")
        pairs += 1

    _finish(8, problems,
            f"{pairs} policy pairs: CNF verdict == 256-header simulation, "
            f"equal and swapped-disjoint pairs UNSAT")


# ---------------------------------------------------------------------------
# Criterion 9: dishonest providers are always flagged when an honest one
# is present; honest providers are never flagged.
# ---------------------------------------------------------------------------

def test_criterion_9_cheat_detection_rates():
    rng = random.Random(0xACCE09)
    methods = ["iso", "matrix", "solution_set"]
    problems = []
    runs = 100
    dishonest_total = 0
    for i in range(runs):
        n = rng.randint(3, 6)
        m = rng.randint(3, 8)
        cnf = random_three_cnf(rng, n, m)
        while not brute_sat(cnf).satisfiable:
            cnf = random_three_cnf(rng, n, m)
        k = rng.randint(2, 4)
        behaviors = ["honest"] + [
            rng.choice(["honest", "lazy", "malicious-unsat"])
            for _ in range(k - 1)
        ]
        if all(b == "honest" for b in behaviors):
            behaviors[-1] = rng.choice(["lazy", "malicious-unsat"])
        rng.shuffle(behaviors)
        report = outsource(
            cnf,
            method=methods[i % 3],
            k_providers=k,
            behaviors=behaviors,
            seed=rng.getrandbits(32),
        )
        for prov in report.providers:
            if prov.behavior == "honest":
                if prov.flagged:
                    problems.append(f"run {i}: honest provider flagged")
            else:
                dishonest_total += 1
                if not prov.flagged:
                    problems.append(
                        f"run {i}: {prov.behavior} provider not flagged"
                    )
        if report.verdict != "sat":
            problems.append(f"run {i}: verdict {report.verdict} on sat instance")
    _finish(9, problems,
            f"{runs} runs: {dishonest_total} dishonest providers all flagged, "
            f"honest providers never flagged")


# ---------------------------------------------------------------------------
# Criterion 10: structural size bounds.
# ---------------------------------------------------------------------------

def test_criterion_10_size_bounds():
    problems = []

    # Firewall equivalence CNF grows O(u^2 + k*u) in the rule count u at a
    # fixed layout (k header bits): calibrate the constant on u in {4, 8}
    # and check u in {16, 32} against it with 25% headroom.
    rng = random.Random(0xACCE10)
    k = DEFAULT_LAYOUT.total_bits
    sizes = {}
    for u in (4, 8, 16, 32):
        worst = 0
        for _ in range(3):
            p1 = random_policy(rng, DEFAULT_LAYOUT, u, wildcard_p=0.3)
            p2 = random_policy(rng, DEFAULT_LAYOUT, u, wildcard_p=0.3)
            eq = equivalence_cnf(p1, p2, DEFAULT_LAYOUT)
            worst = max(worst, eq.num_vars + eq.num_clauses)
        sizes[u] = worst
    c = max(sizes[u] / (u * u + k * u) for u in (4, 8))
    for u in (16, 32):
        bound = 1.25 * c * (u * u + k * u)
        if sizes[u] > bound:
            problems.append(f"u={u}: size {sizes[u]} exceeds bound {bound:.0f}")

    # Matrix randomization: exactly m constraints over n + 2m variables.
    rng2 = random.Random(0xACCE10 + 1)
    for i in range(50):
        n = rng2.randint(3, 10)
        m = rng2.randint(1, 14)
        cnf = random_three_cnf(rng2, n, m)
        artifact, _ = randomize_system(encode_linear(cnf), rng2.getrandbits(32))
        if artifact.num_constraints != m or artifact.num_vars != n + 2 * m:
            problems.append(
                f"instance {i}: shape {artifact.num_constraints}x"
                f"{artifact.num_vars}, want {m}x{n + 2 * m}"
            )
    _finish(10, problems,
            f"firewall CNF sizes {sizes} fit c*(u^2+ku) with c={c:.2f}; "
            f"matrix systems all exactly m x (n+2m)")
