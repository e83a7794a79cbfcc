"""``emit_opb`` against a term-by-term reference copy: byte-equal text, and
``parse_opb`` reading it back to the same system."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satcloak.matrixrand import LinearSystem, emit_opb, parse_opb


def reference_emit(sys):
    lines = [f"* #variable= {sys.num_vars} #constraint= {sys.num_constraints}"]
    for row, b in zip(sys.coeffs, sys.rhs):
        terms = [
            f"{c:+d} x{j + 1}" for j, c in enumerate(row) if c != 0
        ]
        lines.append(" ".join(terms) + f" = {b} ;")
    return "\n".join(lines) + "\n"


_BIG = 10**6
_TOP = 2**63 - 1  # the largest int64

# Mostly zeros, as in the clause encoding, with small and extreme values.
_coefficients = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.integers(-_BIG, _BIG),
    st.sampled_from([-_BIG, _BIG]),
)


@st.composite
def linear_systems(draw, nonzero_rows=False):
    num_vars = draw(st.integers(1, 12))
    num_rows = draw(st.integers(0, 8))
    coeffs = []
    for _ in range(num_rows):
        row = draw(st.lists(_coefficients, min_size=num_vars, max_size=num_vars))
        if nonzero_rows and not any(row):
            row[draw(st.integers(0, num_vars - 1))] = draw(
                st.integers(1, _BIG) | st.integers(-_BIG, -1)
            )
        coeffs.append(row)
    rhs = draw(
        st.lists(st.integers(-_BIG, _BIG), min_size=num_rows, max_size=num_rows)
    )
    return LinearSystem(num_vars, coeffs, rhs)


@given(linear_systems())
@example(LinearSystem(3, [], []))
@example(LinearSystem(1, [[0], [0]], [0, -4]))
@example(LinearSystem(1, [[-_BIG], [_BIG]], [-_BIG, _BIG]))
@example(LinearSystem(4, [[0, 0, 0, 0], [1, -1, 0, 2]], [-1, 2]))
@example(LinearSystem(3, [[0, 0, 0], [0, 5, 0], [0, 0, 0], [0, 0, 0]], [7, 1, -7, 0]))
@example(LinearSystem(2, [[0, 0], [0, 0], [0, 0]], [0, 0, 0]))
@example(LinearSystem(3, [[_TOP, 0, -_TOP], [-_TOP - 1, _TOP, 1]], [-_TOP, _TOP]))
@settings(max_examples=300, deadline=None)
def test_emit_opb_matches_reference(sys_):
    assert emit_opb(sys_) == reference_emit(sys_)


@given(linear_systems(nonzero_rows=True))
@example(LinearSystem(1, [[-_BIG]], [_BIG]))
@example(LinearSystem(3, [[_TOP, 0, -_TOP], [0, -_TOP - 1, 0]], [-_TOP - 1, _TOP]))
@settings(max_examples=200, deadline=None)
def test_opb_round_trip_on_generated_systems(sys_):
    assert parse_opb(emit_opb(sys_)) == sys_
