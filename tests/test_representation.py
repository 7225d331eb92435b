import json
import re
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd import models, representation
from uqd.errors import ParseError, ValidationError
from uqd.linalg import density, matrix_exponential, random_pure_state, unvec, vec
from uqd.representation import (
    Representation,
    drift,
    effective_hamiltonian,
    from_document,
    jump_destination,
    jump_rate,
    jump_rates,
    liouvillian_matrix,
    matrix_from_json,
    matrix_to_json,
    parse,
    require_valid,
    serialize,
    to_document,
    vector_from_json,
    vector_to_json,
)
from conftest import ket
from helpers import qme_gauge_variant


def single_decay(gamma=1.0, hamiltonian=None):
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = np.sqrt(gamma)
    return Representation(hamiltonian=hamiltonian, jumps=[jump], label="decay")


def apply_generator_directly(rep, rho):
    """Direct evaluation of the master-equation right-hand side."""
    ham = rep.hamiltonian
    out = -1j * (ham @ rho - rho @ ham)
    for jump in rep.jumps:
        jj = jump.conj().T @ jump
        out += jump @ rho @ jump.conj().T - 0.5 * (jj @ rho + rho @ jj)
    return out


class TestValidate:
    """Structure is checked as a representation is built; only the zero-jump
    rule, which needs a tolerance, is left to `require_valid`."""

    def test_reference_model_is_valid(self, qutrit_a):
        require_valid(qutrit_a)

    def test_zero_jump_reported_with_index(self, qutrit_a):
        jumps = list(qutrit_a.jumps)
        jumps[1] = jumps[3] = np.zeros((3, 3), dtype=complex)
        rep = Representation(hamiltonian=None, jumps=jumps)
        message = "zero jump operator at index 2; zero jump operator at index 4"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            require_valid(rep)

    def test_non_hermitian_hamiltonian_reported(self):
        with pytest.raises(ValidationError, match="^Hamiltonian not Hermitian$"):
            Representation(hamiltonian=np.outer(ket(3, 0), ket(3, 1)), jumps=[np.eye(3)])

    def test_non_square_hamiltonian_reported(self):
        with pytest.raises(ValidationError, match=re.escape("Hamiltonian is not square: shape (3, 2)")):
            Representation(hamiltonian=np.ones((3, 2)), jumps=[np.eye(3)])

    def test_dimension_mismatch_reported(self):
        message = "jump operator 2 has shape (2, 2), expected (3, 3)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Representation(hamiltonian=np.eye(3), jumps=[np.eye(3), np.eye(2)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "ham, hermitian",
        [
            ([[0, 1e200], [0, 0]], False),
            ([[0, 1e308], [-1e308, 0]], False),
            ([[0, 1e300j], [1e300j, 0]], False),
            ([[0, 1e200], [1e200, 0]], True),
            ([[1e308, 1e308j], [-1e308j, -1e308]], True),
        ],
        ids=["upper", "antisymmetric", "anti-hermitian", "symmetric", "hermitian-max"],
    )
    def test_hermiticity_survives_overflow(self, ham, hermitian):
        # each Frobenius norm here overflows, so the test runs on H over its
        # largest part, without an overflow warning
        ham = np.array(ham, dtype=complex)
        if hermitian:
            Representation(hamiltonian=ham, jumps=[np.eye(2)])
        else:
            with pytest.raises(ValidationError, match="^Hamiltonian not Hermitian$"):
                Representation(hamiltonian=ham, jumps=[np.eye(2)])

    def test_omitted_hamiltonian_defaults_to_zero(self):
        rep = Representation(hamiltonian=None, jumps=[np.eye(2)])
        assert np.array_equal(rep.hamiltonian, np.zeros((2, 2)))


class TestLiouvillian:
    def test_pure_commutator_limit(self):
        # identity jumps contribute nothing, leaving -i[H, rho] exactly
        ham = np.diag([1.0, -1.0, 0.0]).astype(complex)
        rep = Representation(hamiltonian=ham, jumps=[0.05 * np.eye(3)])
        rho = np.outer(ket(3, 0), ket(3, 1)) + np.outer(ket(3, 1), ket(3, 0))
        expected = -1j * (ham @ rho - rho @ ham)
        result = unvec(liouvillian_matrix(rep) @ vec(rho))
        assert np.max(np.abs(result - expected)) < 1e-12

    def test_matches_direct_evaluation_on_random_states(self, qutrit_a, rng):
        gen = liouvillian_matrix(qutrit_a)
        for _ in range(20):
            psi = random_pure_state(3, rng)
            rho = density(psi)
            direct = apply_generator_directly(qutrit_a, rho)
            assert np.max(np.abs(unvec(gen @ vec(rho)) - direct)) < 1e-12

    def test_reset_recombination_preserves_generator(self, qutrit_a, qutrit_a_min):
        la = liouvillian_matrix(qutrit_a)
        lb = liouvillian_matrix(qutrit_a_min)
        assert np.max(np.abs(la - lb)) < 1e-12

    def test_trace_preservation(self, qutrit_a):
        gen = liouvillian_matrix(qutrit_a)
        assert np.max(np.abs(vec(np.eye(3)).conj() @ gen)) < 1e-10

    def test_stationary_state_has_unit_trace(self, qutrit_a):
        gen = liouvillian_matrix(qutrit_a)
        w, v = np.linalg.eig(gen)
        idx = int(np.argmin(np.abs(w)))
        assert abs(w[idx]) < 1e-10
        rho = unvec(v[:, idx])
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.trace(rho)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.max(np.abs(unvec(gen @ vec(rho)))) < 1e-10

    def test_invalid_representation_rejected(self):
        rep = Representation(hamiltonian=None, jumps=[np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValidationError, match="zero jump operator at index 2"):
            liouvillian_matrix(rep)

    def test_qme_gauge_freedom(self, rng):
        # operator shifts + isometric mixing with d = d' + 1 leave it invariant
        from helpers import random_minimal_representation

        for trial in range(5):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            other = qme_gauge_variant(rng, rep)
            la = liouvillian_matrix(rep)
            lb = liouvillian_matrix(other)
            assert np.max(np.abs(la - lb)) < 1e-10 * max(1.0, np.abs(la).max())


class TestEffectiveHamiltonian:
    def test_single_decay_channel(self):
        rep = single_decay(gamma=1.0)
        expected = -0.5j * np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(effective_hamiltonian(rep), expected, atol=1e-14)

    def test_hamiltonian_passes_through(self):
        rep = single_decay(gamma=1.0, hamiltonian=np.eye(2))
        expected = np.eye(2) - 0.5j * np.diag([0.0, 1.0])
        assert np.allclose(effective_hamiltonian(rep), expected, atol=1e-14)

    def test_equal_for_recombined_blocks(self, qutrit_a, qutrit_a_min):
        assert np.allclose(
            effective_hamiltonian(qutrit_a), effective_hamiltonian(qutrit_a_min), atol=1e-12
        )

    def test_antihermitian_part_negative_semidefinite(self, qutrit_a):
        h_eff = effective_hamiltonian(qutrit_a)
        anti = (h_eff - h_eff.conj().T) / 2j
        assert np.max(np.linalg.eigvalsh(anti)) < 1e-12


class TestRatesAndDestinations:
    def test_dephasing_rate_at_ground_state(self, qutrit_a):
        # |lam cos(vartheta)|^2 * ||J|0>||^2 = 4 * (1/4) * (1/2)
        assert jump_rate(qutrit_a, 3, ket(3, 0)) == pytest.approx(0.5)

    def test_decay_rate_at_excited_state(self, qutrit_a):
        assert jump_rate(qutrit_a, 0, ket(3, 1)) == pytest.approx(1.0)

    def test_kernel_state_has_zero_rate(self, qutrit_a):
        assert jump_rate(qutrit_a, 0, ket(3, 0)) == 0.0

    def test_index_out_of_range(self, qutrit_a):
        with pytest.raises(IndexError):
            jump_rate(qutrit_a, 5, ket(3, 0))

    def test_reset_destination(self, qutrit_a):
        dest = jump_destination(qutrit_a, 0, ket(3, 1))
        assert np.allclose(dest, density(ket(3, 0)), atol=1e-14)

    def test_zero_rate_gives_zero_destination(self, qutrit_a):
        assert np.array_equal(jump_destination(qutrit_a, 0, ket(3, 0)), np.zeros((3, 3)))

    def test_dephasing_destination(self, qutrit_a):
        psi = (ket(3, 0) + ket(3, 2)) / np.sqrt(2)
        target_vec = (ket(3, 0) - ket(3, 2)) / np.sqrt(2)
        assert np.allclose(jump_destination(qutrit_a, 3, psi), density(target_vec), atol=1e-12)

    def test_rate_sum_matches_effective_hamiltonian(self, qutrit_a, rng):
        h_eff = effective_hamiltonian(qutrit_a)
        anti_over_i = (h_eff - h_eff.conj().T) / 2j
        for _ in range(1000):
            psi = random_pure_state(3, rng)
            total = float(np.sum(jump_rates(qutrit_a, psi)))
            expected = -2.0 * float(np.real(np.vdot(psi, anti_over_i @ psi)))
            assert abs(total - expected) < 1e-10


class TestDrift:
    def test_dark_state_is_stationary(self):
        rep = single_decay()
        flow = drift(rep, density(ket(2, 0)))
        assert np.max(np.abs(flow)) < 1e-14

    def test_traceless_and_hermitian(self, qutrit_a, rng):
        for _ in range(50):
            psi = random_pure_state(3, rng)
            flow = drift(qutrit_a, density(psi))
            assert abs(np.trace(flow)) < 1e-12
            assert np.max(np.abs(flow - flow.conj().T)) < 1e-12

    def test_direct_formula(self, qutrit_a, rng):
        h_eff = effective_hamiltonian(qutrit_a)
        for _ in range(10):
            psi = density(random_pure_state(3, rng))
            raw = -1j * h_eff @ psi + 1j * psi @ h_eff.conj().T
            expected = raw - psi * np.trace(raw)
            assert np.max(np.abs(drift(qutrit_a, psi) - expected)) < 1e-13

    def test_excited_projector_flow(self, qutrit_a):
        # the off-diagonal weight couples |1> and |2>, so the flow is finite,
        # traceless and purely in the (1,2) sector
        flow = drift(qutrit_a, density(ket(3, 1)))
        assert abs(np.trace(flow)) < 1e-12
        expected_coupling = -2.0 * np.cos(np.pi / 6) * np.sin(np.pi / 6) / 4
        assert flow[1, 2] == pytest.approx(expected_coupling, abs=1e-12)
        assert np.max(np.abs(flow)) > 0.1

    def test_generator_equals_drift_plus_jumps(self, qutrit_a, rng):
        gen = liouvillian_matrix(qutrit_a)
        for _ in range(25):
            psi_vec = random_pure_state(3, rng)
            psi = density(psi_vec)
            jump_parts = np.zeros((3, 3), dtype=complex)
            for k in range(qutrit_a.n_jumps):
                amp = qutrit_a.jumps[k] @ psi_vec
                jump_parts += np.outer(amp, amp.conj()) - psi * float(np.vdot(amp, amp).real)
            decomposition = drift(qutrit_a, psi) + jump_parts
            assert np.max(np.abs(unvec(gen @ vec(psi)) - decomposition)) < 1e-12


class TestSerialization:
    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_stacked_vectors_write_as_each_vector(self, count):
        # a record's post-jump states are written as one (count, dim) matrix
        vectors = np.array([random_pure_state(3, seed) for seed in range(count)]).reshape(count, 3)
        assert matrix_to_json(vectors) == [vector_to_json(v) for v in vectors]

    def test_roundtrip_entrywise(self, qutrit_a):
        back = parse(serialize(qutrit_a))
        assert back.label == qutrit_a.label
        assert np.array_equal(back.hamiltonian, qutrit_a.hamiltonian)
        for a, b in zip(back.jumps, qutrit_a.jumps):
            assert np.array_equal(a, b)

    def test_complex_pair_convention(self):
        doc = {
            "label": "x",
            "dim": 1,
            "hamiltonian": [[[0.0, 0.0]]],
            "jumps": [[[[1.0, 0.5]]]],
        }
        rep = from_document(doc)
        assert rep.jumps[0][0, 0] == 1.0 + 0.5j

    def test_missing_hamiltonian_field(self):
        doc = {"label": "x", "dim": 2, "jumps": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}
        with pytest.raises(ParseError, match="missing field hamiltonian"):
            from_document(doc)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse("{not json")

    def test_bad_entry_reports_path(self):
        doc = {"label": "", "dim": 1, "hamiltonian": [[[0, 0]]], "jumps": [[["oops"]]]}
        with pytest.raises(ParseError, match=r"jumps\[0\]"):
            from_document(doc)

    def test_dim_mismatch_rejected(self):
        doc = {"label": "", "dim": 3, "hamiltonian": [[[0, 0]]], "jumps": [[[[1, 0]]]]}
        with pytest.raises(ParseError, match="hamiltonian"):
            from_document(doc)

    def test_pairs_equal_the_per_entry_form(self):
        import json

        def per_entry(mat):
            return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

        values = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
        mat = np.array(values, dtype=float).reshape(2, 4) + 1j * np.array(values[::-1]).reshape(2, 4)
        for m in (mat, mat.T, mat[:, ::2]):
            assert json.dumps(matrix_to_json(m)) == json.dumps(per_entry(m))
            assert json.dumps(vector_to_json(m)) == json.dumps(per_entry(m.reshape(1, -1))[0])
        assert json.dumps(vector_to_json(np.array([-0.0, 5e-324]))) == "[[-0.0, 0.0], [5e-324, 0.0]]"

    def test_document_shape(self, qutrit_a):
        doc = to_document(qutrit_a)
        assert doc["dim"] == 3
        assert len(doc["jumps"]) == 5
        assert doc["hamiltonian"][0][0] == [0.0, 0.0]


NUMBER_KINDS = {
    "int": st.integers(min_value=-(2**66), max_value=2**66),
    "float": st.one_of(
        st.floats(),
        st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, float("nan")]),
    ),
    "bool": st.booleans(),
}
NUMBER_KINDS["mixed"] = st.one_of(*NUMBER_KINDS.values(), st.just(10**400))
ODD_ENTRIES = st.one_of(st.text(max_size=2), st.none(), st.just([]), st.lists(st.integers(), max_size=3))


@st.composite
def nests(draw, depth: int):
    """Nests of ``depth`` list levels of [re, im] pairs, mostly well formed,
    with at most one fault: an odd entry, a ragged row, a pair of the wrong
    length, or one level too many or too few."""
    numbers = NUMBER_KINDS[draw(st.sampled_from(sorted(NUMBER_KINDS)))]
    shape = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))

    def build(level):
        if level == depth:
            return [draw(numbers), draw(numbers)]
        return [build(level + 1) for _ in range(shape[level])]

    nest = build(0)
    fault = draw(st.sampled_from([None, None, "entry", "ragged", "pair", "deeper", "shallower"]))
    rows = nest if depth == 2 else [nest]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if fault == "entry":
        row[draw(st.integers(0, len(row) - 1))][draw(st.integers(0, 1))] = draw(ODD_ENTRIES)
    elif fault == "ragged" and len(row) > 1:
        row.pop()
    elif fault == "ragged":
        row.append(row[0])
    elif fault == "pair":
        row[0] = row[0][:1] if draw(st.booleans()) else [*row[0], draw(numbers)]
    elif fault == "deeper":
        nest = [nest]
    elif fault == "shallower":
        nest = nest[0]
    return nest


def decode(fn, obj):
    """Array, or ParseError message, of ``fn`` on ``obj``."""
    try:
        return fn(obj, "m")
    except ParseError as exc:
        return str(exc)


class TestOnePassDecode:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_per_entry_path(self, data):
        for fn, depth in ((matrix_from_json, 2), (vector_from_json, 1)):
            obj = data.draw(nests(depth))
            fast = decode(fn, obj)
            with mock.patch.object(representation, "_numeric_array", lambda *args: None):
                slow = decode(fn, obj)
            if isinstance(slow, str):
                assert fast == slow
            else:
                assert isinstance(fast, np.ndarray)
                assert (fast.shape, fast.dtype) == (slow.shape, slow.dtype)
                assert fast.tobytes() == slow.tobytes()

    def test_oversized_integer_names_its_entry(self):
        for fn in (matrix_from_json, vector_from_json):
            obj = [[0, 1], [10**400, 0]]
            obj = [obj] if fn is matrix_from_json else obj
            where = "m[0][1]" if fn is matrix_from_json else "m[1]"
            with pytest.raises(ParseError, match=re.escape(f"{where}: number too large for a float")):
                fn(obj, "m")


# Number literals as a document holds them: finite doubles by ``repr`` (with
# +-0, subnormals and halfway cases), integers up to +-2^80, and decimal
# strings of up to 55 digits; all small enough that no norm overflows.
LITERALS = st.one_of(
    st.floats(-1e150, 1e150).map(repr),
    st.sampled_from([
        "-0.0", "5e-324", "-2.5e-310", "2.4703282292062328e-324", "9007199254740993.0",
        "1.00000000000000011102230246251565404236316680908203125", "-9007199254740993",
    ]),
    st.integers(-(2**80), 2**80).map(str),
    st.builds(
        "{}.{}e{}".format,
        st.integers(-(10**28) + 1, 10**28 - 1),
        st.integers(0, 10**27 - 1),
        st.integers(-99, 99),
    ),
)


def negated(literal: str) -> str:
    return literal[1:] if literal.startswith("-") else "-" + literal


@st.composite
def document_texts(draw):
    """A representation document written literal by literal, with a
    Hermitian Hamiltonian: mirrored entries carry negated imaginary parts."""
    dim = draw(st.integers(1, 3))
    pair = lambda re_, im: f"[{re_}, {im}]"
    ham = [[pair(draw(LITERALS), 0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            re_, im = draw(LITERALS), draw(LITERALS)
            ham[i][j], ham[j][i] = pair(re_, im), pair(re_, negated(im))
    jumps = [
        [[pair(draw(LITERALS), draw(LITERALS)) for _ in range(dim)] for _ in range(dim)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    matrix = lambda rows: "[%s]" % ", ".join("[%s]" % ", ".join(row) for row in rows)
    return '{"dim": %d, "hamiltonian": %s, "jumps": [%s]}' % (
        dim, matrix(ham), ", ".join(map(matrix, jumps))
    )


def parsed(text):
    """Label and operator bytes, or the ParseError message, of ``parse(text)``."""
    try:
        rep = parse(text)
    except ParseError as exc:
        return str(exc)
    return rep.label, rep.hamiltonian.tobytes(), [jump.tobytes() for jump in rep.jumps]


def parsed_by_json(text):
    with mock.patch.object(orjson, "loads", json.loads):
        return parsed(text)


def with_jump(literal: str, label: str = "") -> str:
    return '{"label": "%s", "dim": 1, "hamiltonian": [[[0, 0]]], "jumps": [[[[%s, 0]]]]}' % (
        label, literal
    )


class TestDecoder:
    """Documents decode with orjson, and with json only where orjson refuses
    them; either way they give the same operators, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(text=document_texts())
    def test_orjson_and_json_give_the_same_bits(self, text):
        shipped = parsed(text)
        assert not isinstance(shipped, str), shipped
        assert shipped == parsed_by_json(text)

    @pytest.mark.parametrize(
        "text, outcome",
        [
            (with_jump("NaN"), "jumps[0]: entries must be finite"),
            (with_jump("-Infinity"), "jumps[0]: entries must be finite"),
            (with_jump("1e400"), "jumps[0]: entries must be finite"),
            (with_jump("1" + "0" * 400), "jumps[0][0][0]: number too large for a float"),
            (with_jump("1" * 5000), "invalid JSON: Exceeds the limit (4300 digits)"),
            (with_jump("1", label="\\ud800"), "\ud800"),
            ("{not json", "invalid JSON at line 1 column 2"),
        ],
        ids=["nan", "infinity", "float-overflow", "integer-overflow", "digit-limit", "surrogate",
             "malformed"],
    )
    def test_text_orjson_refuses_takes_the_json_path(self, text, outcome):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
        shipped = parsed(text)
        assert shipped == parsed_by_json(text)
        if isinstance(shipped, str):
            assert shipped.startswith(outcome)
        else:
            assert shipped[0] == outcome
