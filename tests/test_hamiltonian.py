import json
import pickle
import tracemalloc
import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from nmqrc.errors import ConfigError
from nmqrc.hamiltonian import (
    CouplingSet,
    HamiltonianRealization,
    ReservoirParams,
    build_hamiltonian,
    export_couplings,
    import_couplings,
    sample_couplings,
)
from nmqrc.reservoir import ReservoirConfig, run_trajectory

from oracle import PAULI, embed_pauli

Z = PAULI["Z"]


def params(n_sys=3, n_env=2, alpha=1.0, beta=1.0, h_sys=0.5, h_env=1.0, seed=0, j0=1.0):
    return ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=beta,
                           h_sys=h_sys, h_env=h_env, seed=seed, j0=j0)


class TestParams:
    def test_register_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            params(n_sys=7, n_env=6)

    def test_needs_system_qubit(self):
        with pytest.raises(ConfigError, match="n_sys"):
            params(n_sys=0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigError, match="alpha"):
            params(alpha=-1.0)
        with pytest.raises(ConfigError, match="j0"):
            params(j0=0.0)

    @pytest.mark.parametrize("field, value", [("n_sys", 2.5), ("n_env", 1.0), ("seed", True), ("seed", 0.0)])
    def test_non_integer_counts_rejected(self, field, value):
        # n_sys = 2.5 used to fail in build_hamiltonian, and seed = True built seed 1
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            params(**{field: value})

    @pytest.mark.parametrize("field, value", [("h_sys", True), ("h_env", False), ("alpha", "1"), ("beta", None),
                                              ("j0", 1j), ("h_sys", np.bool_(True))])
    def test_non_real_fields_rejected(self, field, value):
        # h_sys = True used to build h_sys = 1, and alpha = "1" escaped as
        # numpy's TypeError
        with pytest.raises(ConfigError, match=f"^{field} must be a real number"):
            params(**{field: value})

    @pytest.mark.parametrize("field", ["j0", "alpha", "beta", "h_sys", "h_env"])
    def test_non_finite_fields_rejected(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            params(**{field: np.nan})

    def test_numpy_reals_stored_as_floats(self):
        p = params(alpha=np.float32(0.5), beta=np.int64(2), h_sys=1, h_env=np.float64(0.25), j0=np.int32(1))
        assert (p.alpha, p.beta, p.h_sys, p.h_env, p.j0) == (0.5, 2.0, 1.0, 0.25, 1.0)
        assert all(type(x) is float for x in (p.alpha, p.beta, p.h_sys, p.h_env, p.j0))

    def test_negative_seed_rejected(self):
        # it used to fail inside numpy's default_rng
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            params(seed=-1)

    def test_numpy_integers_stored_as_ints(self):
        p = params(n_sys=np.int64(2), n_env=np.int32(1), seed=np.uint8(4))
        assert (p.n_sys, p.n_env, p.seed) == (2, 1, 4)
        assert all(type(x) is int for x in (p.n_sys, p.n_env, p.seed))
        assert p == params(n_sys=2, n_env=1, seed=4)


class TestEmbedPauli:
    """The oracle's Pauli embedding, which the test Hamiltonians are built from."""

    def test_single_qubit(self):
        assert np.array_equal(embed_pauli("Z", 0, 1), Z)

    def test_leading_position(self):
        assert np.array_equal(embed_pauli("Z", 0, 2), np.kron(Z, np.eye(2)))

    def test_x_on_second_qubit_flips_low_bit(self):
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        out = embed_pauli("X", 1, 2) @ ket00
        want = np.zeros(4)
        want[1] = 1.0  # |01>
        assert np.allclose(out, want)


class TestSampleCouplings:
    def test_counts(self):
        c = sample_couplings(params(n_sys=4, n_env=3))
        assert c.j_sys.shape == (comb(4, 2),)
        assert c.j_env.shape == (comb(3, 2),)
        assert c.g.shape == (4, 3)

    def test_alpha_zero_kills_env(self):
        c = sample_couplings(params(alpha=0.0))
        assert np.all(c.j_env == 0.0)

    def test_beta_zero_kills_interaction(self):
        c = sample_couplings(params(beta=0.0))
        assert np.all(c.g == 0.0)

    def test_markov_preset_bounds(self):
        c = sample_couplings(params(n_sys=4, n_env=3, alpha=10.0, beta=0.01, seed=5))
        assert np.max(np.abs(c.g)) <= 0.01
        assert np.max(np.abs(c.j_env)) <= 10.0

    def test_determinism(self):
        p = params(seed=123)
        c1, c2 = sample_couplings(p), sample_couplings(p)
        assert np.array_equal(c1.j_sys, c2.j_sys)
        assert np.array_equal(c1.j_env, c2.j_env)
        assert np.array_equal(c1.g, c2.g)

    def test_range_property_over_seeds(self):
        for seed in range(1000):
            p = params(alpha=2.0, beta=0.5, seed=seed)
            c = sample_couplings(p)
            assert np.all(np.abs(c.j_sys) <= p.j0)
            assert np.all(np.abs(c.j_env) <= p.alpha * p.j0)
            assert np.all(np.abs(c.g) <= p.beta * p.j0)

    def test_system_draws_independent_of_env_size(self):
        # j_sys is drawn first, so shrinking the environment must not move it
        full = sample_couplings(params(n_sys=3, n_env=2, seed=9))
        bare = sample_couplings(params(n_sys=3, n_env=0, seed=9))
        assert np.array_equal(full.j_sys, bare.j_sys)


class TestBuildHamiltonian:
    def test_single_site_field(self):
        real = build_hamiltonian(params(n_sys=1, n_env=0, h_sys=0.7))
        assert np.allclose(real.h_full, 0.7 * Z)

    def test_two_site_xx_spectrum(self):
        real = build_hamiltonian(params(n_sys=2, n_env=0, h_sys=0.0, seed=3))
        j01 = real.couplings.j_sys[0]
        w = np.linalg.eigvalsh(real.h_full)
        want = np.sort([abs(j01), abs(j01), -abs(j01), -abs(j01)])
        assert np.allclose(np.sort(w), want, atol=1e-12)

    def test_hermiticity_over_realizations(self):
        for seed in range(20):
            real = build_hamiltonian(params(n_sys=3, n_env=2, alpha=3.0, beta=2.0, seed=seed))
            assert np.max(np.abs(real.h_full - real.h_full.conj().T)) < 1e-12

    def test_block_additivity_when_decoupled(self):
        p = params(n_sys=3, n_env=2, beta=0.0, seed=4)
        real = build_hamiltonian(p)
        # assemble the two blocks independently from the same couplings
        h_sys = np.zeros((8, 8), dtype=complex)
        for idx, (i, j) in enumerate(combinations(range(3), 2)):
            h_sys += real.couplings.j_sys[idx] * (embed_pauli("X", i, 3) @ embed_pauli("X", j, 3))
        for i in range(3):
            h_sys += p.h_sys * embed_pauli("Z", i, 3)
        h_env = np.zeros((4, 4), dtype=complex)
        h_env += real.couplings.j_env[0] * (embed_pauli("X", 0, 2) @ embed_pauli("X", 1, 2))
        for k in range(2):
            h_env += p.h_env * embed_pauli("Z", k, 2)
        want = np.kron(h_sys, np.eye(4)) + np.kron(np.eye(8), h_env)
        assert np.max(np.abs(real.h_full - want)) < 1e-12

    def test_determinism(self):
        p = params(seed=77)
        a, b = build_hamiltonian(p), build_hamiltonian(p)
        assert np.array_equal(a.h_full, b.h_full)

    def test_coupling_count_mismatch_rejected(self):
        p = params(n_sys=3, n_env=2)
        bad = CouplingSet(j_sys=np.zeros(1), j_env=np.zeros(1), g=np.zeros((3, 2)))
        with pytest.raises(ConfigError, match="counts"):
            build_hamiltonian(p, bad)


class TestCouplingsRoundTrip:
    def test_export_import(self, tmp_path):
        real = build_hamiltonian(params(n_sys=4, n_env=3, alpha=5.0, beta=0.1, seed=11))
        doc = export_couplings(real)
        text = json.dumps(doc)
        rebuilt = import_couplings(json.loads(text))
        assert rebuilt.params == real.params
        assert np.array_equal(rebuilt.h_full, real.h_full)

    def test_exported_text_is_pinned(self):
        # the text of a couplings_seed*.json file, key order included
        real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.0, beta=1.0, h_sys=0.5, h_env=1.0, seed=16))
        assert json.dumps(export_couplings(real), indent=2) == """{
  "params": {
    "n_sys": 2,
    "n_env": 1,
    "alpha": 1.0,
    "beta": 1.0,
    "h_sys": 0.5,
    "h_env": 1.0,
    "seed": 16,
    "j0": 1.0
  },
  "j_sys": [
    0.13383367775873012
  ],
  "j_env": [],
  "g": [
    [
      -0.13851170901962884
    ],
    [
      -0.8118523490769509
    ]
  ]
}"""

    @pytest.mark.parametrize("key", ["params", "j_sys", "j_env", "g"])
    def test_missing_key_named(self, key):
        # a missing key used to raise a bare KeyError
        doc = export_couplings(build_hamiltonian(params(n_sys=2, n_env=1, seed=16)))
        del doc[key]
        with pytest.raises(ConfigError, match=f"no '{key}'"):
            import_couplings(doc)

    @pytest.mark.parametrize("edit, match", [
        # the first two used to raise TypeError
        (lambda doc: doc.update(params=[2, 1]), "'params' must be an object"),
        (lambda doc: doc["params"].update(bogus=1), r"unknown \['bogus'\], missing \[\]"),
        (lambda doc: doc["params"].pop("seed"), r"unknown \[\], missing \['seed'\]"),
    ], ids=["not_an_object", "unknown", "missing"])
    def test_bad_params_named(self, edit, match):
        doc = export_couplings(build_hamiltonian(params(n_sys=2, n_env=1, seed=16)))
        edit(doc)
        with pytest.raises(ConfigError, match=match):
            import_couplings(doc)

    @pytest.mark.parametrize("key, value", [("j_sys", [1.5, 0.0, 0.0]), ("j_env", None),
                                            ("g", [[np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]])])
    def test_coupling_outside_its_bound_rejected(self, key, value):
        # a null j_env or a NaN g used to build an H with NaN entries
        doc = export_couplings(build_hamiltonian(params(n_sys=3, n_env=2, seed=17)))
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{key} exceeds the"):
            import_couplings(doc)

    def test_wrong_shape_named(self):
        # used to raise numpy's ValueError from a reshape
        doc = export_couplings(build_hamiltonian(params(n_sys=2, n_env=2, seed=16)))
        doc["g"] = [0.1, 0.2, 0.3]
        with pytest.raises(ConfigError, match=r"^coupling counts: g has shape \(1, 3\), but its params need \(2, 2\)$"):
            import_couplings(doc)

    def test_non_number_named(self):
        # used to raise numpy's ValueError from a float conversion
        doc = export_couplings(build_hamiltonian(params(n_sys=2, n_env=1, seed=16)))
        doc["j_sys"] = ["a"]
        with pytest.raises(ConfigError, match="^couplings 'j_sys' must hold numbers"):
            import_couplings(doc)

    @pytest.mark.parametrize("doc", [None, [], "params"])
    def test_document_must_be_an_object(self, doc):
        # None used to raise TypeError
        with pytest.raises(ConfigError, match="couplings document must be an object"):
            import_couplings(doc)

    def test_export_import_env_free(self):
        real = build_hamiltonian(params(n_sys=3, n_env=0, seed=12))
        rebuilt = import_couplings(export_couplings(real))
        assert np.array_equal(rebuilt.h_full, real.h_full)

    def test_pickle_keeps_arrays_read_only(self):
        # realizations cross process boundaries by pickle in a worker pool
        real = build_hamiltonian(params(n_sys=2, n_env=2, alpha=1.5, beta=0.8, seed=13))
        back = pickle.loads(pickle.dumps(real))
        c = back.couplings
        assert not any(a.flags.writeable for a in (back.h_full, c.j_sys, c.j_env, c.g))
        inputs = np.random.default_rng(14).uniform(0, 1, 20)
        cfg = ReservoirConfig(tau=0.5, v=3)
        assert np.array_equal(run_trajectory(back, inputs, cfg)[0].values,
                              run_trajectory(real, inputs, cfg)[0].values)

    def test_realization_does_not_share_the_callers_array(self):
        real = build_hamiltonian(params(n_sys=2, n_env=1, seed=15))
        h = np.array(real.h_full)
        copy = HamiltonianRealization(real.params, real.couplings, h)
        h.flags.writeable = True  # the caller owns h and may unfreeze it
        h[0, 0] = 99.0
        assert np.array_equal(copy.h_full, real.h_full)
        assert not copy.h_full.flags.writeable


class TestRealizationContract:
    """A realization holds a real register-size H, checked when it is made,
    so no engine is ever built from a wrong one."""

    real = build_hamiltonian(params(n_sys=2, n_env=1, seed=16))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"h_full has shape \(4, 4\).*\(8, 8\)"):
            HamiltonianRealization(self.real.params, self.real.couplings, np.eye(4))

    @pytest.mark.parametrize("scale", [1e-3, 1e-300, np.nan])
    def test_imaginary_part_rejected(self, scale):
        h = self.real.h_full + scale * embed_pauli("Y", 0, 3)  # Hermitian and purely imaginary
        with pytest.raises(ValueError, match="h_full has a nonzero imaginary part"):
            HamiltonianRealization(self.real.params, self.real.couplings, h)

    @pytest.mark.parametrize("entry, match", [(0.3, "not Hermitian"), (np.nan, "non-finite")])
    def test_asymmetric_or_non_finite_matrix_rejected(self, entry, match):
        # |000> and |001> lie in different classes of the ground state, so the
        # engine would drop a one-sided entry between them without an error
        h = np.array(self.real.h_full)
        h[0, 1] = entry
        with pytest.raises(ValueError, match=f"h_full .*{match}"):
            HamiltonianRealization(self.real.params, self.real.couplings, h)

    def test_complex_typed_real_matrix_is_stored_as_float(self):
        assert self.real.h_full.dtype == np.float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copy = HamiltonianRealization(self.real.params, self.real.couplings, self.real.h_full.astype(complex))
        assert copy.h_full.dtype == np.float64
        assert np.array_equal(copy.h_full, self.real.h_full)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs; numpy reports its arrays to
    tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_keeps_the_one_matrix_it_fills():
    # At 9 qubits the build holds H and no other register-size array, and the
    # realization keeps that H. The public constructor still copies the
    # caller's array: one register-size matrix more.
    p = params(n_sys=5, n_env=4, seed=17)
    size = 8 * p.dim ** 2
    real = build_hamiltonian(p)  # first-call allocations stay out of the peaks below
    assert size <= traced_peak(lambda: build_hamiltonian(p)) < 1.5 * size
    h = np.array(real.h_full)
    assert traced_peak(lambda: HamiltonianRealization(p, real.couplings, h)) >= size
