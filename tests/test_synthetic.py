"""Generator contracts: determinism, pipeline invariants, distributional
agreement with the planted structure, and the exact oracles."""

import numpy as np
import pytest
from scipy import stats

from thrnn import synthetic as sy
from thrnn.data import save_split
from thrnn.point_process import QuadratureConfig, expected_return_time_from_s

import oracles

DAY = 86400.0


def _uniform_offdiag(v):
    m = np.full((v, v), 1.0 / (v - 1))
    np.fill_diagonal(m, 0.0)
    return m


def _concentrated(v, rng_seed=0):
    """Each item strongly prefers three successors."""
    rng = np.random.default_rng(rng_seed)
    m = np.zeros((v, v))
    for i in range(v):
        others = np.delete(np.arange(v), i)
        favs = rng.choice(others, size=3, replace=False)
        m[i, favs] = [0.55, 0.25, 0.12]
        rest = np.setdiff1d(others, favs)
        m[i, rest] = 0.08 / len(rest)
    return m


def _spec(**kw):
    base = dict(num_users=12, sessions_per_user=10,
                item_transition=_uniform_offdiag(8),
                gap_mixture=[(1.0, 1.0)])
    base.update(kw)
    return sy.SynthSpec(**base)


class TestSpecValidation:
    def test_bad_matrix(self):
        m = np.ones((3, 3))
        with pytest.raises(ValueError, match="stochastic"):
            _spec(item_transition=m)

    def test_bad_mixture(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _spec(gap_mixture=[(0.5, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError, match="positive"):
            _spec(gap_mixture=[(1.0, -2.0)])

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            _spec(session_length=(5, 25))

    def test_coupling_state(self):
        with pytest.raises(ValueError):
            sy.CouplingState(items=(), gap_mean_days=1.0)
        with pytest.raises(ValueError):
            sy.CouplingState(items=(1,), gap_mean_days=0.0)

    def test_no_successor_allowed_for_one_item_sessions(self):
        # with session_length (1, 1) no successor is ever drawn
        spec = _spec(item_transition=np.eye(3), session_length=(1, 1))
        assert sy.generate_corpus(spec, seed=0).num_users == 12
        single = [sy.CouplingState(items=(k,), gap_mean_days=1.0) for k in range(3)]
        spec = _spec(item_transition=_uniform_offdiag(3), session_length=(1, 1),
                     context_coupling=single, gap_mixture=[])
        assert sy.generate_corpus(spec, seed=0).num_users == 12


class TestGenerateCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = _spec()
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            # write through the real serializer for a byte-level comparison
            path = tmp_path / name
            save_split(sy.generate_corpus(spec, seed=99), str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] and len(blobs[0]) > 0

    def test_pipeline_invariants(self):
        split = sy.generate_corpus(_spec(), seed=1)
        assert split.num_users == 12
        for tr, te in zip(*oracles.histories(split)):
            sessions = tr.sessions + te.sessions
            assert len(tr.sessions) == 8 and len(te.sessions) == 2
            for i, s in enumerate(sessions):
                assert 1 <= len(s.items) <= 20
                assert all(a != b for a, b in zip(s.items, s.items[1:]))
                assert s.end_time >= s.start_time
                if i > 0:
                    assert s.gap_before == pytest.approx(
                        s.start_time - sessions[i - 1].end_time)
                    assert s.gap_before > 0
                else:
                    assert s.gap_before == 0.0

    def test_transitions_respected(self):
        # with a concentrated matrix, observed transitions should hit the
        # three favourites roughly 92% of the time
        spec = _spec(num_users=40, sessions_per_user=20,
                     item_transition=_concentrated(10))
        split = sy.generate_corpus(spec, seed=5)
        trans = oracles.dense_transition(spec, split)
        hits = total = 0
        for u in oracles.histories(split)[0]:
            for s in u.sessions:
                for a, b in zip(s.items, s.items[1:]):
                    top3 = np.argsort(-trans[a])[:3]
                    hits += b in top3
                    total += 1
        assert total > 1000
        assert hits / total > 0.85

    def test_gap_mixture_distribution(self):
        spec = _spec(num_users=300, sessions_per_user=40, session_length=(2, 4),
                     gap_mixture=[(0.5, 0.2), (0.5, 5.0)])
        split = sy.generate_corpus(spec, seed=11)
        gaps = np.array([s.gap_before / DAY
                         for tr, te in zip(*oracles.histories(split))
                         for s in (tr.sessions + te.sessions)[1:]])
        assert len(gaps) > 10_000

        def mixture_cdf(x):
            return 0.5 * (1 - np.exp(-x / 0.2)) + 0.5 * (1 - np.exp(-x / 5.0))

        ks = stats.kstest(gaps, mixture_cdf).statistic
        assert ks < 0.02

    def test_context_coupling_changes_gaps(self):
        states = [sy.CouplingState(items=tuple(range(4)), gap_mean_days=0.3),
                  sy.CouplingState(items=tuple(range(4, 8)), gap_mean_days=3.0)]
        spec = _spec(num_users=100, sessions_per_user=30,
                     context_coupling=states)
        split = sy.generate_corpus(spec, seed=3)
        vocab = {item: k for k, item in enumerate(split.item_ids)}
        lo_items = {vocab[sy.item_id(i)] for i in range(4) if sy.item_id(i) in vocab}
        short_gaps, long_gaps = [], []
        for tr, te in zip(*oracles.histories(split)):
            sessions = tr.sessions + te.sessions
            for s, nxt in zip(sessions, sessions[1:]):
                (short_gaps if s.items[0] in lo_items else long_gaps).append(
                    nxt.gap_before / DAY)
        # the session's items reveal which gap regime follows it
        assert np.mean(short_gaps) < 0.45
        assert np.mean(long_gaps) > 2.2

    def test_coupling_restricts_items(self):
        states = [sy.CouplingState(items=tuple(range(4)), gap_mean_days=1.0),
                  sy.CouplingState(items=tuple(range(4, 8)), gap_mean_days=1.0)]
        split = sy.generate_corpus(_spec(context_coupling=states), seed=7)
        vocab = {item: k for k, item in enumerate(split.item_ids)}
        lo = {vocab[sy.item_id(i)] for i in range(4) if sy.item_id(i) in vocab}
        for u in oracles.histories(split)[0]:
            for s in u.sessions:
                inside = sum(i in lo for i in s.items)
                assert inside in (0, len(s.items))  # never mixes clusters


def _coupled_spec(**kw):
    """Criterion-6 style: two latent states over disjoint halves of 12 items."""
    states = [sy.CouplingState(items=tuple(range(6)), gap_mean_days=0.25),
              sy.CouplingState(items=tuple(range(6, 12)), gap_mean_days=2.5)]
    transition = np.random.default_rng(2000).dirichlet(np.full(12, 0.4), size=12)
    return _spec(num_users=20, item_transition=transition, context_coupling=states, **kw)


def _dirichlet_spec(v=20, **kw):
    transition = np.random.default_rng(1000).dirichlet(np.full(v, 0.5), size=v)
    return _spec(num_users=20, item_transition=transition, **kw)


SAMPLER_SPECS = {
    "plain": lambda: _dirichlet_spec(),
    "coupled": lambda: _coupled_spec(),
    "coupled-no-mixture": lambda: _coupled_spec(gap_mixture=[]),
    "length-1": lambda: _dirichlet_spec(session_length=(1, 1)),
    "length-1-6": lambda: _dirichlet_spec(v=3, session_length=(1, 6)),
    "mixture-3": lambda: _dirichlet_spec(
        v=50, gap_mixture=[(0.2, 0.05), (0.5, 1.0), (0.3, 6.0)]),
}


class TestSamplerMatchesPerDrawChain:
    """The cached-row sampler against one Generator.choice per draw."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(SAMPLER_SPECS))
    def test_split_bytes_identical(self, tmp_path, name, seed):
        spec = SAMPLER_SPECS[name]()
        save_split(sy.generate_corpus(spec, seed), str(tmp_path / "new.split"))
        save_split(oracles.generate_corpus_per_draw(spec, seed), str(tmp_path / "ref.split"))
        assert (tmp_path / "new.split").read_bytes() == (tmp_path / "ref.split").read_bytes()

    @pytest.mark.parametrize("name", ["plain", "coupled"])
    def test_each_row_built_once(self, monkeypatch, name):
        # a count, not a time: per-draw row building fails this on any host
        calls, original = [], sy.conditioned_row

        def counted(transition, prev, allowed=None):
            calls.append((prev, None if allowed is None else tuple(np.asarray(allowed))))
            return original(transition, prev, allowed)

        monkeypatch.setattr(sy, "conditioned_row", counted)
        sy.generate_corpus(SAMPLER_SPECS[name](), seed=0)
        assert calls and len(calls) == len(set(calls))


class TestOracles:
    def test_bayes_ranks_beat_chance(self):
        spec = _spec(num_users=30, sessions_per_user=15,
                     item_transition=_concentrated(10))
        split = sy.generate_corpus(spec, seed=2)
        ranks = oracles.bayes_optimal_ranks(split, spec)
        assert np.mean(ranks <= 3) > 0.8  # favourites carry ~92% of mass
        assert np.all(ranks >= 1)

    def test_bayes_ranks_uniform_chain_are_flat(self):
        spec = _spec()
        split = sy.generate_corpus(spec, seed=4)
        ranks = oracles.bayes_optimal_ranks(split, spec)
        # off-diagonal uniform rows make every successor tie at rank 1
        assert np.all(ranks == 1)

    def test_conditioned_row(self):
        m = _uniform_offdiag(4)
        row = sy.conditioned_row(m, 2)
        assert row[2] == 0.0 and row.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="successor"):
            sy.conditioned_row(np.eye(3), 0)


class TestModelDensitySampling:
    def test_exponential_limit_mean(self):
        # v = 0, b = 0: s = v.h + b = 0 for any h
        draws = oracles.sample_gap_from_model_density(0.0, 0.0, seed=0, n=1_000_000)
        assert 0.99 <= float(draws.mean()) <= 1.01

    def test_matches_quadrature(self):
        s = 1.0 * -0.5 + 0.0  # v = 1, h = -0.5, b = 0
        draws = oracles.sample_gap_from_model_density(s, 0.3, seed=1, n=200_000)
        quad = expected_return_time_from_s(
            s, 0.3, QuadratureConfig(cutoff=30.0))[0]
        assert quad == pytest.approx(float(draws.mean()), rel=0.005)

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            oracles.sample_gap_from_model_density(0.0, -0.8, seed=0, n=10)
