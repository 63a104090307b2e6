"""Simulation harness: generators, competitors, tables."""

import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from gdcscan import nulldist, simbench
from gdcscan.gdc import Sample, standardized_statistic
from gdcscan.io import ArraySource
from gdcscan.nulldist import exact_pvalue, exact_pvalues_batch, spectrum_unadjusted
from gdcscan.scan import ScanConfig, run_scan
from gdcscan.simbench import (
    _F_PVALUES,
    SimScenario,
    _chunk_stats,
    _gdc_stats,
    _rejected,
    _rejection_cell,
    competitor_tests,
    draw_genotypes,
    draw_heterozygous_effect,
    hwe_probs,
    simulate_null,
    simulate_power,
    write_table,
)
from tsv_oracle import scan_records


def _method_pvalues(st, method):
    """Per-replication p-values of one method: a b value, through the
    exact law of its statistic, or a classical competitor."""
    if method in _F_PVALUES:
        return _F_PVALUES[method](st)
    stat, lam1, lam2 = _gdc_stats(st, float(method))
    return exact_pvalues_batch(lam1, lam2, stat, st.n, 1)


def test_hwe_probs():
    p = hwe_probs(0.3)
    assert p.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(p, [0.49, 0.42, 0.09])
    with pytest.raises(ValueError):
        hwe_probs(0.7)


def test_draw_genotypes_frequencies():
    rng = np.random.default_rng(0)
    g = draw_genotypes(rng, 200, 0.25, 500)
    freqs = np.bincount(g.ravel(), minlength=3) / g.size
    np.testing.assert_allclose(freqs, hwe_probs(0.25), atol=0.01)


def test_heterozygous_effect_uniform_at_b3():
    rng = np.random.default_rng(1)
    h = draw_heterozygous_effect(3.0, rng=rng, size=1_000_000)
    assert h.mean() == pytest.approx(0.5, abs=0.002)
    assert h.min() >= 0.0 and h.max() <= 1.0


def test_heterozygous_effect_concentrates_toward_b4():
    rng = np.random.default_rng(2)
    v_35 = draw_heterozygous_effect(3.5, rng=rng, size=200_000).var()
    v_39 = draw_heterozygous_effect(3.9, rng=rng, size=200_000).var()
    assert v_39 < v_35 < 1.0 / 12.0  # tighter than uniform


def test_heterozygous_effect_overdominant_below_b2():
    rng = np.random.default_rng(3)
    h = draw_heterozygous_effect(1.0, rng=rng, size=100_000)
    inside = np.mean((h >= 0.0) & (h <= 1.0))
    assert inside == 0.0  # the ratio construction lands outside [0, 1] a.s.


def test_heterozygous_effect_regime_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        draw_heterozygous_effect(2.0, rng=rng)
    with pytest.raises(ValueError):
        draw_heterozygous_effect(1.0, regime="beta", rng=rng)
    with pytest.raises(ValueError):
        draw_heterozygous_effect(3.0, regime="gamma_ratio", rng=rng)


def test_additive_competitor_equals_endpoint_test():
    """The additive F-test and the b = 4 exact test give the same p-value."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(20, 150))
        x = rng.choice(3, size=n, p=hwe_probs(0.3))
        if len(np.unique(x)) < 2:
            continue
        y = rng.normal(size=n)
        p_add = competitor_tests(Sample.from_arrays(x, y))["additive_F"]
        k, _ = standardized_statistic(4.0, Sample.from_arrays(x, y))
        spec = spectrum_unadjusted(4.0, np.bincount(x, minlength=3) / n, n)
        assert p_add == pytest.approx(exact_pvalue(spec, k), abs=1e-10)


def test_anova_competitor_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(30, 120))
        x = rng.choice(3, size=n, p=hwe_probs(0.4))
        y = rng.normal(size=n)
        groups = [y[x == j] for j in range(3) if (x == j).sum() > 0]
        if len(groups) < 2:
            continue
        ref = stats.f_oneway(*groups).pvalue
        got = competitor_tests(Sample.from_arrays(x, y))["anova_F"]
        assert got == pytest.approx(float(ref), rel=1e-9)


def test_anova_absent_class_reduces_to_two_groups():
    rng = np.random.default_rng(7)
    x = np.repeat([0, 1], 25)
    y = rng.normal(size=50)
    got = competitor_tests(Sample.from_arrays(x, y))["anova_F"]
    ref = stats.f_oneway(y[x == 0], y[x == 1]).pvalue
    assert got == pytest.approx(float(ref), rel=1e-9)


def test_competitors_uniform_under_null():
    rng = np.random.default_rng(8)
    from gdcscan.simbench import _additive_pvalues, _anova_pvalues, _chunk_stats

    g = draw_genotypes(rng, 100, 0.3, 3000)
    y = rng.standard_normal((3000, 100))
    st = _chunk_stats(g, y)
    for ps in (_additive_pvalues(st), _anova_pvalues(st)):
        ks = stats.kstest(ps, "uniform").statistic
        assert ks < 1.63 / np.sqrt(3000) * 1.5


def test_simulate_null_rows_and_determinism():
    scenario = SimScenario(
        n=100, maf=(0.3,), b_values=(2.0, 3.0), replications=400, seed=11
    )
    rows1 = simulate_null(scenario)
    rows2 = simulate_null(scenario)
    assert rows1 == rows2  # bit-identical tables from the same seed
    methods = {r["method"] for r in rows1}
    assert methods == {"2.0", "3.0", "additive_F", "anova_F"}
    for r in rows1:
        assert 0.0 <= r["ci_low"] <= r["estimate"] <= r["ci_high"] <= 1.0


def test_simulate_null_cells_keep_their_seeds():
    """Cell i draws from child i of the scenario's seed, so appending a MAF
    leaves the rows of the earlier cells identical."""
    def rows(maf):
        return simulate_null(SimScenario(n=200, maf=maf, b_values=(2.0, 3.0),
                                         replications=600, seed=4))

    short, long = rows((0.1, 0.3)), rows((0.1, 0.3, 0.4))
    assert long[: len(short)] == short
    assert [r["maf"] for r in long[len(short):]] == [0.4] * 4


def test_alpha_zero_rejects_nothing():
    scenario = SimScenario(
        n=60, maf=(0.3,), b_values=(3.0,), replications=200, alpha=0.0, seed=3,
        competitors=False,
    )
    rows = simulate_null(scenario)
    assert all(r["estimate"] == 0.0 for r in rows)


def test_power_equals_type_one_at_zero_effect():
    scenario = SimScenario(
        n=80, maf=(0.3,), b_values=(2.5,), replications=500, seed=13,
        competitors=False, beta=0.0, h_grid=(0.5,),
    )
    power_rows = simulate_power(scenario)
    null_rows = simulate_null(
        SimScenario(n=80, maf=(0.3,), b_values=(2.5,), replications=500,
                    seed=13, competitors=False)
    )
    # same generator law; estimates must agree in distribution (weak check:
    # both near alpha)
    assert abs(power_rows[0]["estimate"] - null_rows[0]["estimate"]) < 0.05


def test_power_increases_with_effect():
    rates = []
    for beta in (0.0, 1.5, 3.0):
        scenario = SimScenario(
            n=120, maf=(0.4,), b_values=(3.0,), replications=800, seed=17,
            competitors=False, beta=beta, h_grid=(0.5,),
        )
        rates.append(simulate_power(scenario)[0]["estimate"])
    assert rates[0] < rates[1] < rates[2]


def test_rejection_cell_shares_draws_across_methods():
    scenario = SimScenario(n=60, maf=(0.3,), b_values=(4.0,), replications=300,
                           seed=19)
    rates = _rejection_cell(
        scenario, 0.3, h=0.5, beta=0.0,
        methods=["4.0", "additive_F"], seed_seq=np.random.SeedSequence(19),
    )
    # b = 4 and the additive F-test are the same test; identical decisions
    assert rates["4.0"] == rates["additive_F"]


def test_b4_and_additive_identical_decisions_replicatewise():
    rng = np.random.default_rng(23)
    from gdcscan.simbench import _additive_pvalues, _chunk_stats, _gdc_stats

    n, reps = 300, 2000
    g = draw_genotypes(rng, n, 0.3, reps)
    y = rng.standard_normal((reps, n))
    st = _chunk_stats(g, y)
    k, lam1, lam2 = _gdc_stats(st, 4.0)
    p_gdc = exact_pvalues_batch(lam1, lam2, k, n, 1)
    p_add = _additive_pvalues(st)
    np.testing.assert_allclose(p_gdc, p_add, atol=1e-10)
    np.testing.assert_array_equal(p_gdc <= 0.05, p_add <= 0.05)


@pytest.mark.parametrize("b", [0.0, 2.0, 3.0, 4.0])
def test_replication_stats_match_the_scan(b):
    """The simulation's one-pass statistics and the scan's hard-call path
    give the same statistic and spectrum for the same row and response."""
    rng = np.random.default_rng(29)
    n, reps = 120, 20
    g = draw_genotypes(rng, n, 0.3, reps)
    g[0] = np.where(rng.random(n) < 0.5, 0, 2)  # two classes, no heterozygote
    y = rng.standard_normal((reps, n))
    stat, lam1, lam2 = _gdc_stats(_chunk_stats(g, y), b)
    for i in range(reps):
        (rec,) = scan_records(run_scan(ScanConfig(b=b, no_screen=True),
                                       ArraySource(g[i:i + 1], kind="hard"), y[i]))
        assert stat[i] == pytest.approx(rec.stat, rel=1e-12)
        assert lam1[i] == pytest.approx(rec.lambda1, rel=1e-12)
        assert lam2[i] == pytest.approx(rec.lambda2, rel=1e-12)


def test_degenerate_replications():
    """Monomorphic draws give p = 1 for every method; a two-class draw
    reduces ANOVA to the two-group F-test; b = 0 is the F-test of the
    heterozygote indicator; none of it warns."""
    rng = np.random.default_rng(31)
    n = 60
    two_class = np.repeat([0, 1], n // 2)
    one_het = np.zeros(n, dtype=np.int8)
    one_het[7] = 1
    g = np.stack([
        np.zeros(n), np.ones(n), np.full(n, 2), two_class, one_het,
        draw_genotypes(rng, n, 0.3, 1)[0],
    ]).astype(np.int8)
    y = rng.standard_normal((len(g), n))
    methods = ["0.0", "2.0", "3.0", "4.0", "additive_F", "anova_F"]
    st = _chunk_stats(g, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = {m: _method_pvalues(st, m) for m in methods}
    for m in methods:
        np.testing.assert_array_equal(p[m][:3], 1.0)
    ref = stats.f_oneway(y[3][g[3] == 0], y[3][g[3] == 1]).pvalue
    assert p["anova_F"][3] == pytest.approx(float(ref), rel=1e-9)
    for i in range(3, len(g)):
        ref = stats.linregress((g[i] == 1).astype(float), y[i]).pvalue
        assert p["0.0"][i] == pytest.approx(ref, abs=1e-10)


def test_bounds_decide_as_the_exact_pvalue(monkeypatch):
    """Deciding by the bounds p* <= p <= p** where their margins allow
    gives every replication the decision ``exact p <= alpha`` would, over
    small to large n, rare to common alleles, every kind of b, alphas from
    0 to 1, and null responses as well as ones with effects of random
    size; the bounds both accept and reject on this grid."""
    exact = []  # the p-values of what each call sent to the exact path

    def spy(*args):
        exact.append(exact_pvalues_batch(*args))
        return exact[-1]

    monkeypatch.setattr(simbench, "exact_pvalues_batch", spy)
    rng = np.random.default_rng(43)
    reps = 150
    alphas = (0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 1.0)
    by_bounds = {True: 0, False: 0}
    seen = set()
    for n in (8, 20, 300, 2000):
        for maf in (0.01, 0.1, 0.3, 0.5):
            g = draw_genotypes(rng, n, maf, reps)
            for effect in (0.0, 6.0 * np.sqrt(300 / n)):
                y = rng.standard_normal(g.shape)
                y += rng.uniform(0.0, effect, (reps, 1)) * (0.5 * (g == 1) + (g == 2))
                st = _chunk_stats(g, y)
                for b in (0.0, 0.5, 2.0, 3.0, 3.9, 4.0):
                    stat, lam1, lam2 = _gdc_stats(st, b)
                    p = exact_pvalues_batch(lam1, lam2, stat, n, 1)
                    for alpha in alphas:
                        exact.clear()
                        got = _rejected(st, str(b), alpha)
                        np.testing.assert_array_equal(got, p <= alpha, err_msg=f"{n, maf, b, alpha}")
                        seen.update((alpha, bool(v)) for v in got)
                        (q,) = exact
                        by_bounds[True] += int(got.sum() - (q <= alpha).sum())
                        by_bounds[False] += int((~got).sum() - (q > alpha).sum())
    # every alpha strictly inside (0, 1) saw both decisions
    assert all((a, v) in seen for a in alphas[2:-1] for v in (False, True))
    assert min(by_bounds.values()) > 0, by_bounds


def test_few_null_replications_reach_the_exact_path(monkeypatch):
    """At alpha = 0.05 under the null, the bounds leave at most 15% of
    the b = 3 replications to the exact p-value."""
    calls = []
    monkeypatch.setattr(simbench, "exact_pvalues_batch",
                        lambda l1, *a: calls.append(l1.size) or exact_pvalues_batch(l1, *a))
    reps = 2000
    for maf in (0.1, 0.25, 0.4):
        calls.clear()
        _rejection_cell(SimScenario(n=300, replications=reps), maf, h=0.0, beta=0.0,
                        methods=["3.0"], seed_seq=np.random.SeedSequence(47))
        assert 0 < sum(calls) <= 0.15 * reps


def test_upper_bound_is_computed_only_where_the_lower_leaves_doubt(monkeypatch):
    """p** is evaluated only for the replications whose lower bound
    max(t2, t3) is below the acceptance margin: under the null at alpha =
    0.05 that is at most a quarter of the bounded b = 3 replications."""
    lower, upper = [], []
    monkeypatch.setattr(simbench, "_f_lower", lambda *a: lower.append(
        nulldist._f_lower(*a)) or lower[-1])
    monkeypatch.setattr(simbench, "_f_upper", lambda l1, *a: upper.append(
        l1.size) or nulldist._f_upper(l1, *a))
    rng = np.random.default_rng(53)
    g = draw_genotypes(rng, 300, 0.25, 2000)
    st = _chunk_stats(g, rng.standard_normal(g.shape))
    _rejected(st, "3.0", 0.05)
    ((bound,), (evaluated,)) = lower, upper
    assert evaluated == (~(bound >= 0.05 * (1.0 + 1e-6) + 1e-9)).sum()
    assert 0 < evaluated <= 0.25 * bound.size


@pytest.mark.parametrize("mode", ["null", "power"])
def test_strip_height_moves_no_bit(monkeypatch, mode):
    """A chunk's rows are drawn and reduced in strips of any height with
    the same draws and the same statistics: strips of one row, of seven
    (none of which divides a chunk) and of a whole chunk give the same
    table, over several chunks and a short last one."""
    scenario = SimScenario(n=50, maf=(0.2, 0.4), b_values=(0.0, 3.0), replications=230,
                           h_grid=(0.5,), beta=2.0, seed=37)
    simulate = simulate_null if mode == "null" else simulate_power
    monkeypatch.setattr(simbench, "CHUNK_ROWS", 100)
    tables = []
    for rows in (1, 7, scenario.replications):
        monkeypatch.setattr(simbench, "_STRIP_CALLS", rows * scenario.n)
        tables.append(simulate(scenario))
    assert tables[0] == tables[1] == tables[2]
    assert len({r["estimate"] for r in tables[0]}) > 1


def test_simulation_memory_is_bounded():
    """A chunk holds its int8 calls and one strip's floats, not
    (replications x n) float64 arrays: at n = 2000 and 4000 replications
    the traced peak stays below three times the chunk's 8 MB of calls."""
    scenario = SimScenario(n=2000, maf=(0.3,), b_values=(3.0,), replications=4000,
                           seed=41, competitors=False)
    calls_bytes = scenario.n * scenario.replications
    tracemalloc.start()
    try:
        simulate_null(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * calls_bytes


def test_write_table(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    path = str(tmp_path / "t.tsv")
    write_table(rows, path)
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines[0] == "a\tb"
    assert len(lines) == 3
    write_table([], str(tmp_path / "e.tsv"))
    assert (tmp_path / "e.tsv").read_text() == ""


def test_scenario_validation():
    with pytest.raises(ValueError):
        SimScenario(n=2)
    with pytest.raises(ValueError):
        SimScenario(b_values=(5.0,))
    with pytest.raises(ValueError):
        SimScenario(alpha=1.5)
    # checked before any cell runs, not when the bad cell is reached
    for maf in ((0.1, 0.7), (0.0,), (-0.1,)):
        with pytest.raises(ValueError, match=r"MAF must lie in \(0, 0.5\]"):
            SimScenario(maf=maf)
    for empty in ({"maf": ()}, {"b_values": ()}):
        with pytest.raises(ValueError, match="at least one MAF and one b value"):
            SimScenario(**empty)
    # a repeated b would add its rejections twice into one table entry
    for b_values in ((3.0, 3.0), (2.0, 3, 3.0), (0.0, -0.0)):
        with pytest.raises(ValueError, match=r"b = [03] is given more than once"):
            SimScenario(b_values=b_values)
    # a non-finite h would draw NaN or infinite phenotypes
    for h in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="h must be finite"):
            SimScenario(h_grid=(0.0, h))
    # zero noise would give every replication a zero residual sum of
    # squares and a table of 0/0 statistics
    for bad in ({"noise_sd": 0.0}, {"noise_sd": -1.0}, {"noise_sd": np.inf},
                {"noise_sd": np.nan}, {"beta": np.inf}, {"beta": np.nan}):
        with pytest.raises(ValueError):
            SimScenario(**bad)


def test_write_table_leaves_no_partial_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("row died")

    path = str(tmp_path / "t.tsv")
    rows = [{"a": 1, "b": 0.5}, {"a": Unprintable(), "b": 0.25}]
    with pytest.raises(RuntimeError):
        write_table(rows, path)
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".partial")
