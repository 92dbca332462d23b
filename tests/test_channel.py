import math

import pytest

from qtransmute import channel
from qtransmute.channel import (DepolarizingChannel, ExplicitChannel,
                                exact_class_distribution, run_trials,
                                total_variation, uniform_single_error_channel)
from qtransmute.pauli import errors_up_to_weight, identity, multiply, parse_pauli
from qtransmute.qet import AdmissibleSet, RecoveryTable, build_recovery, check_general_qet
from qtransmute.stabilizer import logical_class

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


def recovery_for(code, adm, max_weight=1, **kwargs):
    verdict = check_general_qet(code, adm, errors_up_to_weight(code.n, max_weight))
    assert verdict.passed
    return build_recovery(verdict, **kwargs)


def test_uniform_single_error_channel_shape():
    ch = uniform_single_error_channel(7)
    assert len(ch.errors) == 21
    assert ch.identity_probability == pytest.approx(0.0)


def test_explicit_channel_validation():
    with pytest.raises(ValueError):
        ExplicitChannel(2, ((identity(2), 1.5),))
    with pytest.raises(ValueError):
        ExplicitChannel(2, ((identity(3), 0.1),))
    for p in (float("nan"), -0.1):
        with pytest.raises(ValueError, match="probability must be a number >= 0"):
            ExplicitChannel(2, ((parse_pauli("XI"), p),))


def test_exact_admissibility_table1(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, PHASE1, table, uniform_single_error_channel(7),
                     trials=20_000, seed=42)
    assert rep.trials == 20_000
    assert rep.uncovered == 0
    assert rep.admissible_rate(PHASE1) == 1.0


def test_identity_channel_all_trivial(table1):
    # under the point-mass mixture, no-error trials come back untouched
    table = recovery_for(table1, PHASE1, default_mixture="first")
    ch = ExplicitChannel(7, ())
    rep = run_trials(table1, PHASE1, table, ch, trials=1000, seed=1)
    assert rep.class_counts == {0: 1000}


def test_identity_channel_uniform_mixture_stays_admissible(table1):
    # the default mixture may deliberately apply admissible logicals
    table = recovery_for(table1, PHASE1)
    ch = ExplicitChannel(7, ())
    rep = run_trials(table1, PHASE1, table, ch, trials=1000, seed=1)
    assert rep.admissible_rate(PHASE1) == 1.0
    assert set(rep.class_counts) <= PHASE1.classes


def test_table2_residual_classes(table2):
    table = recovery_for(table2, BOTH_PHASES)
    rep = run_trials(table2, BOTH_PHASES, table, uniform_single_error_channel(6),
                     trials=50_000, seed=9)
    z1 = logical_class(table2, table2.logical_z[0])
    z2 = logical_class(table2, table2.logical_z[1])
    assert set(rep.class_counts) <= {0, z1, z2}
    assert z1 ^ z2 not in rep.class_counts  # the excluded product class never appears


def test_empirical_matches_exact_distribution(table1):
    table = recovery_for(table1, PHASE1)
    model = uniform_single_error_channel(7)
    rep = run_trials(table1, PHASE1, table, model, trials=100_000, seed=31337)
    exact, uncovered = exact_class_distribution(table1, table, model)
    assert uncovered == 0.0
    assert total_variation(rep.class_distribution(), exact) < 0.01


@pytest.mark.parametrize("mixture", ["uniform", "first"])
def test_exact_distribution_matches_materialised_corrections(table1, table2, mixture):
    # reference: build each correction reference·rep(image) and take the
    # class that correction·error leaves, as a table of operators would
    for code, adm, extra in ((table1, PHASE1, "XXIIIII"), (table2, BOTH_PHASES, "XXIIII")):
        table = recovery_for(code, adm, default_mixture=mixture)
        errs = [e for e, _ in uniform_single_error_channel(code.n).errors]
        model = ExplicitChannel(code.n, tuple(
            (e, (i + 1) / 400) for i, e in enumerate(errs + [parse_pauli(extra)])))
        want, want_uncovered = {}, 0.0
        for e, p in model.errors + ((identity(code.n), model.identity_probability),):
            if (e.x, e.z) not in table.support:
                want_uncovered += p
                continue
            entry = table.entries[code.syndrome_bits(e.x, e.z)]
            for image, wgt in entry.components:
                corr = multiply(entry.reference, code.class_representative(image))
                res = code.class_bits(corr.x ^ e.x, corr.z ^ e.z)
                want[res] = want.get(res, 0.0) + p * wgt
        got, uncovered = exact_class_distribution(code, table, model)
        assert got == want
        assert uncovered == want_uncovered > 0


def test_depolarizing_uncovered_fraction(table1):
    table = recovery_for(table1, PHASE1)
    p, n, trials = 0.02, 7, 60_000
    model = DepolarizingChannel(n, p)
    rep = run_trials(table1, PHASE1, table, model, trials=trials, seed=7)
    expected = 1 - (1 - p) ** n - n * p * (1 - p) ** (n - 1)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rep.uncovered / trials - expected) < 3 * sigma


def test_merge_independent_of_worker_count(table1):
    # 45,000 trials: two full chunks and one partial
    table = recovery_for(table1, PHASE1)
    for model in (uniform_single_error_channel(7), DepolarizingChannel(7, 0.05)):
        serial = run_trials(table1, PHASE1, table, model, trials=45_000, seed=5, threads=1)
        for threads in (2, 3, 8):
            parallel = run_trials(table1, PHASE1, table, model, trials=45_000, seed=5,
                                  threads=threads)
            assert parallel.render(table1.k) == serial.render(table1.k)


def test_pool_never_larger_than_chunk_count(table1, monkeypatch):
    sizes = []
    pool = channel.ProcessPoolExecutor

    def sized_pool(*args, **kwargs):
        sizes.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(channel, "ProcessPoolExecutor", sized_pool)
    table = recovery_for(table1, PHASE1)
    run_trials(table1, PHASE1, table, uniform_single_error_channel(7), trials=45_000,
               seed=5, threads=8)
    assert sizes == [3]


def test_table_shipped_at_most_once_per_worker(table1, monkeypatch):
    pickles = []

    def counted_reduce_ex(self, protocol):
        pickles.append(protocol)
        return object.__reduce_ex__(self, protocol)

    table = recovery_for(table1, PHASE1)
    model = uniform_single_error_channel(7)
    serial = run_trials(table1, PHASE1, table, model, trials=100_000, seed=8, threads=1)
    monkeypatch.setattr(RecoveryTable, "__reduce_ex__", counted_reduce_ex)
    pooled = run_trials(table1, PHASE1, table, model, trials=100_000, seed=8, threads=2)
    assert len(pickles) <= 2  # once per worker at most, not once per chunk (five)
    assert pooled.class_counts == serial.class_counts


def test_uncovered_never_admissible(table1):
    # weight-2 errors are outside the verified support of a weight-1 table
    table = recovery_for(table1, PHASE1)
    two = parse_pauli("XXIIIII")
    ch = ExplicitChannel(7, ((two, 1.0),))
    rep = run_trials(table1, PHASE1, table, ch, trials=500, seed=3)
    assert rep.uncovered == 500
    assert rep.admissible_rate(PHASE1) == 0.0


def test_counts_sum_to_trials(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, PHASE1, table, DepolarizingChannel(7, 0.05),
                     trials=5000, seed=13)
    assert sum(rep.class_counts.values()) + rep.uncovered == rep.trials


def test_report_render_has_seed(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, PHASE1, table, uniform_single_error_channel(7),
                     trials=100, seed=77)
    text = rep.render(table1.k)
    assert "seed = 77" in text
    assert "trials = 100" in text
