import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransmute import catalog, channel, pauli
from qtransmute.channel import (DepolarizingChannel, ExplicitChannel, TrialReport,
                                class_distribution, run_trials, uniform_single_error_channel)
from qtransmute.errors import DimensionMismatch
from qtransmute.pauli import (ErrorBall, PauliOp, errors_up_to_weight, parse_pauli, support_code,
                              support_weight)
from qtransmute.qet import (AdmissibleSet, PiMaps, RecoveryTable, _member_fields, build_recovery,
                            check_general_qet)
from qtransmute.search import sample_generators
from qtransmute.stabilizer import standard_form

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


def total_variation(report, exact):
    """Total variation distance from a run's shares of its covered trials to `exact`."""
    covered = report.trials - report.uncovered
    return 0.5 * sum(abs(report.class_counts.get(c, 0) / covered - exact.get(c, 0.0))
                     for c in report.class_counts.keys() | exact.keys())


def recovery_for(code, adm, max_weight=1):
    verdict = check_general_qet(code, adm, errors_up_to_weight(code.n, max_weight))
    assert verdict.passed
    return build_recovery(verdict)


def test_uniform_single_error_channel_shape():
    ch = uniform_single_error_channel(7)
    assert len(ch.errors) == 21
    assert ch.identity_probability == pytest.approx(0.0)


def test_explicit_channel_validation():
    with pytest.raises(ValueError):
        ExplicitChannel(2, ((PauliOp(2), 1.5),))
    with pytest.raises(ValueError):
        ExplicitChannel(2, ((PauliOp(3), 0.1),))
    for p in (float("nan"), -0.1):
        with pytest.raises(ValueError, match="probability must be a number >= 0"):
            ExplicitChannel(2, ((parse_pauli("XI"), p),))


def test_exact_admissibility_table1(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, table, uniform_single_error_channel(7),
                     trials=20_000, seed=42)
    assert rep.trials == 20_000
    assert rep.uncovered == 0
    assert rep.admissible_rate(PHASE1) == 1.0


def test_identity_channel_uniform_mixture_stays_admissible(table1):
    # the uniform draw over options may deliberately apply admissible logicals
    table = recovery_for(table1, PHASE1)
    ch = ExplicitChannel(7, ())
    rep = run_trials(table1, table, ch, trials=1000, seed=1)
    assert rep.admissible_rate(PHASE1) == 1.0
    assert set(rep.class_counts) <= PHASE1.classes


def test_table2_residual_classes(table2):
    table = recovery_for(table2, BOTH_PHASES)
    rep = run_trials(table2, table, uniform_single_error_channel(6),
                     trials=50_000, seed=9)
    z1, z2 = (table2.class_bits(p.x, p.z) for p in table2.logical_z)
    assert set(rep.class_counts) <= {0, z1, z2}
    assert z1 ^ z2 not in rep.class_counts  # the excluded product class never appears


def test_empirical_matches_exact_distribution(table1):
    table = recovery_for(table1, PHASE1)
    model = uniform_single_error_channel(7)
    rep = run_trials(table1, table, model, trials=100_000, seed=31337)
    exact, uncovered = class_distribution(table1, table, model)
    assert uncovered == 0.0
    assert total_variation(rep, exact) < 0.01


def test_exact_distribution_matches_materialised_corrections(table1, table2):
    # reference: build each correction reference·rep(image) and take the
    # class that correction·error leaves, as a table of operators would
    for code, adm, extra in ((table1, PHASE1, "XXIIIII"), (table2, BOTH_PHASES, "XXIIII")):
        table = recovery_for(code, adm)
        errs = [e for e, _ in uniform_single_error_channel(code.n).errors]
        model = ExplicitChannel(code.n, tuple(
            (e, (i + 1) / 400) for i, e in enumerate(errs + [parse_pauli(extra)])))
        want, missed = {}, []
        for e, p in model.errors + ((PauliOp(code.n), model.identity_probability),):
            if (e.x, e.z) not in table.support:
                missed.append(p)
                continue
            entry = table.entries[code.syndrome_bits(e.x, e.z)]
            wgt = 1.0 / len(entry.options)
            for image in entry.options:
                rep = code.class_representative(image)
                corr = PauliOp(code.n, entry.reference[0] ^ rep.x, entry.reference[1] ^ rep.z)
                res = code.class_bits(corr.x ^ e.x, corr.z ^ e.z)
                want.setdefault(res, []).append(p * wgt)
        got, uncovered = class_distribution(code, table, model)
        assert got == {c: math.fsum(terms) for c, terms in want.items()}
        assert uncovered == math.fsum(missed) > 0


def test_channel_on_another_qubit_count_is_refused(table1):
    # a 3-qubit channel would otherwise run against the 7-qubit table, and a
    # 9-qubit one would give a distribution
    table = recovery_for(table1, PHASE1)
    nine = ExplicitChannel(9, ((parse_pauli("XIIIIIIII"), 0.5),))
    for model in (DepolarizingChannel(3, 0.3), nine):
        message = f"channel acts on {model.n} qubits, code on 7"
        with pytest.raises(DimensionMismatch, match=message):
            run_trials(table1, table, model, 20_000, 1)
        with pytest.raises(DimensionMismatch, match=message):
            class_distribution(table1, table, model)


def test_trial_and_thread_counts_below_one_are_refused(table1):
    table = recovery_for(table1, PHASE1)
    model = uniform_single_error_channel(7)
    for trials in (0, -3):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            run_trials(table1, table, model, trials, 1)


def test_importing_the_cli_loads_no_process_pool():
    # 45,000 trials at the default --threads once started a pool of workers
    code = ("import sys, qtransmute.cli\n"
            "pooled = ('concurrent.futures.process', 'multiprocessing')\n"
            "print([m for m in pooled if m in sys.modules])\n"
            "rc = qtransmute.cli.main(['simulate', '--code', 'table1-7q', '--admissible', 'ZI',\n"
            "                          '--model', 'uniform1', '--trials', '45000', '--seed', '5'])\n"
            "print(rc, [m for m in pooled if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(channel.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []"), out.stdout
    assert "trials = 45000" in lines


def test_depolarizing_uncovered_fraction(table1):
    table = recovery_for(table1, PHASE1)
    p, n, trials = 0.02, 7, 60_000
    model = DepolarizingChannel(n, p)
    rep = run_trials(table1, table, model, trials=trials, seed=7)
    expected = 1 - (1 - p) ** n - n * p * (1 - p) ** (n - 1)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rep.uncovered / trials - expected) < 3 * sigma


def bernoulli_depolarizing_error(n, p, rng):
    """The depolarizing channel's definition: each qubit fails independently
    with probability p and then takes X, Y or Z, each equally likely."""
    x = z = 0
    for q in range(n):
        u = rng.random()
        if u < p:
            letter = min(2, int(3 * u / p))  # 0,1,2 equally likely given u < p
            if letter != 2:
                x |= 1 << q
            if letter != 0:
                z |= 1 << q
    return x, z


def chi_square_sf(stat, dof):
    """Upper tail of chi-square(dof) at stat, by the Wilson-Hilferty cube-root
    normal approximation (good to a few per cent of the tail at dof >= 2)."""
    h = 2 / (9 * dof)
    zscore = ((stat / dof) ** (1 / 3) - (1 - h)) / math.sqrt(h)
    return 0.5 * math.erfc(zscore / math.sqrt(2))


def chi_square(observed, expected):
    """Pearson statistic, with bins of expected count below 5 pooled into the
    last bin kept; returns (statistic, number of bins)."""
    obs, exp = [], []
    for o, e in zip(observed, expected):
        if exp and exp[-1] < 5:
            obs[-1] += o
            exp[-1] += e
        else:
            obs.append(o)
            exp.append(e)
    if len(exp) > 1 and exp[-1] < 5:
        obs[-2] += obs.pop()
        exp[-2] += exp.pop()
    return sum((o - e) ** 2 / e for o, e in zip(obs, exp)), len(exp)


def test_edge_rates_are_exact(table1):
    # Rate 0, and a rate whose 1 - p rounds to 1, leave only the identity,
    # alone in its bucket with both admissible options; at rate 1 every error
    # weighs 7 and is past the weight-1 support.
    table = recovery_for(table1, PHASE1)
    identity = {o: 0.5 for o in PHASE1.classes}
    for p in (0.0, 1e-320):
        assert class_distribution(table1, table, DepolarizingChannel(7, p)) == (identity, 0.0)
    assert class_distribution(table1, table, DepolarizingChannel(7, 1.0)) == ({}, 1.0)


@pytest.mark.parametrize("n,p", [(7, 0.02), (98, 0.01), (6, 0.3)])
def test_depolarizing_draw_matches_bernoulli_definition(n, p):
    # Homogeneity of run_trials' tallies and the per-trial reference's, which
    # draws each qubit's error as the channel defines it, over the classes
    # and the uncovered count. For two samples of one size the statistic is
    # twice one sample's Pearson statistic against their mean.
    name = {7: "table1-7q", 98: "toric:7", 6: "table2-6q"}[n]
    cc = catalog.resolve(name)
    table = recovery_for(cc.code, cc.admissible, 1 if n < 98 else 2)
    model, count = DepolarizingChannel(n, p), 20_000
    got = run_trials(cc.code, table, model, count, n)
    want = reference_run_chunk(cc.code, table, model, count, f"bernoulli:{n}")
    keys = sorted(got.class_counts.keys() | want.class_counts.keys())
    a = [got.class_counts.get(c, 0) for c in keys] + [got.uncovered]
    b = [want.class_counts.get(c, 0) for c in keys] + [want.uncovered]
    stat, bins = chi_square(a, [(x + y) / 2 for x, y in zip(a, b)])
    assert chi_square_sf(2 * stat, bins - 1) > 1e-3, (a, b)


def wilson_interval(hits, total, zscore=3.2905):
    """99.9% Wilson score interval for a binomial proportion hits / total."""
    centre = (hits + zscore ** 2 / 2) / (total + zscore ** 2)
    half = zscore * math.sqrt(hits * (total - hits) / total + zscore ** 2 / 4) / (total + zscore ** 2)
    return centre - half, centre + half


@pytest.mark.parametrize("name,max_weight,p", [("table1-7q", 1, 0.05), ("css17", 2, 0.03)])
def test_depolarizing_matches_exact_sum(name, max_weight, p):
    # The exact side lists every supported error with its depolarizing
    # probability (p/3)^w (1-p)^(n-w); each tally, and the uncovered count,
    # lies in its 99.9% Wilson interval around its exact rate.
    cc = catalog.resolve(name)
    table = recovery_for(cc.code, cc.admissible, max_weight)
    exact, uncovered = depolarizing_listing(cc.code, table, p)
    exact["uncovered"] = uncovered
    trials = 40_000
    rep = run_trials(cc.code, table, DepolarizingChannel(cc.code.n, p), trials=trials, seed=21)
    tallies = rep.class_counts | {"uncovered": rep.uncovered}
    assert tallies.keys() <= exact.keys()
    for key, rate in exact.items():
        low, high = wilson_interval(tallies.get(key, 0), trials)
        assert low <= rate <= high, (key, tallies, exact)


def depolarizing_listing(code, table, p):
    """class_distribution of the depolarizing channel written out error by
    error: every supported error with probability (p/3)^w (1-p)^(n-w), and
    the rest of the mass on an unsupported error if there is one."""
    n = code.n
    listed = [(PauliOp(n, x, z), (p / 3) ** (x | z).bit_count() * (1 - p) ** (n - (x | z).bit_count()))
              for x, z in table.support]
    outside = next((e for e in ErrorBall(n, n) if e not in table.support), None)
    if outside is not None:
        listed.append((PauliOp(n, *outside), max(0.0, 1 - math.fsum(q for _, q in listed))))
    return class_distribution(code, table, ExplicitChannel(n, tuple(listed)))


def assert_close(got, want, tol=1e-12):
    (dist, uncovered), (want_dist, want_uncovered) = got, want
    assert abs(uncovered - want_uncovered) <= tol, (uncovered, want_uncovered)
    for c in dist.keys() | want_dist.keys():
        assert abs(dist.get(c, 0.0) - want_dist.get(c, 0.0)) <= tol, (c, dist, want_dist)


@pytest.mark.parametrize("name,max_weight", [
    ("table1-7q", 1), ("table2-6q", 1), ("css17", 2), ("compact:4", 1),
    ("eq16-lattice:4x4", 1), ("rep:9", 4), ("rep:11", 5), ("toric:3", 1)])
def test_depolarizing_distribution_matches_listing_on_catalog_codes(name, max_weight):
    cc = catalog.resolve(name)
    code = cc.code
    table = build_recovery(check_general_qet(code, cc.admissible, ErrorBall(code.n, max_weight)))
    for p in (0.01, 0.1):
        assert_close(class_distribution(code, table, DepolarizingChannel(code.n, p)),
                     depolarizing_listing(code, table, p))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), w=st.integers(1, 2), group=st.booleans(),
       ball=st.booleans(), p=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 0.75, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_depolarizing_distribution_matches_listing(n, k, w, group, ball, p, seed):
    # The closed-form covered mass and the kept members against every
    # supported error listed with its probability, on a ball or a shuffled
    # list, with a group or a non-group admissible set.
    k = min(k, n - 1)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    classes = {0}
    for c in range(1, 1 << (2 * k)):
        if rng.random() < 0.3:
            classes |= {a ^ c for a in classes} if group else {c}
    adm = AdmissibleSet(k, frozenset(classes))
    everything = list(ErrorBall(n, w))
    support = ErrorBall(n, w) if ball else rng.sample(everything, rng.randint(1, len(everything)))
    verdict = check_general_qet(code, adm, support)
    if not verdict.passed:  # one error per syndrome always passes
        rng.shuffle(everything)
        support = list({code.syndrome_bits(x, z): (x, z) for x, z in everything}.values())
        verdict = check_general_qet(code, adm, support)
    table = build_recovery(verdict)
    assert_close(class_distribution(code, table, DepolarizingChannel(n, p)),
                 depolarizing_listing(code, table, p))


def test_uncovered_never_admissible(table1):
    # weight-2 errors are outside the verified support of a weight-1 table
    table = recovery_for(table1, PHASE1)
    two = parse_pauli("XXIIIII")
    ch = ExplicitChannel(7, ((two, 1.0),))
    rep = run_trials(table1, table, ch, trials=500, seed=3)
    assert rep.uncovered == 500
    assert rep.admissible_rate(PHASE1) == 0.0


def test_counts_sum_to_trials(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, table, DepolarizingChannel(7, 0.05),
                     trials=5000, seed=13)
    assert sum(rep.class_counts.values()) + rep.uncovered == rep.trials


def test_report_render_has_seed(table1):
    table = recovery_for(table1, PHASE1)
    rep = run_trials(table1, table, uniform_single_error_channel(7),
                     trials=100, seed=77)
    text = rep.render(table1.k)
    assert "seed = 77" in text
    assert "trials = 100" in text


# -- the trial loop -------------------------------------------------------------
#
# reference_run_chunk is the per-trial definition: each trial draws its error
# (an explicit channel's by inversion over the cumulative probabilities, a
# depolarizing one qubit at a time, as the channel is defined), folds its
# syndrome, the reference's residual syndrome and its class, and draws an
# option by walking the equal weights 1/m. It shares no code with
# class_distribution, so it is the independent path. run_trials draws counts
# from the same seed but not the same stream, so the two agree exactly only
# where the outcome is forced; elsewhere run_trials may tally only what a
# trial can leave, and the chi-square tests hold both to the exact
# distribution.


def reference_sample_error(model, rng, cumulative):
    if isinstance(model, ExplicitChannel):
        u = rng.random()
        i = bisect_right(cumulative, u)
        if i >= len(model.errors):
            return 0, 0  # identity remainder
        e = model.errors[i][0]
        return e.x, e.z
    return bernoulli_depolarizing_error(model.n, model.p, rng)


def reference_run_chunk(code, table, model, count, chunk_seed):
    rng = random.Random(chunk_seed)
    cumulative = None
    if isinstance(model, ExplicitChannel):
        cumulative = list(accumulate(p for _, p in model.errors))
    report = TrialReport(trials=count, seed=chunk_seed)
    classes = report.class_counts
    for _ in range(count):
        ex, ez = reference_sample_error(model, rng, cumulative)
        if (ex, ez) not in table.support:
            report.uncovered += 1
            continue
        entry = table.entries[code.syndrome_bits(ex, ez)]
        options = entry.options
        image = options[-1]  # the only option, or the walk's fallback
        if len(options) > 1:
            u = rng.random()
            wgt = 1.0 / len(options)
            acc = 0.0
            for cand in options:
                acc += wgt
                if u < acc:
                    image = cand
                    break
        ref_x, ref_z = entry.reference
        rx, rz = ref_x ^ ex, ref_z ^ ez
        if code.syndrome_bits(rx, rz):
            raise AssertionError("reference left a nonzero syndrome; table is corrupt")
        cls = image ^ code.class_bits(rx, rz)
        classes[cls] = classes.get(cls, 0) + 1
    return report


def trial_results(code, table, model):
    """Everything one trial can leave: the class o ^ class(reference·e) for
    each option o of each supported error e the model draws with nonzero
    probability, and "uncovered" if it can draw an unsupported error."""
    n = model.n
    if isinstance(model, ExplicitChannel):
        errors = [(e.x, e.z) for e, p in model.errors if p > 0]
        if model.identity_probability > 0:
            errors.append((0, 0))
    elif 1.0 - model.p == 1.0:  # rate 0, or one that 1 - p rounds away
        errors = [(0, 0)]
    else:
        errors = [(x, z) for x, z in ErrorBall(n, n)
                  if model.p < 1.0 or (x | z).bit_count() == n]
    results = set()
    for x, z in errors:
        if (x, z) not in table.support:
            results.add("uncovered")
            continue
        entry = table.entries[code.syndrome_bits(x, z)]
        base = code.class_bits(entry.reference[0] ^ x, entry.reference[1] ^ z)
        results.update(o ^ base for o in entry.options)
    return results


@st.composite
def explicit_channels(draw, n, w):
    """A few errors of weight up to w + 1 (so some are uncovered), some with
    probability 0, and an identity remainder that may be 0."""
    errors = []
    for _ in range(draw(st.integers(0, 6))):
        x = z = 0
        for q in draw(st.lists(st.integers(0, n - 1), max_size=w + 1)):
            letter = draw(st.integers(1, 3))
            x |= (letter & 1) << q
            z |= (letter >> 1) << q
        errors.append(PauliOp(n, x, z))
    weights = [draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in errors]
    remainder = draw(st.sampled_from([0.0, 0.25, 0.6]))
    total = sum(weights) or 1.0
    return ExplicitChannel(n, tuple((e, wt / total * (1 - remainder))
                                    for e, wt in zip(errors, weights)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), w=st.integers(1, 2),
       density=st.sampled_from([0.0, 0.5, 1.0]),
       depol=st.sampled_from([None, 0.0, 1e-320, 0.01, 0.3, 1.0]),
       count=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_run_trials_matches_reference(n, k, w, density, depol, count, seed, data):
    k = min(k, n - 1)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    errors = errors_up_to_weight(n, w)
    errors = rng.sample(errors, rng.randint(1, len(errors)))
    # Density 0 is the QEC set, one option per bucket; density 1 keeps every
    # class in every bucket, 2^(2k) options each.
    adm = AdmissibleSet(k, frozenset(
        [0, *(c for c in range(1, 1 << (2 * k)) if rng.random() < density)]))
    verdict = check_general_qet(code, adm, errors)
    if not verdict.passed:  # one error per syndrome always passes
        errors = list({code.syndrome_bits(x, z): (x, z) for x, z in errors}.values())
        verdict = check_general_qet(code, adm, errors)
    table = build_recovery(verdict)
    model = (data.draw(explicit_channels(n, w)) if depol is None
             else DepolarizingChannel(n, depol))
    got = run_trials(code, table, model, count, seed)
    assert sum(got.class_counts.values()) + got.uncovered == got.trials == count
    results = trial_results(code, table, model)
    assert set(got.class_counts) | ({"uncovered"} if got.uncovered else set()) <= results
    if len(results) == 1:  # forced: rate 0 or 1e-320, rate 1 past the support, ...
        want = reference_run_chunk(code, table, model, count, seed)
        assert got.render(k) == want.render(k)


# -- per-error spreading ---------------------------------------------------------------
#
# Copied from class_distribution as it was when each listed error of an
# explicit channel was spread over its options on its own.


def per_error_distribution(code, table, model):
    terms, missed = {}, []
    pairs = [((e.x, e.z), p) for e, p in model.errors]
    pairs.append(((0, 0), model.identity_probability))
    for (x, z), p in pairs:
        outcome = channel._outcome(code, table, x, z)
        if outcome is None:
            missed.append(p)
            continue
        options, base = outcome
        share = p * (1.0 / len(options))
        for o in options:
            terms.setdefault(o ^ base, []).append(share)
    dist = {c: math.fsum(masses) for c, masses in terms.items()}
    return {c: v for c, v in dist.items() if v > 0.0}, math.fsum(missed)


def weighted_channel(n, errors, rng):
    """The listed (x, z) errors, each more than once, with uneven probabilities
    that sum to 0.9: the identity keeps the rest."""
    listed = [PauliOp(n, x, z) for x, z in errors] * 2
    weights = [rng.random() for _ in listed]
    total = sum(weights)
    return ExplicitChannel(n, tuple((e, 0.9 * wt / total) for e, wt in zip(listed, weights)))


@pytest.mark.parametrize("name,max_weight", [
    ("table1-7q", 1), ("table2-6q", 1), ("css17", 1), ("compact:4", 1),
    ("eq16-lattice:4x4", 1), ("rep:9", 2), ("toric:3", 1)])
def test_grouped_spread_matches_per_error_spread_on_catalog_codes(name, max_weight):
    cc = catalog.resolve(name)
    code = cc.code
    table = build_recovery(check_general_qet(code, cc.admissible, ErrorBall(code.n, max_weight)))
    # the verified errors and, uncovered, errors one weight past them
    errors = errors_up_to_weight(code.n, max_weight + 1)
    for model in (uniform_single_error_channel(code.n),
                  weighted_channel(code.n, errors[1:200], random.Random(name))):
        assert class_distribution(code, table, model) == per_error_distribution(code, table, model)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), w=st.integers(1, 2),
       density=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_grouped_spread_matches_per_error_spread(n, k, w, density, seed, data):
    k = min(k, n - 1)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    errors = errors_up_to_weight(n, w)
    errors = rng.sample(errors, rng.randint(1, len(errors)))
    adm = AdmissibleSet(k, frozenset(
        [0, *(c for c in range(1, 1 << (2 * k)) if rng.random() < density)]))
    verdict = check_general_qet(code, adm, errors)
    if not verdict.passed:  # one error per syndrome always passes
        errors = list({code.syndrome_bits(x, z): (x, z) for x, z in errors}.values())
        verdict = check_general_qet(code, adm, errors)
    table = build_recovery(verdict)
    for model in (data.draw(explicit_channels(n, w)),
                  weighted_channel(n, errors_up_to_weight(n, min(w + 1, n)), rng)):
        assert class_distribution(code, table, model) == per_error_distribution(code, table, model)


# -- per-member depolarizing sums ------------------------------------------------------
#
# Copied from class_distribution's depolarizing sum as it was when each kept
# member's mass was listed on its own, before the members were tallied.


def per_member_distribution(code, table, model):
    n, k, p = model.n, code.k, model.p
    by_weight = [(p / 3) ** w * (1.0 - p) ** (n - w) for w in range(n + 1)]
    support, entries = table.support, table.entries
    if isinstance(support, ErrorBall):
        rest = [math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(support.w + 1)]
    else:
        rest = [by_weight[(x | z).bit_count()] for x, z in support]
    uncovered = 0.0 if len(support) == 4 ** n else max(0.0, 1.0 - math.fsum(rest))
    r, mask, class_mask = _member_fields(n, k)
    shared, terms = {}, {}
    for m in entries.members:
        syn, diff, weight = m & mask, m >> r & class_mask, support_weight(n, m >> (n + k))
        diffs = shared.get(syn)
        if diffs is None:
            rx, rz = entries[syn].reference
            diffs = shared[syn] = {0: [by_weight[(rx | rz).bit_count()]]}
        diffs.setdefault(diff, []).append(by_weight[weight])

    def spread(mass, options, base):
        share = mass * (1.0 / len(options))
        for o in options:
            terms.setdefault(o ^ base, []).append(share)
    for syn, diffs in shared.items():
        for diff, masses in diffs.items():
            rest += [-m for m in masses]
            spread(math.fsum(masses), entries[syn].options, diff)
    if len(shared) < len(entries):
        spread(math.fsum(rest), entries.every, 0)
    dist = {c: math.fsum(masses) for c, masses in terms.items()}
    return {c: v for c, v in dist.items() if v > 0.0}, uncovered


@functools.lru_cache(maxsize=None)
def catalog_table(name, w, lift_share):
    """(code, recovery table) of a catalog code's ball of radius w; with
    `lift_share`, `colliding` may find any share of the ball, so a CSS ball
    leaves out its lone errors. A toric code takes the every-class set: its
    own set fails at w = 2."""
    cc = catalog.resolve(name)
    adm = AdmissibleSet.full(cc.code.k) if name.startswith("toric") else cc.admissible
    share = pauli._DENSE_SHARE
    pauli._DENSE_SHARE = float("inf") if lift_share else share
    try:
        verdict = check_general_qet(cc.code, adm, ErrorBall(cc.code.n, w))
    finally:
        pauli._DENSE_SHARE = share
    return cc.code, build_recovery(verdict)


# rep:n passes up to w = (n - 1) // 2, which is n // 2 for odd n
CATALOG_BALLS = ([(f"rep:{n}", w, False) for n in range(3, 12) for w in range(1, (n + 1) // 2)]
                 + [("toric:4", 2, True), ("toric:3", 2, False), ("css17", 2, False)])


@settings(max_examples=150, deadline=None)
@given(ball=st.sampled_from(CATALOG_BALLS),
       p=st.one_of(st.sampled_from([0.0, 1e-320, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_depolarizing_sum_matches_per_member_reference_on_catalog_balls(ball, p):
    # dense rep:n balls, whose members are most of the ball; toric:4 at
    # w = 2 leaves its lone errors out; on toric:3 and css17 too many
    # weight-2 errors collide, so the whole ball is walked. Every float is
    # compared with ==.
    code, table = catalog_table(*ball)
    assert (table.entries._lone is not None) == ball[2]
    model = DepolarizingChannel(code.n, p)
    assert class_distribution(code, table, model) == per_member_distribution(code, table, model)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), w=st.integers(1, 3), group=st.booleans(),
       ball=st.booleans(), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_depolarizing_sum_matches_per_member_reference(n, k, w, group, ball, p, seed):
    # random codes, mostly not CSS, so each ball is walked whole; a shuffled
    # list support takes the uncovered mass from its errors' weights
    k, w = min(k, n - 1), min(w, n)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    classes = {0}
    for c in range(1, 1 << (2 * k)):
        if rng.random() < 0.5:
            classes |= {a ^ c for a in classes} if group else {c}
    adm = AdmissibleSet(k, frozenset(classes))
    everything = list(ErrorBall(n, w))
    support = ErrorBall(n, w) if ball else rng.sample(everything, rng.randint(1, len(everything)))
    verdict = check_general_qet(code, adm, support)
    if not verdict.passed:  # one error per syndrome always passes
        support = list({code.syndrome_bits(x, z): (x, z) for x, z in everything}.values())
        verdict = check_general_qet(code, adm, support)
    table = build_recovery(verdict)
    model = DepolarizingChannel(n, p)
    assert class_distribution(code, table, model) == per_member_distribution(code, table, model)


def test_rep9_distribution_holds_no_float_per_member():
    # The w <= 4 ball keeps 12,570 members; listing two floats for each
    # peaked at 628 KB. The tally by (syndrome, class difference, weight)
    # has 871 keys.
    code, table = catalog_table("rep:9", 4, False)
    assert len(table.entries.members) == 12_570
    assert len(table.entries.member_tally()) == 871
    model = DepolarizingChannel(9, 0.01)
    tracemalloc.start()
    try:
        class_distribution(code, table, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250 * 1024, peak


@pytest.mark.parametrize("name,model", [
    ("toric:3", DepolarizingChannel(18, 0.0)),
    ("toric:3", DepolarizingChannel(18, 1e-320)),
    ("table1-7q", DepolarizingChannel(7, 1.0)),  # every trial weighs 7 > 1: uncovered
    ("inner-5q", ExplicitChannel(5, ((parse_pauli("XIIII"), 1.0),))),
])
def test_forced_outcomes_match_reference(name, model):
    # toric:3 and inner-5q have one option per bucket
    cc = catalog.resolve(name)
    table = recovery_for(cc.code, cc.admissible)
    assert len(trial_results(cc.code, table, model)) == 1
    for count in (1, 777, 20_000):
        got = run_trials(cc.code, table, model, count, 7)
        want = reference_run_chunk(cc.code, table, model, count, 7)
        assert got.render(cc.code.k) == want.render(cc.code.k)


def all_classes_code():
    """A random [[6,3]] code with every logical class admissible: each
    bucket keeps all 64 options."""
    code = standard_form(sample_generators(6, 3, random.Random(0)))
    return code, AdmissibleSet(3, frozenset(range(64)))


@pytest.mark.parametrize("name,max_weight,model", [
    ("table1-7q", 1, "uniform1"),  # 2 options per bucket
    ("table2-6q", 1, "skewed"),  # 2 or 3, with an uncovered error
    ("css17", 2, "depol:0.03"),  # 2 or 3
    ("eq16-lattice:4x4", 1, "uniform1"),  # 2 or 17
    ("compact:4", 1, "depol:0.05"),  # 1, 2 or 17
    ("[[6,3]]", 1, "depol:0.1"),  # 64
])
def test_tallies_match_exact_distribution(name, max_weight, model):
    # Pearson's statistic over the classes and the uncovered count, at 99.9%,
    # for run_trials and for the per-trial reference; a depolarizing run is
    # held to the channel written out as an explicit one.
    if name == "[[6,3]]":
        code, adm = all_classes_code()
    else:
        cc = catalog.resolve(name)
        code, adm = cc.code, cc.admissible
    n, trials = code.n, 40_000
    table = recovery_for(code, adm, max_weight)
    if model == "uniform1":
        sampled = uniform_single_error_channel(n)
        exact, uncovered = class_distribution(code, table, sampled)
    elif model == "skewed":
        sampled = ExplicitChannel(n, tuple(
            (parse_pauli(e), p) for e, p in (("XIIIII", 0.3), ("IIZIII", 0.05),
                                             ("IIIIIY", 0.15), ("XXIIII", 0.1))))
        exact, uncovered = class_distribution(code, table, sampled)
    else:
        sampled = DepolarizingChannel(n, float(model.split(":")[1]))
        exact, uncovered = depolarizing_listing(code, table, sampled.p)
    keys = sorted(exact)
    expected = [trials * exact[c] for c in keys] + [trials * uncovered]
    for rep in (run_trials(code, table, sampled, trials=trials, seed=29),
                reference_run_chunk(code, table, sampled, trials, 29)):
        assert rep.class_counts.keys() <= exact.keys()
        if not uncovered:
            assert rep.uncovered == 0
        observed = [rep.class_counts.get(c, 0) for c in keys] + [rep.uncovered]
        stat, bins = chi_square(observed, expected)
        assert chi_square_sf(stat, bins - 1) > 1e-3, (observed, expected)


def test_option_draws_are_uniform_for_every_option_count():
    # Every trial is the identity, whose bucket keeps m options, for each m
    # from 2 to 2^(2k) = 64. The runs are independent, so their Pearson
    # statistics add up to one chi-square over the summed degrees of freedom.
    code, _ = all_classes_code()
    model = ExplicitChannel(6, ())
    stat = dof = 0
    for m in range(2, 65):
        table = build_recovery(check_general_qet(code, AdmissibleSet(3, frozenset(range(m))),
                                                 [(0, 0)]))
        rep = run_trials(code, table, model, trials=100 * m, seed=m)
        assert sorted(rep.class_counts) == list(range(m))
        s, bins = chi_square(list(rep.class_counts.values()), [100] * m)
        stat, dof = stat + s, dof + bins - 1
    assert chi_square_sf(stat, dof) > 1e-3, stat


# -- the primitives ---------------------------------------------------------------


def binomial_pmf(n, p):
    return [math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                     + j * math.log(p) + (n - j) * math.log1p(-p)) for j in range(n + 1)]


@pytest.mark.parametrize("n,p", [
    (40, 0.1), (12, 0.5), (30, 0.8),  # inversion, the last by symmetry
    (60, 0.25), (500, 0.3), (2000, 0.97),  # BTRS, the last by symmetry
])
def test_binomial_matches_its_pmf(n, p):
    rng = random.Random(f"binomial:{n}:{p}")
    draws = 20_000
    hist = [0] * (n + 1)
    for _ in range(draws):
        hist[channel._binomial(rng, n, p)] += 1
    stat, bins = chi_square(hist, [draws * q for q in binomial_pmf(n, p)])
    assert chi_square_sf(stat, bins - 1) > 1e-3, hist


def test_binomial_edge_values():
    rng = random.Random("edges")
    for n in (0, 1, 7, 10 ** 6):
        assert channel._binomial(rng, n, 0.0) == 0
        assert channel._binomial(rng, n, 1.0) == n
        for tiny in (5e-324, 1e-320):  # 1 - p rounds to 1: no draw at all
            state = rng.getstate()
            assert channel._binomial(rng, n, tiny) == 0
            assert rng.getstate() == state or n == 1
    for p in (0.3, 0.7):
        assert channel._binomial(rng, 0, p) == 0
    for s in range(50):  # n = 1 is one comparison
        assert channel._binomial(random.Random(s), 1, 0.4) == (random.Random(s).random() < 0.4)
    for n, p in ((-1, 0.5), (3, -0.1), (3, 1.5)):
        with pytest.raises(ValueError):
            channel._binomial(rng, n, p)


class CountingRandom(random.Random):
    """A generator that counts the numbers drawn from it."""

    draws = 0

    def random(self):
        CountingRandom.draws += 1
        return super().random()

    def getrandbits(self, k):
        CountingRandom.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("model", [uniform_single_error_channel(7), DepolarizingChannel(7, 0.05)],
                         ids=["uniform1", "depol:0.05"])
def test_chunk_cost_grows_with_outcomes_not_trials(table1, model, monkeypatch):
    # Drawn trial by trial, 20 times the trials took about 20 times the draws;
    # drawn in 20,000-trial chunks, 50 times the trials took 50 times the draws.
    table = recovery_for(table1, catalog.resolve("table1-7q").admissible)
    monkeypatch.setattr(channel, "random", SimpleNamespace(Random=CountingRandom))
    draws = {}
    for count in (20_000, 10 ** 6):
        CountingRandom.draws = 0
        run_trials(table1, table, model, count, 5)
        draws["run_trials", count] = CountingRandom.draws
    assert draws["run_trials", 10 ** 6] < 2 * draws["run_trials", 20_000], draws


def corrupted(code, table, syn):
    """`table` with the reference of syndrome syn's bucket swapped for an
    error of another syndrome, built through the check's own mapping with
    every reference packed as class | support code << 2k, as the check
    keeps them."""
    n, k = code.n, code.k
    bad = next(f for f in errors_up_to_weight(n, 1)[1:]
               if code.syndrome_bits(*f) != syn)
    pi = table.entries
    refs = {s: bad if s == syn else b.reference for s, b in pi.items()}
    entries = PiMaps({s: code.class_bits(x, z) | support_code(n, x, z) << 2 * k
                      for s, (x, z) in refs.items()},
                     {s: b.options for s, b in pi.items()}, pi.every, pi.members, n, k)
    return RecoveryTable(entries=entries, support=table.support)


@pytest.mark.parametrize("model", [
    ExplicitChannel(7, ((parse_pauli("XIIIIII"), 1.0),)),
    DepolarizingChannel(7, 0.1),
])
def test_corrupt_table_is_refused(table1, model):
    # The explicit channel's one error, and for depolarizing noise the first
    # bucket whose reference is applied to another error.
    table = recovery_for(table1, PHASE1)
    if isinstance(model, ExplicitChannel):
        e = model.errors[0][0]
        syn = table1.syndrome_bits(e.x, e.z)
    else:
        syn = table.entries.members[0] & table1._syn_mask  # the first member's syndrome
    table = corrupted(table1, table, syn)
    with pytest.raises(AssertionError, match="nonzero syndrome; table is corrupt"):
        run_trials(table1, table, model, trials=2000, seed=3)
