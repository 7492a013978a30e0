"""Replay preservation of every refinement across random programs."""

import random

from randprog import (
    MAX_CONDITIONALS,
    MAX_LOOPS,
    MAX_STATEMENTS,
    generate_case,
)

from tracesynth import dsl
from tracesynth.evaluator import check_psi, default_retry_bound
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import RewriteContext, enumerate_rewrites
from tracesynth.traces import ValuationError

N_CASES = 1000


def structure_counts(body):
    conds = loops = 0
    stack = [body]
    while stack:
        seq = stack.pop()
        for ins in seq:
            if isinstance(ins, dsl.Ite):
                conds += 1
                stack.extend([ins.then, ins.els])
            elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
                loops += 1
                stack.append(ins.body)
    return conds, loops


def test_generator_respects_structural_budgets():
    for seed in range(200):
        program, _, _ = generate_case(random.Random(seed))
        conds, loops = structure_counts(program.body)
        assert program.n_statements <= MAX_STATEMENTS
        assert conds <= MAX_CONDITIONALS
        assert loops <= MAX_LOOPS


def test_generated_programs_replay_their_own_traces():
    for seed in range(200):
        program, sigma, ts = generate_case(random.Random(seed))
        assert check_psi(program, sigma, ts, default_retry_bound(ts)), seed


def test_refinements_preserve_replay_across_1000_programs():
    failures = []
    applied = 0
    rules_seen = set()
    for seed in range(N_CASES):
        program, sigma, ts = generate_case(random.Random(seed))
        ctx = RewriteContext(ts, ConstraintCache())
        bound = default_retry_bound(ts)
        for rw in enumerate_rewrites(program, sigma, "refine", ctx):
            try:
                sigma2 = rw.transform.apply(sigma)
            except ValuationError:
                continue
            try:
                dsl.validate_program(rw.program)
            except dsl.ProgramError:
                failures.append((seed, rw.rule, rw.site, "invalid program"))
                continue
            if check_psi(rw.program, sigma2, ts, bound):
                applied += 1
                rules_seen.add(rw.rule)
            else:
                failures.append((seed, rw.rule, rw.site, "replay broken"))
    assert not failures, failures[:10]
    assert applied > N_CASES  # the catalog fires broadly, not incidentally
    expected_rules = {
        "pull",
        "push",
        "eliminate_empty_if",
        "invert_empty_then",
        "eliminate_unused_param",
        "inline_trivial_hidden",
        "introduce_parameter",
    }
    assert expected_rules <= rules_seen
