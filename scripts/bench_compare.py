#!/usr/bin/env python3
"""CI regression gate over BENCH_suite.json.

Compares a current bench_suite emission against a checked-in baseline
(bench/suite/baselines/*.json) with per-metric tolerance classes:

  exact   op-kind counts and the churn ledger of op-bound scenarios —
          pure functions of the seed (the suite's determinism contract),
          so any drift is a behavior change, not noise. An op-bound
          baseline row must stay op-bound: a spec switched to a duration
          bound would otherwise silently skip the exact comparison.
  ratio   perf metrics (tps, p99): machines differ, so the gate only
          fails when the current value leaves [min_ratio, max_ratio] x
          baseline. Tiny baselines are floored (see --p99-floor-us) so
          microsecond jitter on near-zero latencies can't flake.
  zero    checks_failed must be 0 in the current run, always — the
          scenarios' own expected-invariant checks are part of the gate.

Exit codes: 0 = gate passed, 1 = usage/io error, 2 = gate violations.

--self-check perturbs an in-memory copy of the baseline (worse tps, a
shifted op count, a dropped op bound, a failed check) and verifies the
gate rejects each perturbation — run by ctest so a silently-vacuous
gate is itself a test failure.
"""

import argparse
import copy
import json
import sys

EXACT_KEYS = [
    "ops_update",
    "ops_insert",
    "ops_delete",
    "ops_query",
    "ops_knn",
    "total_ops",
    "expected_objects",
    "final_objects",
]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(1)


def by_name(doc):
    return {row["name"]: row for row in doc.get("scenarios", [])}


def compare(baseline, current, args):
    """Returns a list of violation strings (empty = gate passed)."""
    violations = []
    base_rows = by_name(baseline)
    cur_rows = by_name(current)

    if baseline.get("smoke") != current.get("smoke"):
        violations.append(
            f"smoke flag differs: baseline {baseline.get('smoke')} vs "
            f"current {current.get('smoke')} (different sizing, counts "
            "cannot compare)"
        )
        return violations

    for name in base_rows:
        if name not in cur_rows:
            violations.append(f"{name}: scenario missing from current run")
    for name in cur_rows:
        if name not in base_rows:
            print(f"bench_compare: note: new scenario '{name}' has no "
                  "baseline yet (not gated)")

    for name, base in sorted(base_rows.items()):
        cur = cur_rows.get(name)
        if cur is None:
            continue

        if cur.get("checks_failed", 0) != 0:
            violations.append(
                f"{name}: {cur['checks_failed']} expected-invariant "
                f"check(s) failed: {cur.get('check_failures')}"
            )

        if base.get("ops_bound") and not cur.get("ops_bound"):
            violations.append(
                f"{name}: baseline is op-bound but the current run is not "
                "(exact-compare metrics cannot be checked)"
            )
        elif base.get("ops_bound"):
            for key in EXACT_KEYS:
                if base.get(key) != cur.get(key):
                    violations.append(
                        f"{name}: {key} drifted: baseline {base.get(key)} "
                        f"!= current {cur.get(key)} (exact-compare metric)"
                    )

        base_tps, cur_tps = base.get("tps", 0.0), cur.get("tps", 0.0)
        if base_tps > 0:
            ratio = cur_tps / base_tps
            if ratio < args.tps_min_ratio:
                violations.append(
                    f"{name}: tps regressed: {cur_tps:.0f} is "
                    f"{ratio:.2f}x baseline {base_tps:.0f} "
                    f"(floor {args.tps_min_ratio}x)"
                )
            elif ratio > args.tps_max_ratio:
                violations.append(
                    f"{name}: tps implausibly high: {cur_tps:.0f} is "
                    f"{ratio:.2f}x baseline {base_tps:.0f} (ceiling "
                    f"{args.tps_max_ratio}x — wrong workload or sizing?)"
                )

        base_p99 = max(base.get("p99_us", 0.0), args.p99_floor_us)
        cur_p99 = cur.get("p99_us", 0.0)
        if cur_p99 > base_p99 * args.p99_max_ratio:
            violations.append(
                f"{name}: p99 regressed: {cur_p99:.1f}us vs floored "
                f"baseline {base_p99:.1f}us (ceiling {args.p99_max_ratio}x)"
            )

    return violations


def self_check(baseline, args):
    """The gate must reject each canonical perturbation."""
    failures = []

    def expect_violation(tag, perturb):
        doc = copy.deepcopy(baseline)
        perturb(doc)
        if not compare(baseline, doc, args):
            failures.append(tag)

    rows = baseline.get("scenarios", [])
    if not rows:
        print("bench_compare: self-check needs a non-empty baseline",
              file=sys.stderr)
        return 1

    expect_violation(
        "tps-collapse",
        lambda d: d["scenarios"][0].update(
            tps=d["scenarios"][0]["tps"] / 100.0),
    )
    expect_violation(
        "p99-blowup",
        lambda d: d["scenarios"][0].update(
            p99_us=(d["scenarios"][0]["p99_us"] + args.p99_floor_us)
            * args.p99_max_ratio * 10),
    )
    ops_bound = [r for r in rows if r.get("ops_bound")]
    if ops_bound:
        expect_violation(
            "op-count-drift",
            lambda d: next(r for r in d["scenarios"]
                           if r.get("ops_bound")).update(
                ops_update=ops_bound[0]["ops_update"] + 1),
        )
        expect_violation(
            "ops-bound-dropped",
            lambda d: next(r for r in d["scenarios"]
                           if r.get("ops_bound")).update(ops_bound=False),
        )
    expect_violation(
        "failed-check",
        lambda d: d["scenarios"][-1].update(
            checks_failed=1, check_failures=["synthetic"]),
    )
    expect_violation(
        "missing-scenario",
        lambda d: d["scenarios"].pop(0),
    )

    if compare(baseline, copy.deepcopy(baseline), args):
        failures.append("identity (gate rejected an identical run)")

    if failures:
        print("bench_compare: SELF-CHECK FAILED — gate did not reject: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"bench_compare: self-check ok ({len(rows)} scenarios; every "
          "perturbation rejected, identical run accepted)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in BENCH_suite.json")
    parser.add_argument("current", nargs="?",
                        help="freshly emitted BENCH_suite.json")
    parser.add_argument("--tps-min-ratio", type=float, default=0.2,
                        help="fail below this x baseline tps")
    parser.add_argument("--tps-max-ratio", type=float, default=5.0,
                        help="fail above this x baseline tps")
    parser.add_argument("--p99-max-ratio", type=float, default=10.0,
                        help="fail above this x (floored) baseline p99")
    parser.add_argument("--p99-floor-us", type=float, default=200.0,
                        help="baseline p99 floor before the ratio applies")
    parser.add_argument("--self-check", action="store_true",
                        help="verify the gate rejects perturbed baselines")
    args = parser.parse_args()

    baseline = load(args.baseline)
    if args.self_check:
        sys.exit(self_check(baseline, args))
    if args.current is None:
        parser.error("current JSON required unless --self-check")

    current = load(args.current)
    violations = compare(baseline, current, args)
    if violations:
        print(f"bench_compare: GATE FAILED ({len(violations)} violation"
              f"{'s' if len(violations) != 1 else ''}):", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        sys.exit(2)
    print(f"bench_compare: gate passed "
          f"({len(by_name(baseline))} baseline scenarios)")


if __name__ == "__main__":
    main()
