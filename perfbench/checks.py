"""Output checks for the benchmark's ``build`` and ``simulate`` ops.

Every function returns a list of problems; an empty list means the output
passed.  The checks recompute what they can from the descriptor with the
library's own bookkeeping (``encoder.achieved_rates`` on the stored plan,
``evaluator.region_*`` on the channel) and compare, so a report whose rates,
verdicts or provenance drift from its descriptor fails.
"""

from __future__ import annotations

import json
import math

TOL = 1e-12


def _close(a, b, tol: float = TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _descriptor_plan(desc: dict):
    from macresolve import encoder

    streams = tuple(encoder.StreamPlan(**s) for s in desc["streams"])
    return encoder.LengthPlan(desc["block_len"], desc["k"], desc["xi"],
                              desc["eps"], desc["delta"], desc["mode"], streams,
                              idealized=desc["idealized"])


def _per_user_rates(desc: dict, per_stream: dict) -> list[float]:
    """Achieved rate of each channel user from the per-stream rates."""
    if desc["mode"] == "case1":
        return [per_stream["x"]["rate_float"],
                per_stream["u"]["rate_float"] + per_stream["v"]["rate_float"]]
    if desc["mode"] == "case2":
        return [per_stream["x"]["rate_float"], per_stream["y"]["rate_float"]]
    per_user = [0.0] * len(desc["user_order"])
    for pos, user in enumerate(desc["user_order"]):
        per_user[user] = per_stream[desc["streams"][pos]["name"]]["rate_float"]
    return per_user


def check_build(rc: int, desc_text: str | None) -> list[str]:
    if rc != 0:
        return [f"build exited {rc}"]
    if desc_text is None:
        return ["build wrote no descriptor.json"]
    try:
        json.loads(desc_text)
    except json.JSONDecodeError as e:
        return [f"descriptor.json is not JSON: {e}"]
    return []


def check_report(report_text: str, desc: dict, spec: dict, mode: str,
                 trials: int | None) -> list[str]:
    """Check one report against its descriptor and channel spec."""
    from macresolve import encoder, evaluator
    from macresolve.probcore import channel_from_json

    try:
        rep = json.loads(report_text)
    except json.JSONDecodeError as e:
        return [f"report.json is not JSON: {e}"]
    problems = []
    if rep.get("mode") != mode:
        problems.append(f"mode is {rep.get('mode')!r}, expected {mode!r}")

    body = {k: v for k, v in desc.items() if k != "config_hash"}
    if rep.get("descriptor_hash") != encoder.descriptor_hash(body):
        problems.append("descriptor_hash does not match descriptor.json")

    rates = encoder.achieved_rates(_descriptor_plan(desc))["per_stream"]
    if set(rep["rates"]) != set(rates):
        problems.append(f"rate streams {sorted(rep['rates'])} != {sorted(rates)}")
    else:
        for name, want in rates.items():
            got = rep["rates"][name]
            if (got["rate"] != str(want["rate"])
                    or got["total_fresh_bits"] != want["total_fresh_bits"]
                    or not _close(got["rate_float"], want["rate_float"])
                    or not _close(got["limit"], want["limit"])):
                problems.append(f"rates of stream {name} differ from the plan")

    ch, dists = channel_from_json(spec)
    if ch.n_users == 2:
        region, case = evaluator.region_2user(ch, dists[0], dists[1])
    else:
        region, case = evaluator.region_multi(ch, dists), "multi"
    per_user = _per_user_rates(desc, rates)
    reg = rep["region"]
    if reg["case"] != case:
        problems.append(f"region case {reg['case']!r}, expected {case!r}")
    if not all(_close(a, b) for a, b in zip(reg["rates_per_user"], per_user)):
        problems.append("region rates_per_user differ from the plan")
    want_verdicts = {}
    for subset, bound in region.constraints.items():
        achieved = sum(per_user[u] for u in subset)
        want_verdicts["+".join(str(u + 1) for u in sorted(subset))] = (
            bound, achieved, achieved >= bound - 1e-9)
    if set(reg["verdicts"]) != set(want_verdicts):
        problems.append("region verdict subsets differ from the constraints")
    else:
        for key, (bound, achieved, ok) in want_verdicts.items():
            got = reg["verdicts"][key]
            if (not _close(got["required"], bound)
                    or not _close(got["achieved"], achieved)
                    or got["satisfied"] != ok):
                problems.append(f"region verdict {key} is wrong")
        if reg["in_region"] != all(v[2] for v in want_verdicts.values()):
            problems.append("region in_region is wrong")

    rows = {r[0]: r for r in rep["metrics"]}
    for name, value, lo, hi, samples, row_mode in rep["metrics"]:
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
        if row_mode == "mc":
            if lo is None or hi is None or not (math.isfinite(lo)
                                                and math.isfinite(hi)):
                problems.append(f"metric {name} has no finite CI")
            elif lo > hi:
                problems.append(f"metric {name} has ci_lo > ci_hi")
            if samples != trials:
                problems.append(f"metric {name} has {samples} samples, "
                                f"expected {trials}")
    if mode == "exhaustive":
        joint = rows.get("joint_output_tv")
        if joint is None:
            problems.append("exhaustive report has no joint_output_tv")
        else:
            for name, row in rows.items():
                if (name.startswith("block") and name.endswith("_output_tv")
                        and row[1] > joint[1] + TOL):
                    problems.append(f"{name} exceeds joint_output_tv")
    return problems


def check_identical(reports: list[str]) -> list[str]:
    if any(r != reports[0] for r in reports[1:]):
        return [f"{len(set(reports))} distinct reports from {len(reports)} "
                "simulate ops of one config"]
    return []


def reference_entry(report_text: str) -> dict:
    """What the stored reference keeps of a report."""
    rep = json.loads(report_text)
    return {"mode": rep["mode"], "metrics": rep["metrics"],
            "rates": {k: v["rate"] for k, v in sorted(rep["rates"].items())}}


def check_reference(report_text: str, ref: dict) -> list[str]:
    """Compare with a stored reference report of the same workload and seed.

    Exact values must agree to 1e-12.  Monte-Carlo point estimates must lie
    within the reference CI width of the reference value, so a deliberate
    change of random streams still passes.
    """
    got = reference_entry(report_text)
    problems = []
    if got["mode"] != ref["mode"] or got["rates"] != ref["rates"]:
        problems.append("mode or rates differ from the reference")
    if [r[0] for r in got["metrics"]] != [r[0] for r in ref["metrics"]]:
        return problems + ["metric names differ from the reference"]
    for (name, value, *_), (_, ref_value, lo, hi, _, row_mode) in zip(
            got["metrics"], ref["metrics"]):
        if row_mode == "mc":
            ok = abs(value - ref_value) <= hi - lo
        else:
            ok = _close(value, ref_value)
        if not ok:
            problems.append(f"metric {name} = {value!r}, reference "
                            f"{ref_value!r}")
    return problems
