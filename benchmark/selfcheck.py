"""Summarises `run.sh --selfcheck`: two interleaved sets of runs of the same
code, compared the way a change is compared against its parent.

For every workload and end-to-end metric it prints both medians, both
inter-quartile ranges (`statistics.quantiles(values, n=4)`, as a share of the
median) and how much worse set B's median is than set A's, next to the bound
from BENCHMARK.json. A gap above half its bound means the run is too short
or the bound too tight.
"""

import json
import statistics
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(out_dir, pairs, seconds):
    bench = json.load(open("BENCHMARK.json"))
    print(f"# A/A noise check: {pairs} interleaved pairs, {seconds} s runs\n")
    print("| workload | metric | median A | median B | IQR A | IQR B | B worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {}
        for name in "AB":
            runs = [json.loads(line) for line in open(f"{out_dir}/{workload}_{name}.jsonl")]
            assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{workload}: a run failed"
            sets[name] = runs
        for m in bench["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            widest = max(spread(a), spread(b))
            if abs(worse) > m["bound"] or (m["name"] != "setup_s" and widest > m["bound"]):
                verdict = "FAIL"
                failed = True
            elif abs(worse) > m["bound"] / 2 or widest > m["bound"] / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            print(
                f"| {workload} | {m['name']} ({m['unit']}) | {med_a:.4g} | {med_b:.4g} "
                f"| {spread(a):.1%} | {spread(b):.1%} | {worse:+.1%} | {m['bound']:.0%} | {verdict} |"
            )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3])
