"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py                      # 10 seeds, every workload
    python3 bench/prove.py --workloads oracle --seeds 5 --first-seed 11
    python3 bench/prove.py --record bench/results/BENCH_<commit>.json

For every workload and end-to-end metric it prints the median over seeds and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread is
steady below a third of the metric's bound in BENCHMARK.json.  With
`--record` it also makes one traced run per workload (first seed) and writes
every value, with the environment of the runs, to the given file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        correct = True
        for seed in seeds:
            result, info = run(spec["command"], workload, seed, spec["run_seconds"], 0)
            correct &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in values)
                + f"  correct={result['correct']}", flush=True)
        entry = {"correct": correct, "environment": {k: info[k] for k in (
            "nproc", "cpu", "python", "numpy", "commit")}, "end_to_end": {}}
        for name, vals in values.items():
            med, q1, q3, share = spread(vals)
            ok = name == "setup_s" or share < bounds[name] / 3
            steady &= ok
            print(f"{workload:>8} {name:<12} median {med:<10.4g} q1 {q1:<10.4g} q3 {q3:<10.4g} "
                  f"spread {share:.3f} bound {bounds[name]} {'ok' if ok else 'WIDE'}",
                  flush=True)
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": share, "values": vals}
        if args.record:
            traced, _ = run(spec["command"], workload, seeds[0], spec["run_seconds"], 1)
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
