"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads denoise,restore_sr,train_rgb]
        [--seeds 1-10] [--trace] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, for
the ``run_seconds`` of BENCHMARK.json. For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, beside the metric's bound. With ``--trace`` it runs the
traced mode and also checks that every count is identical across the runs.
``--out`` writes every run's values and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{proc.stderr}")
    return result, [line for line in lines if line.startswith("machine ")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="denoise,restore_sr,train_rgb")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
              "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, machine = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result["metrics"])
            report.setdefault("machine", machine)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace or k.startswith("trace.")), flush=True)
        summary = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"unit": runs[0][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            if runs[0][name]["unit"] == "count":
                if len(set(values)) != 1:
                    print(f"  COUNT {name} differs between runs: {values}")
                continue
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if bound is None else (
                "  OVER BOUND" if spread > bound else
                "  over a third of the bound" if spread > bound / 3 else "")
            print(f"  {name:40s} median {med:.6g} {summary[name]['unit']}  "
                  f"spread {100 * spread:.2f} %"
                  + ("" if bound is None else f"  bound {100 * bound:.0f} %") + flag)
        report["workloads"][workload] = summary
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
