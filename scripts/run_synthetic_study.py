#!/usr/bin/env python3
"""End-to-end study on the synthetic benchmark.

Chains every command: data generation, fair/unfair training, audits,
unfair-feature detection, both mitigation methods, the three sweeps, and the
decision-boundary export. All artifacts land under --out; every step reuses
the same base seed.

Full scale takes a few minutes (the sweep commands dominate); pass --fast for
a reduced-size dry run.
"""

import argparse
import sys
from pathlib import Path

from procfair.cli import main as cli


def run(argv):
    print("$ procfair " + " ".join(str(a) for a in argv))
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/study")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true", help="reduced sizes for a quick pass")
    args = parser.parse_args()

    out = Path(args.out)
    seed = ["--seed", args.seed]
    gen = ["--m", 2000, "--n-advantaged", 1200] if args.fast else []
    # sweep-n sets its own pair counts and takes no --n
    sweep_knobs = ["--background", 40, "--permutations", 200] if args.fast else []
    audit_knobs = ["--n", 30, *sweep_knobs] if args.fast else []
    epochs = ["--epochs", 150] if args.fast else []

    run(["gen-data", "--out", out / "data", *gen, *seed])
    data = ["--data", out / "data" / "synthetic.csv", "--schema", out / "data" / "synthetic.schema.json"]

    run(["train", *data, "--out", out / "model-unfair", *epochs, *seed])
    run(["train", *data, "--out", out / "model-fair", "--features", "x1,x2", *epochs, *seed])
    unfair = ["--model", out / "model-unfair" / "model.json"]
    fair = ["--model", out / "model-fair" / "model.json"]

    run(["audit", *data, *unfair, "--out", out / "audit-unfair", *audit_knobs, *seed])
    run(["audit", *data, *fair, "--out", out / "audit-fair", *audit_knobs, *seed])
    run(["detect", *data, *unfair, "--out", out / "detect", *audit_knobs, *seed])
    run(["mitigate", "retrain", *data, *unfair, "--out", out / "mitigate-retrain", *audit_knobs, *seed])
    tau = ["--tau", 60] if args.fast else []
    run(["mitigate", "modify", *data, *unfair, "--out", out / "mitigate-modify", *audit_knobs, *tau, *seed])

    sweep_scale = ["--points", 10, "--seeds", 3] if args.fast else ["--points", 50, "--seeds", 10]
    run(["sweep-ws", *data, "--out", out / "sweep-ws", *sweep_scale, *audit_knobs, *epochs, *seed])
    n_values = ["--n-values", "10,20,50"] if args.fast else ["--n-values", "10,20,50,100,200,500"]
    sweep_seeds = ["--seeds", 3] if args.fast else ["--seeds", 10]
    run(["sweep-n", *data, *fair, "--out", out / "sweep-n-fair", *n_values, *sweep_seeds, *sweep_knobs, *seed])
    run(["sweep-n", *data, *unfair, "--out", out / "sweep-n-unfair", *n_values, *sweep_seeds, *sweep_knobs, *seed])
    pools = ["--pool-sizes", "100,400,1600"] if args.fast else ["--pool-sizes", "300,1000,3000,8000"]
    run(["sweep-pool", *data, *fair, "--out", out / "sweep-pool", *pools, *sweep_seeds, *audit_knobs, *seed])

    run(
        [
            "boundary", *data, *unfair,
            "--modified", out / "mitigate-modify" / "model_modified.json",
            "--retrained", out / "mitigate-retrain" / "model_retrained.json",
            "--out", out / "boundary", *seed,
        ]
    )
    print(f"study complete; artifacts under {out}")


if __name__ == "__main__":
    main()
