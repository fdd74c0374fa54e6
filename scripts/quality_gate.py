#!/usr/bin/env python3
"""Entry-order gate, statistical part: are two hsbp builds equivalent in
distribution? (DESIGN.md §7)

Run from the root of a checkout:

    python3 scripts/quality_gate.py --base OLD/hsbp --head NEW/hsbp

Both binaries run single-threaded (--threads 1, OMP_NUM_THREADS=1) on
the same 400 fresh inputs per shape, drawn from --seed with perfbench's
gen_graph and its workload parameters (perfbench/run.py), in three
shapes, every one of them judged on every run:

  detect  `hsbp detect --algorithm hsbp` on perfbench's detect graphs
  fit     `hsbp fit` of a binary CSR at a 1 MB budget, skeleton 0.2, on
          perfbench's fit_ooc graphs
  asbp    `hsbp detect --algorithm asbp`, the chain serve's refits run,
          on perfbench's serve graphs (all vertices)

Each input i runs both binaries with chain seed s_i (the head with
s_i + --head-seed-offset). Per shape the script prints the mean paired
difference head - base in NMI against the planted communities, and in
relative MDL ((MDL_head - MDL_base) / MDL_base), each with a percentile
bootstrap 95 % confidence interval. A shape passes when the NMI interval
lies inside +-0.01 and the MDL interval inside +-0.1 %; the gate passes
when every shape does. The last line of stdout is one JSON object with
every number.

Self-check: an A/A run (--base and --head the same binary, a nonzero
--head-seed-offset) must pass, and a deliberately biased chain must
fail. Only chains that move fits fail it: at beta = 3 the chain is
nearly greedy, so chains with the Hastings correction dropped, with
beta halved or with a proposal skewed toward early slice entries pass
(DESIGN.md §7). It shows that fits stay where they were; the exact
tests (ProposalExact, EntryOrder) show that the transition
probabilities do. Exit status: 0 pass, 1 fail, 2 error (a binary is
not executable, the work directory cannot be made, or a run failed or
gave no partition).
"""

import argparse
import concurrent.futures
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is
import run as perfbench  # noqa: E402  (workload parameters, gen_graph, nmi)

INPUTS = 400  # per shape: fewer let the noisiest shape, fit, fail A/A
NMI_MARGIN = 0.01
MDL_MARGIN = 0.001  # relative: 0.1 %
BOOTSTRAP_REPS = 10000
RUN_TIMEOUT_S = 300


class GateError(Exception):
    """A run that gave no result: the comparison cannot be made."""


def detect_argv(algorithm):
    def argv(graph, out, seed):
        return ["detect", graph, "--algorithm", algorithm, "--runs", "1",
                "--threads", "1", "--seed", str(seed), "--out", out]
    return argv


def fit_argv(graph, out, seed):
    return ["fit", graph, "--memory-budget-mb",
            str(perfbench.FIT_OOC_BUDGET_MB), "--skeleton-frac",
            str(perfbench.FIT_OOC_SKELETON), "--threads", "1", "--seed",
            str(seed), "--json", "--out", out]


SHAPES = {
    "detect": dict(params=perfbench.DETECT, suffix=".mtx",
                   argv=detect_argv("hsbp")),
    "fit": dict(params=perfbench.FIT_OOC, suffix=".el", convert=True,
                argv=fit_argv),
    "asbp": dict(params=dict(perfbench.SERVE,
                             edges=perfbench.SERVE_OUT_DEGREE
                             * perfbench.SERVE["vertices"]),
                 suffix=".mtx", argv=detect_argv("asbp")),
}


def run(argv, cwd):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise GateError("exit %d: %s\n%s" % (done.returncode, " ".join(argv),
                                             done.stderr.strip()[-300:]))
    return done.stdout


def mdl_of(stdout):
    """MDL from `detect`'s summary line or `fit --json`'s object."""
    found = re.search(r"MDL (-?[0-9.]+)", stdout)
    if found:
        return float(found.group(1))
    try:
        return float(json.loads(stdout.strip().splitlines()[-1])["mdl"])
    except (ValueError, KeyError, IndexError) as e:
        raise GateError("no MDL in output: %s" % stdout[-300:]) from e


def one_input(args, bins, shape, index):
    """Runs base and head on input `index` of `shape`; returns
    (NMI difference, relative MDL difference, base NMI, head NMI)."""
    spec = SHAPES[shape]
    seed = perfbench.instance_seed("gate-" + shape, args.seed, index)
    work = tempfile.mkdtemp(prefix="gate-%s-%d-" % (shape, index),
                            dir=args.workdir)
    try:
        graph = os.path.join(work, "g" + spec["suffix"])
        truth_path = os.path.join(work, "g.truth")
        argv = [os.path.join(bins, "gen_graph"), "--seed", str(seed),
                "--graph", graph, "--truth", truth_path, "--p-in",
                str(spec["params"]["p_in"])]
        for key in ("vertices", "communities", "edges", "alpha"):
            argv += ["--" + key, str(spec["params"][key])]
        run(argv, work)
        with open(truth_path) as f:
            truth = [int(line) for line in f]
        if spec.get("convert"):
            csr = os.path.join(work, "g.csr")
            run([args.base, "convert", graph, csr], work)
            graph = csr

        results = []
        for binary, chain_seed in ((args.base, seed),
                                   (args.head, seed + args.head_seed_offset)):
            out = os.path.join(work, "p.tsv")
            stdout = run([binary] + spec["argv"](graph, out, chain_seed), work)
            labels = perfbench.read_assignment(out, len(truth))
            if labels is None:
                raise GateError("%s gave no partition of %s input %d"
                                % (binary, shape, index))
            results.append((perfbench.nmi(truth, labels), mdl_of(stdout)))
        (base_nmi, base_mdl), (head_nmi, head_mdl) = results
        return (head_nmi - base_nmi, (head_mdl - base_mdl) / base_mdl,
                base_nmi, head_nmi)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def mean(values):
    return sum(values) / len(values)


def bootstrap_ci(values, rng):
    """Percentile bootstrap 95 % interval of the mean."""
    n = len(values)
    means = sorted(mean([values[rng.randrange(n)] for _ in range(n)])
                   for _ in range(BOOTSTRAP_REPS))
    return (means[int(0.025 * BOOTSTRAP_REPS)],
            means[int(0.975 * BOOTSTRAP_REPS) - 1])


def judge(shape, rows, seed):
    rng = random.Random(seed)
    d_nmi = [r[0] for r in rows]
    d_mdl = [r[1] for r in rows]
    nmi_ci = bootstrap_ci(d_nmi, rng)
    mdl_ci = bootstrap_ci(d_mdl, rng)
    passed = (-NMI_MARGIN < nmi_ci[0] and nmi_ci[1] < NMI_MARGIN
              and -MDL_MARGIN < mdl_ci[0] and mdl_ci[1] < MDL_MARGIN)
    return dict(shape=shape, inputs=len(rows),
                base_nmi=mean([r[2] for r in rows]),
                head_nmi=mean([r[3] for r in rows]),
                nmi_diff=mean(d_nmi), nmi_ci=list(nmi_ci),
                mdl_rel_diff=mean(d_mdl), mdl_ci=list(mdl_ci),
                passed=passed)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="reference hsbp binary")
    parser.add_argument("--head", required=True, help="hsbp binary to judge")
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the inputs and their chain seeds")
    parser.add_argument("--head-seed-offset", type=int, default=0,
                        help="added to the head's chain seeds (A/A check)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="inputs run side by side")
    parser.add_argument("--workdir", default=None,
                        help="where inputs are written, made if missing "
                        "(default: $TMPDIR)")
    args = parser.parse_args()
    args.base = os.path.abspath(args.base)
    args.head = os.path.abspath(args.head)
    for flag, path in (("--base", args.base), ("--head", args.head)):
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            print("error: %s %s is not an executable file" % (flag, path),
                  file=sys.stderr)
            return 2

    try:
        if args.workdir is not None:
            os.makedirs(args.workdir, exist_ok=True)
        _, bins = perfbench.build(ROOT)
        verdicts = []
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            for shape in SHAPES:
                rows = list(pool.map(
                    lambda i, s=shape: one_input(args, bins, s, i),
                    range(INPUTS)))
                verdict = judge(shape, rows, args.seed)
                verdicts.append(verdict)
                print("%-6s n=%d  NMI %.4f -> %.4f  dNMI %+.4f [%+.4f, %+.4f]"
                      "  dMDL %+.4f%% [%+.4f%%, %+.4f%%]  %s" % (
                          shape, verdict["inputs"], verdict["base_nmi"],
                          verdict["head_nmi"], verdict["nmi_diff"],
                          verdict["nmi_ci"][0], verdict["nmi_ci"][1],
                          100 * verdict["mdl_rel_diff"],
                          100 * verdict["mdl_ci"][0],
                          100 * verdict["mdl_ci"][1],
                          "pass" if verdict["passed"] else "FAIL"),
                      flush=True)
    except (GateError, perfbench.BenchError, subprocess.TimeoutExpired,
            OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

    passed = all(v["passed"] for v in verdicts)
    print(json.dumps(dict(passed=passed, nmi_margin=NMI_MARGIN,
                          mdl_margin=MDL_MARGIN, seed=args.seed,
                          head_seed_offset=args.head_seed_offset,
                          shapes=verdicts)))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
