"""Seeded benchmark for pmat; one workload per process, single-threaded.

    python3 bench/run.py --workload relations-ntt --seed 1 --seconds 30 --trace 0

Every timing is scaled to a fixed machine speed.  The speed is measured
with refpmat, a frozen copy of the library kept with the benchmark: each
pmat call is timed next to the same call on refpmat, and each set-up next
to refpmat's set-up.  A call is reported as its time over its refpmat
twin's, times the instance's nominal time in REF_CALL_S.  The shared
machine's speed drifts by half within minutes; the ratios do not.

Set-up (import, instance generation, warm-up) is timed in fresh child
processes and reported as the median.  A first pass of pmat alone is not
timed; peak memory is read after it, before refpmat is loaded.  Then whole
passes over the workload's instance list run until the next pass would end
after --seconds.  Every output's canonical text is checked against a
stored, audited digest, or audited on the spot when the seed has none
stored.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, without refpmat, and prints the per-layer metrics; the
traced names are rebound only for the duration of a traced pass, and every
binding is checked to be the library's own function before and after every
untraced pass.  The last line of standard output is the result object; the line
before it is a record of the run's provenance and details.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import audit
import workloads
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
SETUP_SAMPLES = 5  # fresh child processes
# refpmat's median seconds per call, instance by instance, and per set-up,
# on the machine the benchmark was written on; they set the scale of the
# reported times and nothing else
REF_CALL_S = {
    "relations-ntt": (0.5, 0.85, 0.7),
    "relations-word": (0.65, 0.8, 1.0),
    "forms-division": (0.3, 0.12, 0.12, 0.43, 0.43, 0.43, 0.85),
}
REF_SETUP_S = {"relations-ntt": 0.35, "relations-word": 0.4,
               "forms-division": 0.09}
HELD_OUT_SEED = 1009  # a gain claimed on other seeds must also hold here
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SetupError(Exception):
    pass


def pin_threads():
    """One thread for numpy and every BLAS pool; children inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_lib(name):
    """Import pmat from this checkout's src/, or refpmat from bench/, and
    from nowhere else."""
    base = SRC if name == "pmat" else BENCH_DIR
    pkg_dir = os.path.join(base, name)
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        raise SetupError("no %s sources under %s" % (name, base))
    if base not in sys.path:
        sys.path.insert(0, base)
    lib = importlib.import_module(name)
    if os.path.dirname(os.path.abspath(lib.__file__)) != pkg_dir:
        raise SetupError("imported %s from %s, not %s"
                         % (name, lib.__file__, pkg_dir))
    return lib


def setup(workload, seed, name="pmat"):
    """Import, generate and warm up; returns (library, instances, seconds)."""
    t0 = perf_counter()
    lib = load_lib(name)
    insts = [workloads.prepare(lib, inst)
             for inst in workloads.instances(workload, seed)]
    for inst in workloads.warmup_instances(workload):
        workloads.call(lib, workloads.prepare(lib, inst))
    return lib, insts, perf_counter() - t0


def child_setup_seconds(workload, seed):
    """(pmat, refpmat) set-up seconds, taken in a fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    times = json.loads(done.stdout.splitlines()[-1])
    return times["pmat_s"], times["refpmat_s"]


def timed_call(lib, inst):
    """(seconds, output) of one call; a call that raises gives None."""
    t0 = perf_counter()
    try:
        out = workloads.call(lib, inst)
    except Exception:  # counted as a failed call, the run goes on
        traceback.print_exc()
        out = None
    return perf_counter() - t0, out


def run_pass(pm, insts):
    """One pass over the instance list: (pass seconds, per-call seconds,
    outputs)."""
    start = perf_counter()
    times, outs = zip(*(timed_call(pm, inst) for inst in insts))
    return perf_counter() - start, list(times), list(outs)


def texts_of(pm, outs):
    return [None if o is None else workloads.canonical_texts(pm, o)
            for o in outs]


def digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def measure_traced(pm, insts, tracer, seconds):
    """Rounds of one untraced and one traced pass, until the next round
    would end after `seconds`."""
    passes = []
    start = perf_counter()
    while True:
        tracer.assert_pristine()
        pass_s, call_s, outs = run_pass(pm, insts)
        tracer.assert_pristine()
        passes.append({"traced": False, "pass_s": pass_s, "call_s": call_s,
                       "texts": texts_of(pm, outs)})
        tracer.install()
        try:
            pass_s, call_s, outs = run_pass(pm, insts)
        finally:
            tracer.uninstall()
        passes.append({"traced": True, "pass_s": pass_s, "call_s": call_s,
                       "texts": texts_of(pm, outs),
                       "stats": {k: list(v)
                                 for k, v in tracer.stats.items()}})
        per_round = sum(statistics.median(p["pass_s"] for p in passes
                                          if p["traced"] == kind)
                        for kind in (False, True))
        if perf_counter() - start + per_round > seconds:
            return passes


def measure_scaled(pm, insts, args):
    """A first, untimed pass of pmat alone, after which peak memory is
    read, so that it is pmat's; then refpmat is loaded, and passes of the
    pmat calls, each timed next to the same call on refpmat, run until the
    next pass would end after --seconds.  The library that goes first in a
    pair alternates.  Returns (first pass, timed passes, peak RSS in MiB).
    """
    outs = [timed_call(pm, inst)[1] for inst in insts]
    first = {"texts": texts_of(pm, outs)}
    # peak memory of set-up and a pass only, before refpmat or any audit
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref, ref_insts, _ = setup(args.workload, args.seed, "refpmat")
    passes = []
    start = perf_counter()
    while True:
        cur_s, ref_s, outs = [], [], []
        for k, (inst, ref_inst) in enumerate(zip(insts, ref_insts)):
            ref_first = (len(passes) + k) % 2
            if ref_first:
                ref_s.append(timed_call(ref, ref_inst)[0])
            t, out = timed_call(pm, inst)
            if not ref_first:
                ref_s.append(timed_call(ref, ref_inst)[0])
            cur_s.append(t)
            outs.append(out)
        passes.append({"call_s": cur_s, "ref_call_s": ref_s,
                       "texts": texts_of(pm, outs)})
        per_pass = statistics.median(sum(p["call_s"]) + sum(p["ref_call_s"])
                                     for p in passes)
        if perf_counter() - start + per_pass > args.seconds:
            return first, passes, rss_mib


def expected_digests(workload, seed, insts, first_texts):
    """Stored digests for the seed, else digests of the first pass's
    outputs that pass the audit.  The audit's oracles are refpmat's, so
    that no change to src/pmat can loosen it.  Returns (digests, audit
    names, source)."""
    with open(REFERENCES, encoding="utf-8") as fh:
        stored = json.load(fh)["workloads"][workload].get(str(seed))
    if stored is not None:
        return stored["digests"], stored["audits"], "stored"
    digests, names = [], []
    for inst, texts in zip(insts, first_texts):
        if texts is None:
            digests.append(None)
            names.append("call raised")
            continue
        try:
            names.append(audit.audit(load_lib("refpmat"), inst, texts))
            digests.append(digest(texts))
        except audit.AuditError as exc:
            print("audit failed on %s %s: %s" % (inst.entry, inst.label, exc),
                  file=sys.stderr)
            digests.append(None)
            names.append("failed: %s" % exc)
    return digests, names, "audited in this run"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_info():
    """Line count and content hash of src/pmat (the hash identifies the
    code also where the checkout is not a git repository)."""
    pkg_dir = os.path.join(SRC, "pmat")
    h = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return lines, h.hexdigest()


def scaled_calls(workload, passes):
    """Each pmat call's seconds at the reference speed, as one list per
    instance: the call's time over its refpmat twin's time, times the
    instance's REF_CALL_S."""
    cur_by_inst = zip(*(p["call_s"] for p in passes))
    ref_by_inst = zip(*(p["ref_call_s"] for p in passes))
    return [[c / r * nominal for c, r in zip(cur, ref)]
            for cur, ref, nominal in zip(cur_by_inst, ref_by_inst,
                                         REF_CALL_S[workload], strict=True)]


def end_to_end_metrics(workload, passes, setup_samples, rss_mib):
    calls = scaled_calls(workload, passes)
    setups = [REF_SETUP_S[workload] * cur / ref for cur, ref in setup_samples]
    return {
        "wall_s": (sum(statistics.median(ts) for ts in calls), "s"),
        "latency_s_p50": (statistics.median(t for ts in calls for t in ts),
                          "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


def per_layer_metrics(passes, labels):
    traced = [p for p in passes if p["traced"]]
    first = traced[0]["stats"]
    out = {}
    for label in labels:
        out[label + ".calls"] = (first[label][0], "count")
        out[label + ".self_s"] = (
            statistics.median(p["stats"][label][1] for p in traced), "s")
    out["poly.mul_coeffs.coeff_products"] = (first["poly.mul_coeffs"][2],
                                             "count")
    out["ntt.matmul_ntt.points"] = (first["ntt.matmul_ntt"][2], "count")
    out["relations.relations_mod_hermite.max_depth"] = (
        first["relations.relations_mod_hermite"][2], "count")
    out["trace.coverage"] = (statistics.median(
        sum(s[1] for s in p["stats"].values()) / p["pass_s"]
        for p in traced), "ratio")
    out["trace.overhead"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in passes if not p["traced"]),
        "ratio")
    return out


def counters_repeat(passes):
    """Call counts and counters are equal in every traced pass."""
    counts = [{k: (v[0], v[2]) for k, v in p["stats"].items()}
              for p in passes if p["traced"]]
    return all(c == counts[0] for c in counts)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up of refpmat, then one of pmat, and "
                    "print both (used for the set-up samples taken in fresh "
                    "processes)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    import numpy  # both libraries use it; its import is timed in neither
    try:
        if args.setup_only:
            _, _, ref_s = setup(args.workload, args.seed, "refpmat")
            _, _, cur_s = setup(args.workload, args.seed)
            print(json.dumps({"pmat_s": cur_s, "refpmat_s": ref_s}))
            return 0
        pm, insts, _ = setup(args.workload, args.seed)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    tracer = Tracer(pm)
    if args.trace:
        passes = measure_traced(pm, insts, tracer, args.seconds)
        checked = passes
    else:
        setup_samples = [child_setup_seconds(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES)]
        first, passes, rss_mib = measure_scaled(pm, insts, args)
        checked = [first] + passes
    expected, audits, source = expected_digests(
        args.workload, args.seed, insts, checked[0]["texts"])
    attempted = failed = 0
    for p in checked:
        for texts, want in zip(p["texts"], expected):
            attempted += 1
            if texts is None or want is None or digest(texts) != want:
                failed += 1

    if args.trace:
        metrics = per_layer_metrics(passes, tracer.labels)
        timings = {"passes": [{"traced": p["traced"], "pass_s": p["pass_s"],
                               "call_s": p["call_s"]} for p in passes]}
    else:
        metrics = end_to_end_metrics(args.workload, passes, setup_samples,
                                     rss_mib)
        timings = {
            "passes": [{"call_s": p["call_s"],
                        "refpmat_call_s": p["ref_call_s"]} for p in passes],
            "scaled_call_s": scaled_calls(args.workload, passes),
            "setup_samples_s": [{"pmat_s": cur, "refpmat_s": ref}
                                for cur, ref in setup_samples],
        }
    lines, src_hash = source_info()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_pmat_sha256": src_hash,
        "src_pmat_lines": lines,
        "instances": ["%s %s" % (i.entry, i.label) for i in insts],
        "calls_per_pass": len(insts),
        **timings,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "references": source,
        "audits": audits,
        "traced_bindings": len(tracer.bindings),
    }
    if args.trace:
        record["counters_repeat"] = counters_repeat(passes)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
