"""Regenerate bench/references.json: audited output digests per seed.

    python3 bench/make_references.py --seeds 0-20,1009

For every instance of every workload at every listed seed, one call's
output is audited (audit.py, with refpmat's oracles) and only then is the
digest of its canonical text stored, along with the name of the audit that
accepted it.  Existing entries for other seeds are kept.
"""

import argparse
import json
import sys

import audit
import run
import workloads


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference(pm, inst):
    texts = workloads.canonical_texts(pm, workloads.call(pm, inst))
    return run.digest(texts), audit.audit(run.load_lib("refpmat"), inst,
                                          texts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    args = ap.parse_args(argv)
    run.pin_threads()
    with open(run.REFERENCES, encoding="utf-8") as fh:
        data = json.load(fh)
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            pm, insts, _ = run.setup(workload, seed)
            refs = [reference(pm, inst) for inst in insts]
            data["workloads"][workload][str(seed)] = {
                "instances": ["%s %s" % (i.entry, i.label) for i in insts],
                "digests": [d for d, _ in refs],
                "audits": [a for _, a in refs],
            }
            print("%s seed %d: %d outputs audited" % (workload, seed,
                                                       len(refs)), flush=True)
            # write after every seed so an interrupted run keeps its work
            with open(run.REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
