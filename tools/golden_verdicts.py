#!/usr/bin/env python3
"""Generate the golden verdict table (tests/golden/verdicts.jsonl).

Runs boosting_analyze over a fixed matrix of candidate x (n, f) cells, each
under reductions off/off and auto/auto (--symmetry/--por), and writes one
flat JSON object per cell with the proof artifacts the CLI prints:

  verdict, failed          the verdict word and the failed set ("0,1"; ""
                           when failure-free)
  summary                  the full verdict line
  initializations          the Lemma-4 valences, alpha_0 first
  hook_e, hook_e_prime,    the Lemma-5 hook's committing and diverging
  hook_valences            tasks and its endpoint valences ("" without one)
  classification           the Lemma-8 narrative ("" without a hook)
  states_explored          graph size at the end of the run
  witness_actions,         witness length and the FNV-1a 64 digest of its
  witness_fnv1a            rendered text ("" when there is no witness)
  sym_active, por_active   whether each reduction engaged

The golden_tests ctest re-runs every row in-process, compares it field by
field and replays each witness on a fresh System. Regenerate the table only
when a change is MEANT to alter a verdict or a proof artifact, and say why
in CHANGES.md:

  python3 tools/golden_verdicts.py --analyze build/tools/boosting_analyze \\
      --out tests/golden/verdicts.jsonl
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# (candidate, n, f); each cell runs under both reduction modes. The whole
# table takes well under a minute in an optimized build.
CELLS = [
    ("relay", 2, 0), ("relay", 3, 1), ("relay", 4, 1), ("relay", 4, 2),
    ("relay", 5, 1), ("relay", 5, 2), ("relay", 6, 1),
    ("bridge", 3, 1), ("bridge", 4, 1), ("bridge", 4, 2), ("bridge", 5, 1),
    ("tob", 2, 0), ("tob", 3, 0), ("tob", 3, 1),
    ("flooding", 3, 0), ("flooding", 3, 1),
    ("single-fd", 2, 0), ("single-fd", 3, 0), ("single-fd", 3, 1),
]
MODES = ["off", "auto"]

HOOK_RE = re.compile(
    r"^hook \(Lemma 5\): alpha=n\d+, e=(.*), e'=(.*) -> (\S+) / (\S+)$")
STATES_RE = re.compile(r"^states explored: (\d+); witness: (\d+) actions$")
SUMMARY_RE = re.compile(
    r"^(SAFETY VIOLATION|TERMINATION VIOLATION|INCONCLUSIVE) -- .*"
    r" \[(?:failure-free|failed: \{([0-9,]*)\})\]$")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def run_cell(analyze, candidate, n, f, mode, tmp):
    witness = os.path.join(tmp, "witness.txt")
    if os.path.exists(witness):
        os.remove(witness)
    args = [analyze, "--candidate", candidate, "--n", str(n), "--f", str(f),
            "--symmetry", mode, "--por", mode, "--witness", witness]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):
        sys.exit("%s failed (rc %d):\n%s" % (" ".join(args), proc.returncode,
                                             proc.stderr))
    row = {"candidate": candidate, "n": n, "f": f, "claim": f + 1,
           "symmetry": mode, "por": mode, "hook_e": "", "hook_e_prime": "",
           "hook_valences": "", "classification": "", "witness_fnv1a": "",
           "sym_active": False, "por_active": False}
    inits = []
    for line in proc.stdout.splitlines():
        m = re.match(r"^  alpha_(\d+): (\S+)$", line)
        if m:
            inits.append(m.group(2))
            continue
        m = HOOK_RE.match(line)
        if m:
            row["hook_e"], row["hook_e_prime"] = m.group(1), m.group(2)
            row["hook_valences"] = m.group(3) + "/" + m.group(4)
            continue
        if line.startswith("classification (Lemma 8): "):
            row["classification"] = line[len("classification (Lemma 8): "):]
            continue
        m = SUMMARY_RE.match(line)
        if m:
            row["verdict"] = m.group(1)
            row["failed"] = m.group(2) or ""
            row["summary"] = line
            continue
        m = STATES_RE.match(line)
        if m:
            row["states_explored"] = int(m.group(1))
            row["witness_actions"] = int(m.group(2))
            continue
        if line.startswith("symmetry: quotient active"):
            row["sym_active"] = True
        elif line.startswith("por: ample sets active"):
            row["por_active"] = True
    row["initializations"] = ",".join(inits)
    for key in ("verdict", "summary", "states_explored"):
        if key not in row:
            sys.exit("%s: no '%s' in the output:\n%s" % (" ".join(args), key,
                                                         proc.stdout))
    if row["witness_actions"] > 0:
        with open(witness, "rb") as fh:
            row["witness_fnv1a"] = fnv1a64(fh.read())
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--analyze", required=True, help="boosting_analyze binary")
    ap.add_argument("--out", required=True, help="output JSONL path")
    opts = ap.parse_args()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for candidate, n, f in CELLS:
            for mode in MODES:
                rows.append(run_cell(opts.analyze, candidate, n, f, mode, tmp))
                print("%-9s n=%d f=%d %-4s %s, %d states" % (
                    candidate, n, f, mode, rows[-1]["verdict"],
                    rows[-1]["states_explored"]), file=sys.stderr)
    with open(opts.out, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
