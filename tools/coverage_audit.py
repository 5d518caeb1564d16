#!/usr/bin/env python3
"""Function reachability of src/: which functions the shipped paths reach,
which only tier-1 reaches, and which nothing reaches.

Configure a coverage build, then run this from the repository root:

  cmake -S . -B build-cov -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov
  tools/coverage_audit.py build-cov

It clears the counters, runs the shipped paths (`limsynth repro --check`,
every `limsynth` subcommand and the examples) in a scratch directory
under the build tree, snapshots the counters, runs tier-1 (ctest) and
snapshots again.
A function is one source location in src/: all template instantiations
and inline copies of it count once, whichever target compiled them, and
an inline function that no target instantiates is not counted. Exit codes
are not checked; some runs fail on purpose. It prints, per module, the
functions defined, reached by the shipped paths, reached only by tier-1
and never reached, then lists every function outside the first set.
"""
import collections
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep

CLI = [
    "brick sram8t 16 10 --lib --golden", "brick cam10t 16 10 --golden",
    "brick sram6t 32 8 2", "brick edram 16 8", "sweep 512 16",
    "dse 1024 16 --chips 50 --journal j.jsonl --csv d.csv --jobs 2"
    " --cache-dir store",
    "dse 1024 16 --chips 50 --resume j.jsonl --csv d.csv --cache-dir store",
    "dse 1024 16 --chips 50 --csv d.csv --cache-dir store",  # warm store
    "dse 256 8 --ecc --spares 2 --d0 50 --timeout 300 --seed 3",
    "sram 32 10 1 16", "sram 32 10 1 16 --verilog",
    "sram 32 10 1 16 --report", "sram 32 10 1 16 --svg",
    "simulate 32 10 1 16 --cycles 50 --vcd w.vcd --glitch-report --period 2",
    "simulate 16 10 1 16 --stim s.stim",
    "simulate 32 10 1 16 --cross-check", "simulate 32 10 1 16 --check-sta",
    "seu 64 10 1 16 --ecc --campaign 100 --cycles 30 --workers 2 --seed 7"
    " --journal c.jsonl --report r.txt",
    "seu 64 10 1 16 --ecc --campaign 100 --cycles 30 --workers 2 --seed 7"
    " --resume c.jsonl --report r.txt",
    "seu 64 10 1 16 --campaign 60 --cycles 30 --workers 2 --burst 2"
    " --spares 1",
    "optimize 64 8 300", "optimize 64 8 300 area", "spgemm 6 4",
    "yield 128 10 4 16 --chips 100 --seed 7 --d0 20000 --spares 2 --ecc"
    " --verify-cycles 20",
    "yield 64 8 1 16 --chips 20 --verify-cycles 10",
    "",  # no subcommand: the usage text
    "dse 64 8 --jbos 4",
    "sram 96 8 1 7",  # a failed check: words not a power of two
]
STIMULUS = "cycle 0\nset wen 1\nbus wdata 0x2a\ncycle 3\nset wen 0\n"

EXAMPLES = ["quickstart", "sram_design_space", "spgemm_accelerator",
            "parallel_access_memory", "interpolation_memory"]


def run(cmd, cwd):
    subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def run_shipped(build):
    work = os.path.join(build, "coverage_runs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cli = os.path.join(build, "tools", "limsynth")
    run([cli, "repro", "--check"], ROOT)
    with open(os.path.join(work, "s.stim"), "w") as f:
        f.write(STIMULUS)
    for args in CLI:
        run([cli] + args.split(), work)
    for name in EXAMPLES:
        run([os.path.join(build, "examples", name)], work)


def snapshot(build):
    """(file, line) -> [name, reached] for every function under src/."""
    objs = glob.glob(os.path.join(build, "**", "*.gcno"), recursive=True)
    out = subprocess.run(["gcov", "--json-format", "--stdout"] + objs,
                         cwd=build, capture_output=True, text=True).stdout
    funcs = {}
    for line in out.splitlines():
        for f in json.loads(line)["files"]:
            path = os.path.realpath(os.path.join(build, f["file"]))
            if not path.startswith(SRC):
                continue
            for fn in f["functions"]:
                key = (path[len(SRC):], fn["start_line"])
                entry = funcs.setdefault(key, [fn["demangled_name"], False])
                entry[1] |= fn["execution_count"] > 0
    return funcs


def main():
    build = os.path.abspath(sys.argv[1])
    for gcda in glob.glob(os.path.join(build, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)
    run_shipped(build)
    shipped = snapshot(build)
    run(["ctest", "-j4"], build)
    tier1 = snapshot(build)

    rows = collections.defaultdict(lambda: [0, 0, 0, 0])
    unreached, test_only = [], []
    for key, (name, reached) in sorted(tier1.items()):  # module order
        row = rows[key[0].split(os.sep)[0]]
        row[0] += 1
        if shipped.get(key, [name, False])[1]:
            row[1] += 1
        elif reached:
            row[2] += 1
            test_only.append((key, name))
        else:
            row[3] += 1
            unreached.append((key, name))
    rows["total"] = [sum(r[i] for r in rows.values()) for i in range(4)]
    print(f"{'module':10} {'defined':>8} {'shipped':>8} {'tier-1 only':>12}"
          f" {'never':>6}")
    for module, (n, s, t, u) in rows.items():
        print(f"{module:10} {n:8} {s:8} {t:12} {u:6}")
    for title, items in (("never reached", unreached),
                         ("reached only by tier-1", test_only)):
        print(f"\n{title} ({len(items)}):")
        for (path, line), name in items:
            print(f"  {path}:{line}  {name}")


if __name__ == "__main__":
    main()
