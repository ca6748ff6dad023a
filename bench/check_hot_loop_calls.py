#!/usr/bin/env python3
"""Check that the generated engines' run() loops keep the per-firing token
paths inline.

    python3 bench/check_hot_loop_calls.py [BINARY] [--list]

BINARY defaults to .bench_build/perfbench/perfbench (the perfbench build).
For the StrongArm and XScale `TableEngine<EmittedTables<...>>::run(unsigned
long)` symbols, the script disassembles the function and its `.cold` clone
with objdump and reads every direct call. It fails (exit 1) if either calls
out of line:

  * Engine::retire or Engine::recycle (retirement and token recycling);
  * a TokenStore::insert_* (token entry);
  * any push_back (a list append).

The token lists' cold growth member (PtrList<...>::grow) may be called from
the `.cold` clone only: a call from the hot body means the growth path was
not split off the inlined appends. --list prints every call target with its
count. Exit 2: a tool or a symbol is missing.
"""
import argparse
import collections
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINES = ("StrongArm", "XScale")
FORBIDDEN = (
    ("Engine::retire", re.compile(r"\bEngine::retire\(")),
    ("Engine::recycle", re.compile(r"\bEngine::recycle\(")),
    ("TokenStore::insert_*", re.compile(r"\bTokenStore::insert_")),
    ("push_back", re.compile(r"::push_back\(")),
)
GROW = re.compile(r"\bPtrList<[^>]*>::grow\(")
CALL = re.compile(r"\bcall\s+[0-9a-f]+ <(.*)>\s*$")


def fail(msg, code=2):
    print(f"check_hot_loop_calls: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, stdin=None):
    try:
        return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              check=True).stdout
    except FileNotFoundError:
        fail(f"{cmd[0]} not found")
    except subprocess.CalledProcessError as e:
        fail(f"{' '.join(cmd[:2])} failed: {e.stderr.strip()}")


def run_symbols(binary):
    """{machine: (mangled run symbol, mangled .cold clone or None)}."""
    mangled = [line.split()[-1] for line in run(["nm", "--defined-only", str(binary)]).splitlines()
               if line.strip()]
    demangled = run(["c++filt"], "\n".join(mangled) + "\n").splitlines()
    found = {}
    for m, d in zip(mangled, demangled):
        for machine in MACHINES:
            head = "TableEngine<rcpn::gen::EmittedTables<"
            if head not in d or f"::{machine}::Traits> >::run(unsigned long)" not in d:
                continue
            hot, cold = found.get(machine, (None, None))
            if d.endswith("[clone .cold]"):
                cold = m
            elif d.endswith("::run(unsigned long)"):
                hot = m
            found[machine] = (hot, cold)
    for machine in MACHINES:
        if found.get(machine, (None, None))[0] is None:
            fail(f"{binary}: no TableEngine<EmittedTables<...{machine}::Traits>>::run symbol")
    return found


def calls(binary, symbol):
    """Counter of the demangled call targets in `symbol`'s disassembly."""
    # --disassemble= takes the mangled name; c++filt then demangles the
    # call targets.
    out = run(["c++filt"], run(["objdump", "-d", "--no-show-raw-insn",
                                f"--disassemble={symbol}", str(binary)]))
    targets = collections.Counter()
    for line in out.splitlines():
        m = CALL.search(line)
        if m:
            targets[m.group(1)] += 1
    return targets


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary", nargs="?", default=str(ROOT / ".bench_build/perfbench/perfbench"))
    ap.add_argument("--list", action="store_true", help="print every call target")
    args = ap.parse_args()
    binary = Path(args.binary)
    if not binary.is_file():
        fail(f"{binary}: no such file (build perfbench first)")

    bad = []
    for machine, (hot, cold) in run_symbols(binary).items():
        parts = [("run()", calls(binary, hot))]
        if cold is not None:
            parts.append(("run() [clone .cold]", calls(binary, cold)))
        for where, targets in parts:
            total = sum(targets.values())
            print(f"{machine} {where}: {total} calls, {len(targets)} targets")
            for target, n in sorted(targets.items()):
                rule = next((name for name, rx in FORBIDDEN if rx.search(target)), None)
                if rule is None and GROW.search(target) and "cold" not in where:
                    rule = "list growth outside the .cold clone"
                if rule is not None:
                    bad.append(f"{machine} {where}: {n} call(s) to {target} ({rule})")
                if args.list:
                    print(f"  {n:4d}  {target}")
    if bad:
        print("out-of-line calls on the per-firing token paths:")
        for line in bad:
            print(f"  {line}")
        sys.exit(1)
    print("ok: token entry, retirement and recycling are inline in both generated run() loops")


if __name__ == "__main__":
    main()
