"""Why two nearly identical lookups get opposite verdicts.

The rsa and ecdsa entries are the same masked window scan; the only
difference is whether the inner word count is a runtime value or a
constant.  The constant one unrolls completely, after which there is no
loop left for the vectorizer or the cmov converter to attack: with
unswitching off, its unrolled selects lower to 60 branchless cmovs (the
SLP vectorizer changes it under no preset).  The runtime one
keeps its inner loop, so the loop vectorizer and the converter both get a
shot at the select.  Sweeping the four toggles shows exactly which pass
combinations are at fault.
"""

from ctlab.cli import main as ctlab


def main():
    for name in ("ecdsa_bearssl_lookup", "rsa_bearssl_lookup"):
        print(f"==== {name}")
        ctlab(["matrix", name, "--preset", "llvm18-O3"])
        print()


if __name__ == "__main__":
    main()
