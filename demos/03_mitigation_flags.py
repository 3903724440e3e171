"""Check a mitigation flag set before trusting it.

The `*-mitig` presets model builds with the branch-introducing transforms
disabled by flag.  Verifying them against the corpus shows the full LLVM
set keeps every constant-time entry clean, while the variant that keeps
the loop vectorizer still breaks the runtime-bound lookup.
"""

from ctlab import analyze, emit_real_flags, entries, load_program, preset


def verdicts(preset_name: str) -> dict[str, bool]:
    spec = preset(preset_name).spec
    return {entry.name: analyze(load_program(entry.name), spec).report.is_clean
            for entry in entries() if entry.ct_expected}


def main():
    print("flags for a mitigated LLVM build:")
    print(" ", " ".join(emit_real_flags("llvm")))
    print("flags for a mitigated GCC build:")
    print(" ", " ".join(emit_real_flags("gcc")))
    print()
    for preset_name in ("llvm18-O3-mitig", "llvm18-O3-mitig+vect",
                        "gcc13-O3-mitig"):
        clean = verdicts(preset_name)
        broken = [n for n, ok in clean.items() if not ok]
        print(f"{preset_name}: {len(clean) - len(broken)}/{len(clean)} "
              f"constant-time entries stay clean"
              + (f"; broken: {', '.join(broken)}" if broken else ""))


if __name__ == "__main__":
    main()
