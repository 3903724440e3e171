"""Watch an optimizer break a branchless select.

The fig1c pattern computes `sec ? ra : rb` with xor/neg/and masking, which
is safe on any target.  Pattern recognition rewrites the mask dance into a
select; on x86-64 that select becomes a cmov and stays safe, but on a
target without cmov it becomes a branch on the secret.
"""

from ctlab import analyze, load_program, preset, print_ir


def main():
    source = load_program("fig1c_ctselect")
    print("source:")
    print(print_ir(source))

    for preset_name in ("baseline-off", "llvm18-O3", "i386-O3"):
        result = analyze(source, preset(preset_name).spec)
        report = result.report
        verdict = ("constant-time" if report.is_clean
                   else "NOT constant-time")
        print(f"== {preset_name}: {verdict}")
        for f in report.findings:
            print(f"   {f.kind} at {f.loc} (id {f.instr})")
        if preset_name == "i386-O3":
            print("lowered form on i386:")
            print(print_ir(result.lowered))


if __name__ == "__main__":
    main()
