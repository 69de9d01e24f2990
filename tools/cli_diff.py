"""CLI output of checkouts compared byte for byte: cli_diff.py LABEL=SRC [LABEL=SRC ...]

The first checkout is the reference.  For each SRC, `python -m sic_forge.cli` (SRC first on PYTHONPATH) runs in a
fresh temporary directory:
- every command of the bench cli workload (bench/workloads.py Cli.commands() at workload seed 1, on the input files
  its set-up writes there, as tools/layer_times.py uses them), with --json and in text mode;
- `mubs --dim 2` and `mubs --dim 3`, with --json and in text mode: the two chirp formulas (tau**(a*j*j) at d = 2,
  tau**(a*j*(j-1)) at odd d), of which the bench runs only d = 7;
- every refused value of tests/test_cli.py's BAD_FLAGS, completed by its VALID_FLAGS, with that directory as the
  working directory.
Exit codes, stdout and the bytes of every file left in the directory, set-up inputs included, must equal the
reference's, with wall_time_ms and the temporary directory's path masked: any difference is printed and the script
exits 1.  stderr differences are printed but do not fail the run.  The CLI's contract for a bad input is one
`error: ...` line on stderr and exit code 2, so a call that prints a Python traceback on stderr in any checkout is
printed and fails the run too, even where every checkout crashes alike.  This script imports only the standard
library; the set-up runs in a child process with SRC and bench/ on its path.
"""
import ast, difflib, json, os, re, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL = re.compile(r'(wall_time_ms"?: )\d+')
TRACEBACK = "Traceback (most recent call last)"
CHIRPS = [["mubs", "--dim", "2", "--json"], ["mubs", "--dim", "3", "--json"]]


def setup(src: str, work: str) -> list:
    """Child: write the bench cli workload's input files into work; return its sic-forge argvs."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    from workloads import Cli
    bench = Cli(1, str(Path(src).parent))
    bench.work = work
    bench.setup()
    return [argv for _, argv, _, _ in bench.commands() if argv is not None]  # the first is the bare import


def bad_flags() -> list:
    """The argv of every refused flag value in tests/test_cli.py."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)
              and target.id in ("VALID_FLAGS", "BAD_FLAGS")}
    fiducial = str(ROOT / "bench" / "data" / "fiducial_d5.json")
    argvs = []
    for (command, flag), values in tables["BAD_FLAGS"].items():
        for value in values:
            flags = {**tables["VALID_FLAGS"][command], flag: value}
            argvs.append([command] + [text.format(fiducial=fiducial) for pair in flags.items() for text in pair])
    return argvs


def run_checkout(src: str) -> dict:
    """{"calls": {argv text: (exit code, stdout, stderr)}, "files": {relative path: bytes}} of one checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as work:
        commands = json.loads(subprocess.check_output([sys.executable, __file__, "--setup", src, work], text=True))
        argvs = [mode for argv in commands + CHIRPS for mode in (argv, [a for a in argv if a != "--json"])]
        argvs += bad_flags()
        mask = lambda text: WALL.sub(r"\1<ms>", text.replace(work, "<work>"))
        calls = {}
        for argv in argvs:
            done = subprocess.run([sys.executable, "-m", "sic_forge.cli", *argv], cwd=work, env=env,
                                  capture_output=True, text=True)
            calls[mask(" ".join(argv))] = (done.returncode, mask(done.stdout), mask(done.stderr))
        files = {str(p.relative_to(work)): p.read_bytes().replace(work.encode(), b"<work>")
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return {"calls": calls, "files": files}


def changed(old: str, new: str) -> list:
    """The lines only one of two texts has, marked - (the reference's) or + (the other's) and indented."""
    return [f"  {line}" for line in difflib.ndiff(old.splitlines(), new.splitlines()) if line[:2] in ("- ", "+ ")]


def main(checkouts: list) -> int:
    results = [(label, run_checkout(str(Path(src).resolve()))) for label, src in checkouts]
    (ref_label, ref), failures, stderr_changes = results[0], 0, 0
    for label, result in results[1:]:
        for argv, (code, stdout, stderr) in ref["calls"].items():
            other = result["calls"][argv]
            if (code, stdout) != other[:2]:
                failures += 1
                print(f"DIFF {argv}: exit {code} in {ref_label}, {other[0]} in {label}", sep="\n",
                      *changed(stdout, other[1]))
            if stderr != other[2]:
                stderr_changes += 1
                print(f"stderr {argv}", *changed(stderr, other[2]), sep="\n")
        for name in sorted(ref["files"].keys() | result["files"].keys()):
            if ref["files"].get(name) != result["files"].get(name):
                failures += 1
                print(f"DIFF file {name}: differs or is missing in {label}")
    crashes = [(label, argv) for label, result in results for argv, (_, _, stderr) in result["calls"].items()
               if TRACEBACK in stderr]
    for label, argv in crashes:
        print(f"TRACEBACK {argv} in {label}")
    calls, files = len(ref["calls"]), len(ref["files"])
    print(f"{calls} calls and {files} files per checkout: {failures} differences in exit code, stdout or files; "
          f"{stderr_changes} in stderr; {len(crashes)} tracebacks")
    return 1 if failures or crashes else 0


if __name__ == "__main__":
    if sys.argv[1] == "--setup":  # a child: set up the bench cli inputs for the checkout whose src is given
        print(json.dumps(setup(*sys.argv[2:])))
    else:
        sys.exit(main([tuple(a.split("=", 1)) for a in sys.argv[1:]]))
