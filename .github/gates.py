"""Run every CSV digest, stderr and memory gate in .github/gates.txt.

    python3 .github/gates.py

Run from anywhere.  Each table line is one run of ``python -m drifttrack.experiments``
from the repository root, written as

    [NAME=VALUE ...] [-W ACTION] COMMAND CONFIG [FLAG ...] exit=CODE
        (sha256=HEX | stderr=TEXT) [max_rss_mb=MB]

on one line, split as a shell would split it: the environment, the
interpreter's options, the subcommand, the config and its flags, then
the expected exit code and either the CSV's sha256 or the whole of
stderr (a divergence line), and optionally a bound on the run's peak
RSS.  Every run gets ``--out`` and ``--quiet`` and a fresh interpreter;
its peak is its own ``ru_maxrss`` from ``os.wait4``.  Blank lines and
lines starting with ``#`` are comments.

Each line prints its wall time, peak and verdict.  A line whose exit
code or output differs prints the line observed, so a change that
means to alter those bytes is recorded by copying the printed lines
into the table.  The exit code is 1 when any line fails, 2 when the
table does not parse.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, ".github", "gates.txt")

_ENV = re.compile(r"[A-Z_][A-Z0-9_]*=")
_EXPECTED = ("exit", "sha256", "stderr", "max_rss_mb")


@dataclass(frozen=True)
class Gate:
    lineno: int
    env: dict
    options: tuple   # the interpreter's
    command: str
    config: str
    flags: tuple
    exit: int
    key: str         # what expected is: "sha256" or "stderr"
    expected: str
    max_rss_mb: Optional[float]

    def run_tokens(self) -> list:
        """The line up to its expectations."""
        return [*(f"{k}={v}" for k, v in self.env.items()), *self.options,
                self.command, self.config, *self.flags]

    def line(self, code: int, output: str) -> str:
        """The table line with this exit code and output (a sha256 on a
        digest line, stderr on a stderr line) and this line's bound."""
        line = (f"{shlex.join(self.run_tokens())} exit={code} "
                f"{self.key}={shlex.quote(output)}")
        if self.max_rss_mb is not None:
            line += f" max_rss_mb={self.max_rss_mb:g}"
        return line


def parse_line(text: str, lineno: int) -> Gate:
    tokens = shlex.split(text)
    env = {}
    while tokens and _ENV.match(tokens[0]):
        name, value = tokens.pop(0).split("=", 1)
        env[name] = value
    options = []
    while tokens and tokens[0].startswith("-"):
        options.append(tokens.pop(0))
        if options[-1] == "-W" and tokens:
            options.append(tokens.pop(0))
    expected = {}
    while tokens and tokens[-1].split("=", 1)[0] in _EXPECTED:
        key, value = tokens.pop().split("=", 1)
        if key in expected:
            raise ValueError(f"{key} given twice")
        expected[key] = value
    if len(tokens) < 2:
        raise ValueError("needs a subcommand and a config")
    if "exit" not in expected:
        raise ValueError("needs exit=CODE")
    if ("sha256" in expected) == ("stderr" in expected):
        raise ValueError("needs one of sha256=HEX and stderr=TEXT")
    key = "sha256" if "sha256" in expected else "stderr"
    bound = expected.get("max_rss_mb")
    return Gate(lineno=lineno, env=env, options=tuple(options),
                command=tokens[0], config=tokens[1], flags=tuple(tokens[2:]),
                exit=int(expected["exit"]), key=key, expected=expected[key],
                max_rss_mb=None if bound is None else float(bound))


def parse_table() -> list:
    """The table's gates, in order; a line that does not parse raises
    ValueError naming it."""
    gates = []
    with open(TABLE, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            try:
                gates.append(parse_line(text, lineno))
            except ValueError as exc:
                raise ValueError(f"{TABLE}:{lineno}: {exc}") from exc
    return gates


def run(gate: Gate):
    """(exit code, output, stderr, peak RSS in MB, seconds) of one run
    in a fresh interpreter; the output is the CSV's sha256 (``none``
    when no CSV was written) or, on a stderr line, stderr without its
    last newline."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        argv = [sys.executable, *gate.options, "-m", "drifttrack.experiments",
                gate.command, "--config", gate.config, *gate.flags,
                "--out", out, "--quiet"]
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
               **gate.env}
        with open(os.path.join(tmp, "stderr"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # this child's own peak, not the largest over all children
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            seconds = time.perf_counter() - start
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if gate.key == "stderr":
            output = stderr.removesuffix("\n")
        elif os.path.exists(out):
            with open(out, "rb") as fh:
                output = hashlib.sha256(fh.read()).hexdigest()
        else:
            output = "none"
    return proc.returncode, output, stderr, usage.ru_maxrss / 1024, seconds


def main() -> int:
    try:
        gates = parse_table()
    except (OSError, ValueError) as exc:
        print(f"gates: {exc}", file=sys.stderr)
        return 2
    failed = 0
    total = 0.0
    for gate in gates:
        code, output, stderr, peak, seconds = run(gate)
        total += seconds
        same = code == gate.exit and output == gate.expected
        under = gate.max_rss_mb is None or peak <= gate.max_rss_mb
        bound = "" if gate.max_rss_mb is None else f" <= {gate.max_rss_mb:g}"
        print(f"{seconds:6.1f} s {peak:6.1f} MB{bound:8} "
              f"{'ok' if same and under else 'FAIL':4}  "
              f"{shlex.join(gate.run_tokens())}")
        if not same:
            print(f"    observed (line {gate.lineno}): "
                  f"{gate.line(code, output)}")
            if gate.key == "sha256" and stderr:
                print("    stderr: " + stderr.rstrip("\n").replace(
                    "\n", "\n    stderr: "))
        if not under:
            print(f"    peak RSS {peak:.1f} MB passes the line's bound")
        failed += not (same and under)
        sys.stdout.flush()
    print(f"{len(gates)} gates, {failed} failed, {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
