"""Print the result line of each `perfbench/run.py` output file, and fail
unless every one reads `"correct": true` and `"failed": 0`.

`perfbench/run.py` exits 0 whatever its result, so a benchmark command that
fails, or whose outputs fail the harness's checks, passes unless its last
line is read. Run it as `python .github/bench_result.py OUTPUT...`.
"""

import json
import sys


def passed(line: str) -> bool:
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python .github/bench_result.py OUTPUT...", file=sys.stderr)
        return 2
    wrong = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        line = lines[-1] if lines else ""
        print(f"{path}: {line}")
        if not passed(line):
            wrong.append(path)
    if wrong:
        print(f"not correct, or a command failed: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
