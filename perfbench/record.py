#!/usr/bin/env python3
"""Record the expected outputs that ``run.py`` compares against.

    python3 perfbench/record.py

Writes ``expected/cli/<name>.out`` for every command in ``expected/cli.json``
and ``expected/digests-seed0.json``, the digests of the byte-stable verdict
JSON of every input of the default seed.  An output is recorded only when it
passes the independent reference check, and a command only when it exits
with its listed code and without a traceback.  The recorded files pin the
current output bytes, so review their diff before committing it.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def main() -> int:
    if not (run.ROOT / "src" / "sct" / "__init__.py").is_file():
        print("error: run from a checkout of the sct sources", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    import tracing
    import workloads

    api = tracing.Api()
    workdir = run.WORK / "record"
    try:
        cli = workloads.CliWorkload(workdir)
        cli.write_fixtures()
        for entry in json.loads((workloads.EXPECTED / "cli.json").read_text(encoding="utf-8")):
            item = workloads.Item("recorded", entry["name"], {"argv": entry["argv"]})
            cli.expect[entry["name"]] = (entry["code"], None)
            output = cli.run(item, api)
            problem = cli.failure(item, output)
            if problem is not None:
                print(f"error: {entry['name']}: {problem}", file=sys.stderr)
                return 1
            (workloads.EXPECTED / "cli" / f"{entry['name']}.out").write_text(output[1], encoding="utf-8")

        digests = {}
        for name in ("closure", "oracle", "programs"):
            workload = workloads.WORKLOADS[name](workdir)
            items = workload.build(workload.choose(random.Random(run.DEFAULT_SEED)), api)
            digests[name] = {}
            for item in items:
                if item.kind not in workload.digest_kinds:
                    continue
                output = workload.run(item, api)
                text = workload.text(item, output)
                problem = workload.judge(item, output) or workload.deep_check(item)
                if problem is not None:
                    print(f"error: {name} {item.key}: {problem}", file=sys.stderr)
                    return 1
                digests[name][item.key] = workloads.digest(text)
        path = workloads.EXPECTED / "digests-seed0.json"
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
