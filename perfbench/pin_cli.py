"""Regenerate cli_expected.json: exit code and stdout SHA-256 of every
distinct cli-mix request, as the current source tree answers it.

    python3 perfbench/pin_cli.py

Only re-pin on purpose: the cli-mix oracle exists to notice any change in
the CLI's reports, which must stay byte-identical.
"""

import hashlib
import json

import oracles
import workloads


def main():
    pins = {}
    for kind, argv, doc in workloads.CLI_POOL:
        for fmt in workloads.FORMATS:
            code, stdout, _ = workloads.cli_call(argv + ["--format", fmt], doc)
            pins[workloads.cli_request_id(kind, fmt)] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            }
    oracles.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} requests in {oracles.PINS.name}")


if __name__ == "__main__":
    main()
