"""Sharded-fleet identity driver: journal vs forkserver merged census.

Invoked by the ``forkserver-smoke`` CI job (and runnable locally)::

    PYTHONPATH=src python benchmarks/ci/shard_driver.py

The driver must be a real file: spawn-context workers re-import
``__main__``, which fails for stdin scripts.
"""

import json

from repro.fuzz.checkpoint import result_to_json
from repro.fuzz.spec import CampaignSpec
from repro.fuzz.supervisor import run_sharded_fleet


def main():
    runs = {}
    for mode in ("journal", "forkserver"):
        fleet = run_sharded_fleet(
            CampaignSpec("InfiniTime", budget=400, seed=1, exec_mode=mode),
            shards=2)
        runs[mode] = json.dumps(result_to_json(fleet.result),
                                sort_keys=True)
    assert runs["journal"] == runs["forkserver"], \
        "sharded fork-server census diverged"
    print("sharded fork-server identity ok")


if __name__ == "__main__":
    main()
