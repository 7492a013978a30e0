"""Seeded trace-set generator for the perfbench workloads.

Each workload is a fixed schedule of set sizes, states, poll counts and
member counts; the seed only picks the identifiers, so every seed asks
the synthesizer for the same amount of work. Every set
carries the hand-written ground-truth script it should synthesize to,
written in the form of the matching fixture's golden.txt.

    python3 perfbench/gen.py --workload loops --seed 3 > sets.json
"""

from __future__ import annotations

import argparse
import json
import random
from typing import Dict, List

WORKLOADS = ("cond", "loops", "wide")

STATES = ("running", "stopped", "shutting-down")

# Trace counts per set. Small cond sets are repeated so that every seed
# gets sets that solve at the seed state as well as the large ones that
# exercise the superlinear guard path.
COND_SIZES = (3, 3, 3, 4, 4, 6, 12, 24, 48)
RETRY_SIZES = (8, 12, 24, 48)
FOREACH_SIZES = (6, 12, 24, 48)
# Response-list widths of the longest of the three traces in a wide set.
WIDE_WIDTHS = (125, 250, 500, 1000, 2000)

COND_GOLDEN = """\
lambda i_1.
  let x6 = ec2.StopInstances(InstanceIds=i_1, Force=false)
  let x7 = ec2.DescribeInstanceStatus(InstanceIds=i_1)
  let b_1 = f_1(i_1, x6, x7)
  if b_1 {
    let x8 = ec2.StopInstances(InstanceIds=i_1, Force=true)
  }
where
  f_1 := (a0, a1, a2) -> !(a2..Name[0] == "stopped")
"""

RETRY_GOLDEN = """\
lambda i_1.
  let v_1 = f_2(i_1)
  let x8 = dynamodb.CreateBackup(TableName=i_1, BackupName=v_1)
  retry loop_1 {
    let v_2 = f_3(i_1, v_1, x8)
    let x5 = dynamodb.DescribeBackup(BackupArn=v_2)
    let s_1 = f_1(i_1, x8, x5)
  } until s_1
  let x10 = dynamodb.DeleteTable(TableName=i_1)
where
  f_1 := (a0, a1, a2) -> a2.BackupDescription.BackupDetails.BackupStatus == "AVAILABLE"
  f_2 := (a0) -> "bk-" + a0
  f_3 := (a0, a1, a2) -> a2.BackupDetails.BackupArn
"""

FOREACH_GOLDEN = """\
lambda i_1.
  let x7 = slack.ConversationsMembers(channel=i_1)
  let L_1 = f_1(i_1, x7)
  for loop_1 (u_1) in L_1 {
    let x8 = slack.UsersInfo(user=u_1)
  }
where
  f_1 := (a0, a1) -> a1.members
"""

WIDE_GOLDEN = """\
lambda .
  let x5 = ec2.DescribeInstances(Filters=[{"Name": "instance-state-name", "Values": ["running"]}])
  let v_1 = f_1(x5)
  let x6 = ec2.StopInstances(InstanceIds=v_1)
where
  f_1 := (a0) -> a0..InstanceId
"""

_OK = {"ResponseMetadata": {"HTTPStatusCode": 200}}
_RUNNING_FILTER = [{"Name": "instance-state-name", "Values": ["running"]}]


def _call(api: str, request: dict, response: dict) -> dict:
    return {"api": api, "request": request, "response": response}


def _hex_ids(rng: random.Random, prefix: str, n: int, digits: int) -> List[str]:
    """n distinct identifiers prefix + hex digits."""
    seen: set = set()
    out = []
    while len(out) < n:
        ident = f"{prefix}{rng.randrange(16 ** digits):0{digits}x}"
        if ident not in seen:
            seen.add(ident)
            out.append(ident)
    return out


def _cycled(values, n: int) -> List[int]:
    """n values taken cyclically, so each value appears once n reaches
    len(values) and the sequence depends only on n."""
    values = list(values)
    return [values[t % len(values)] for t in range(n)]


def cond_set(rng: random.Random, n: int) -> List[list]:
    """stop_instances_cond shape. Traces come in groups of three, one per
    state; the first trace of group g stops instance g and the other two
    stop instance g + 1, so every instance but the first is seen in all
    three states and no literal instance-list guard fits the evidence.
    Three traces reproduce the fixture's pattern exactly."""
    ids = _hex_ids(rng, "i-", n // 3 + 2, 5)
    traces = []
    for t in range(n):
        group, slot = divmod(t, 3)
        iid = [ids[group] if slot == 0 else ids[group + 1]]
        state = STATES[slot]
        trace = [
            _call("ec2.StopInstances", {"InstanceIds": iid, "Force": False}, _OK),
            _call(
                "ec2.DescribeInstanceStatus",
                {"InstanceIds": iid},
                {"InstanceStatuses": [{"InstanceState": {"Name": state}}]},
            ),
        ]
        if state != "stopped":
            trace.append(
                _call("ec2.StopInstances", {"InstanceIds": iid, "Force": True}, _OK)
            )
        traces.append(trace)
    return traces


def retry_set(rng: random.Random, n: int) -> List[list]:
    """backup_then_delete_table shape with 1 to 4 DescribeBackup polls."""
    tables = _hex_ids(rng, "tbl", n, 6)
    polls = _cycled(range(1, 5), n)
    traces = []
    for table, k in zip(tables, polls):
        backup = "bk-" + table
        arn = "arn:aws:dynamodb:" + backup
        trace = [
            _call(
                "dynamodb.CreateBackup",
                {"TableName": table, "BackupName": backup},
                {"BackupDetails": {"BackupArn": arn, "BackupStatus": "CREATING"}},
            )
        ]
        for p in range(k):
            status = "AVAILABLE" if p == k - 1 else "CREATING"
            trace.append(
                _call(
                    "dynamodb.DescribeBackup",
                    {"BackupArn": arn},
                    {"BackupDescription": {"BackupDetails": {"BackupArn": arn, "BackupStatus": status}}},
                )
            )
        trace.append(
            _call(
                "dynamodb.DeleteTable",
                {"TableName": table},
                {"TableDescription": {"TableStatus": "DELETING"}},
            )
        )
        traces.append(trace)
    return traces


def foreach_set(rng: random.Random, n: int) -> List[list]:
    """retrieve_channel_members shape with 1 to 6 members per channel."""
    channels = _hex_ids(rng, "C-", n, 5)
    counts = _cycled(range(1, 7), n)
    users = iter(_hex_ids(rng, "U", sum(counts), 6))
    traces = []
    for channel, k in zip(channels, counts):
        members = [next(users) for _ in range(k)]
        trace = [
            _call(
                "slack.ConversationsMembers",
                {"channel": channel},
                {"members": members, "ok": True},
            )
        ]
        for u in members:
            trace.append(
                _call(
                    "slack.UsersInfo",
                    {"user": u},
                    {"user": {"id": u, "name": "n" + u[1:]}, "ok": True},
                )
            )
        traces.append(trace)
    return traces


def wide_set(rng: random.Random, width: int) -> List[list]:
    """stop_all_running_instances shape: three traces whose running
    instance lists are width, width // 2 and width // 4 long."""
    traces = []
    for w in (width, width // 2, width // 4):
        ids = _hex_ids(rng, "i-", w, 8)
        traces.append(
            [
                _call(
                    "ec2.DescribeInstances",
                    {"Filters": _RUNNING_FILTER},
                    {"Reservations": [{"Instances": [{"InstanceId": i} for i in ids]}]},
                ),
                _call(
                    "ec2.StopInstances",
                    {"InstanceIds": ids},
                    {"StoppingInstances": [{"InstanceId": i} for i in ids]},
                ),
            ]
        )
    return traces


def generate(workload: str, seed: int) -> List[Dict]:
    """The workload's sets for this seed: [{name, traces, golden}]."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    sets = []
    if workload == "cond":
        for i, n in enumerate(COND_SIZES):
            sets.append((f"cond-{i}-n{n}", cond_set(rng, n), COND_GOLDEN))
    elif workload == "loops":
        for n in RETRY_SIZES:
            sets.append((f"retry-n{n}", retry_set(rng, n), RETRY_GOLDEN))
        for n in FOREACH_SIZES:
            sets.append((f"foreach-n{n}", foreach_set(rng, n), FOREACH_GOLDEN))
    else:
        for w in WIDE_WIDTHS:
            sets.append((f"wide-w{w}", wide_set(rng, w), WIDE_GOLDEN))
    return [{"name": name, "traces": traces, "golden": golden} for name, traces, golden in sets]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed), sort_keys=True))


if __name__ == "__main__":
    main()
