"""Minimal tensatd client for the CI soaks.

optimize(node, graph, headers) submits a greedy job to POST /v1/jobs,
follows its /events stream until the "done" event and returns the
decoded /result reply; HTTP errors raise urllib.error.HTTPError.
metric(node, series) reads one sample from /metrics, the series named
with its labels (0.0 when absent).

Import it from a step with PYTHONPATH=.github/scripts.
"""
import json
import re
import urllib.request

OPTIONS = {"extractor": "greedy", "iter_limit": 4, "node_limit": 2000}


def _open(url, headers, data=None, timeout=60):
    return urllib.request.urlopen(
        urllib.request.Request(url, data=data, headers=headers), timeout=timeout)


def optimize(node, graph, headers=None):
    headers = {"Content-Type": "application/json", **(headers or {})}
    body = json.dumps({"graph": graph, "options": OPTIONS}).encode()
    with _open(node + "/v1/jobs", headers, data=body) as resp:
        job = json.load(resp)
    with _open(node + job["events_url"], headers) as resp:
        for line in resp:
            if line.rstrip() == b"event: done":
                break
    with _open(node + job["result_url"], headers) as resp:
        return json.load(resp)


def metric(node, series):
    with _open(node + "/metrics", {}, timeout=10) as resp:
        text = resp.read().decode()
    m = re.search(rf"^{re.escape(series)} (\S+)$", text, re.M)
    return float(m.group(1)) if m else 0.0
