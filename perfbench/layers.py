"""Bucket a gprof flat profile into the simulator's layers.

Layers are the src/ modules, named by their C++ namespaces (nws::<module>::).
Three exceptions follow where the code lives rather than its namespace:
nws::bench::make_*payload is harness payload synthesis, kept apart as
`payload`; nws::bench::IoLog and its helpers live in src/obs; the rest of
nws::bench is src/harness.  Plain nws:: is src/common, with the MD5
functions also summed as `md5`.  The benchmark's own workload code
(namespace perfbench::) drives the layers as the harness does and is booked
to `harness`.  A template instance outside nws:: (a std:: container of nws
types, say) goes to the module of the first nws type it names.  Whatever
names no nws type is `unattributed`: the standard library instantiated in
the binary and start-up code.  libc and the kernel never appear in the
profile at all.
"""

import re

MODULES = ("sim", "net", "scm", "daos", "fdb", "dfs", "codec", "fault", "obs",
           "ior", "lustre", "mpibench", "ioserver", "pgen")

# %time  cumulative  self  [calls  self/call  total/call]  name
_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                  r"(?:(\d+)\s+([\d.]+)\s+([\d.]+)\s+)?(\S.*)$")
_PAYLOAD = re.compile(r"^nws::bench::make_\w*payload\b")
_MD5 = re.compile(r"^nws::(Md5\w*|md5)\b")
_OBS_IN_BENCH = re.compile(r"^nws::bench::(IoLog|IoRecord|event_kind_name)\b")
_NWS_MODULE = re.compile(r"^nws::(\w+)::")


def parse_flat_profile(text):
    """Returns [(self_seconds, calls or None, name)] of a `gprof -b -p` run."""
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.lstrip().startswith("time   seconds"):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        m = _ROW.match(line)
        if m is None:
            continue
        calls = int(m.group(4)) if m.group(4) is not None else None
        rows.append((float(m.group(3)), calls, m.group(7).strip()))
    return rows


def _module_at(qualified):
    """Layer of a name that starts with nws::."""
    if _PAYLOAD.match(qualified):
        return "payload"
    if _OBS_IN_BENCH.match(qualified):
        return "obs"
    if qualified.startswith("nws::bench::"):
        return "harness"
    m = _NWS_MODULE.match(qualified)
    if m is not None and m.group(1) in MODULES:
        return m.group(1)
    return "common"


def layer_of(name):
    """Layer a flat-profile function name is booked to."""
    if name.startswith("perfbench::"):
        return "harness"
    if name.startswith("nws::"):
        return _module_at(name)
    at = name.find("nws::")
    if at < 0:
        return "unattributed"
    return _module_at(name[at:])


def bucket(rows):
    """Self seconds per layer (plus `md5`, a subset of `common`)."""
    out = {}
    for seconds, _calls, name in rows:
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + seconds
        if _MD5.match(name):
            out["md5"] = out.get("md5", 0.0) + seconds
    return out


def self_seconds(rows, prefix):
    """Self seconds of the functions whose name starts with `prefix`."""
    return sum(seconds for seconds, _calls, name in rows if name.startswith(prefix))
