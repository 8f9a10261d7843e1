"""Output checks computed apart from the program's own code paths.

The reference for ``K_s`` is :class:`repro.baseline.InHouseTool`, the
sequential ingest-and-interpret decoder the paper compares against; it
shares no code with the engine-based preselection, join and
interpretation stages. From its decoded signal instances this module
redoes, in plain loops, the two row-level steps of Algorithm 1 whose
results are exactly determined:

* the gateway equality check ``e`` (line 9): per signal, channels with
  identical time-ordered value sequences form one group, represented by
  the longest sequence (ties broken by channel name);
* the ``unchanged_within_cycle`` reduction (lines 10-11): an instance is
  dropped when its value equals the previous instance's value and the
  gap to it is at most ``tolerance * cycle_time``.

:func:`check_output` then compares a run's outputs against that
reference: the ``K_s`` multiset, per-signal row counts before and after
reduction, one ``R_out`` row per reduced row for β/γ signals, fewer
``R_out`` rows than reduced rows for α signals, the branch each signal
was built for, and the ``(t, s_id)`` order of ``R_out``. It returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

#: Tolerance of an ``unchanged_within_cycle`` constraint that names none
#: (the parameter document format's documented default).
DEFAULT_TOLERANCE = 1.5

ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"

#: Column positions of an ``R_out`` row ``(t, s_id, b_id, kind, value,
#: trend)``.
R_T, R_SID, R_BID = 0, 1, 2


@dataclass
class SignalReference:
    """The reference equality split and reduction of one signal."""

    signal_id: str
    #: (representative channel, corresponding channels) per group.
    groups: list
    rows_before: int
    rows_after: int

    def corresponding_channels(self):
        return {c for _rep, corr in self.groups for c in corr}


def expected_branches(dataset):
    """Signal id -> the branch the data set built the signal for."""
    from repro.datasets import SPECS, build_dataset

    bundle = build_dataset(SPECS[dataset])
    out = {s: ALPHA for s in bundle.alpha_ids}
    out.update((s, BETA) for s in bundle.beta_ids)
    out.update((s, GAMMA) for s in bundle.gamma_ids)
    return out


def decode(dataset, records, signal_ids):
    """``{s_id: [(t, v, b_id), ...]}`` decoded by the in-house tool."""
    from repro.baseline import InHouseTool
    from repro.datasets import SPECS, build_dataset

    tool = InHouseTool(build_dataset(SPECS[dataset]).database)
    tool.ingest(records)
    return tool.extract(list(signal_ids))


def reduction_limits(document):
    """``{s_id: tolerance * cycle_time}`` from a parameter document."""
    limits = {}
    for spec in document["constraints"]:
        if spec["type"] != "unchanged_within_cycle":
            raise ValueError(
                "the checker only models unchanged_within_cycle "
                "constraints, not {!r}".format(spec["type"])
            )
        limits[spec["signal"]] = spec["cycle_time"] * spec.get(
            "tolerance", DEFAULT_TOLERANCE
        )
    return limits


def _kept_count(sequence, limit):
    kept = 0
    prev = None
    for t, v in sequence:
        if prev is None or v != prev[1] or t - prev[0] > limit:
            kept += 1
        prev = (t, v)
    return kept


def reference(decoded, limits, dedup=True):
    """``{s_id: SignalReference}`` by plain-loop split and reduction.

    With ``dedup=False`` every channel is its own group, as in the
    windowed runner, which does not deduplicate gateway channels.
    """
    out = {}
    for s_id, instances in decoded.items():
        per_channel = {}
        for t, v, b_id in sorted(instances, key=lambda item: item[0]):
            per_channel.setdefault(b_id, []).append((t, v))
        channels = sorted(
            per_channel, key=lambda b: (-len(per_channel[b]), str(b))
        )
        groups = []
        assigned = set()
        for channel in channels:
            if channel in assigned:
                continue
            values = [v for _t, v in per_channel[channel]]
            corresponding = []
            if dedup:
                corresponding = [
                    other for other in channels
                    if other != channel and other not in assigned
                    and [v for _t, v in per_channel[other]] == values
                ]
            assigned.add(channel)
            assigned.update(corresponding)
            groups.append((channel, tuple(sorted(map(str, corresponding)))))
        limit = limits.get(s_id)
        before = sum(len(per_channel[rep]) for rep, _corr in groups)
        after = sum(
            _kept_count(per_channel[rep], limit) if limit is not None
            else len(per_channel[rep])
            for rep, _corr in groups
        )
        out[s_id] = SignalReference(s_id, groups, before, after)
    return out


def check_output(refs, branches, r_out, k_s=None, decoded=None,
                 outcomes=None, classification=None, label="output"):
    """Problems found in one trace's outputs (an empty list passes).

    *refs* come from :func:`reference`; *branches* maps every signal to
    its constructed branch. *r_out* is the list of ``R_out`` rows.
    Optional parts are checked when given: *k_s* rows ``(t, v, s_id,
    b_id)`` against the *decoded* instances as multisets, *outcomes*
    ``{s_id: (rows_before, rows_after)}`` against the reference counts,
    and *classification* ``{s_id: branch}`` against *branches*.
    """
    problems = []

    def problem(text):
        problems.append("{}: {}".format(label, text))

    if k_s is not None:
        expected = Counter(
            (t, v, s_id, b_id)
            for s_id, instances in decoded.items()
            for t, v, b_id in instances
        )
        actual = Counter(tuple(row) for row in k_s)
        if actual != expected:
            problem("K_s differs from the in-house decode: {} rows "
                    "missing, {} rows extra".format(
                        sum((expected - actual).values()),
                        sum((actual - expected).values())))
    if outcomes is not None:
        for s_id, ref in sorted(refs.items()):
            got = outcomes.get(s_id)
            want = (ref.rows_before, ref.rows_after)
            if got != want:
                problem("{} rows before/after reduction {} != reference "
                        "{}".format(s_id, got, want))
    if classification is not None:
        for s_id in sorted(refs):
            if classification.get(s_id) != branches.get(s_id):
                problem("{} classified {!r}, built as {!r}".format(
                    s_id, classification.get(s_id), branches.get(s_id)))
    per_signal = Counter(row[R_SID] for row in r_out)
    unknown = set(per_signal) - set(refs)
    if unknown:
        problem("R_out rows of unexpected signals {}".format(
            sorted(map(str, unknown))))
    for s_id, ref in sorted(refs.items()):
        rows = per_signal.get(s_id, 0)
        if branches.get(s_id) == ALPHA:
            if not 0 < rows < ref.rows_after:
                problem("alpha signal {} has {} R_out rows for {} reduced "
                        "rows".format(s_id, rows, ref.rows_after))
        elif rows != ref.rows_after:
            problem("{} signal {} has {} R_out rows, reference reduced "
                    "rows {}".format(branches.get(s_id), s_id, rows,
                                     ref.rows_after))
    keys = [(row[R_T], str(row[R_SID])) for row in r_out]
    for index in range(1, len(keys)):
        if keys[index] < keys[index - 1]:
            problem("R_out not ordered by (t, s_id) at row {}".format(index))
            break
    return problems


def without_corresponding(r_out, refs):
    """*r_out* minus the rows of gateway-corresponding channels."""
    drop = {
        (s_id, channel)
        for s_id, ref in refs.items()
        for channel in ref.corresponding_channels()
    }
    return [row for row in r_out
            if (row[R_SID], str(row[R_BID])) not in drop]
